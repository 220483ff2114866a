//! # genalg-obs — the observability substrate
//!
//! Everything the rest of the workspace uses to *see* itself: structured
//! spans, latency histograms, a unified metrics snapshot, and Prometheus
//! text exposition. The build is fully offline, so there is no external
//! `tracing` or `prometheus` dependency — the whole layer is hand-rolled
//! on `AtomicU64` and `parking_lot`, in the same spirit as the server's
//! original metrics registry.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when off.** Instrumentation is compiled in everywhere and
//!    must be affordable always-on. [`Tracer::enabled`] is a single
//!    relaxed atomic load; a disabled [`Tracer::span`] returns an inert
//!    guard that allocates nothing and does nothing on drop.
//! 2. **Lock-free on the hot path.** Counters and histogram buckets are
//!    `fetch_add(Relaxed)`. Only finished span records touch a lock, and
//!    then only the one ring-buffer slot they land in.
//! 3. **One snapshot path.** Every subsystem folds its counters into a
//!    [`registry::Snapshot`]; `SHOW STATS` and `SHOW METRICS` are two
//!    renderings of the same snapshot, so they can never disagree.
//!
//! Counter naming convention (pinned by the server's golden test): every
//! scalar is `<subsystem>_<name>` with subsystem one of `cache`, `etl`,
//! `exec`, `obs`, `pool`, `query`, `server`, `wal`. Plain lexicographic
//! sort therefore groups related counters — that is the point of the
//! convention, not a side effect.

pub mod fingerprint;
pub mod hist;
pub mod recorder;
pub mod registry;
pub mod span;
pub mod timeseries;

pub use fingerprint::{
    fingerprint_id, CacheTier, Execution, FingerprintRegistry, FingerprintStats, PlanChange,
};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use recorder::{incident_dir, IncidentBundle, IncidentRecorder};
pub use registry::{escape_label_value, Snapshot};
pub use span::{FieldValue, Span, SpanRecord, Tracer};
pub use timeseries::{MetricRing, Sampler, DEFAULT_HISTORY_SLOTS};

use std::sync::atomic::AtomicU64;
use std::sync::OnceLock;

/// Ring-buffer capacity of the process-global tracer.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer. Engine internals (WAL sync, planner, ETL
/// monitors) record here without any handle plumbing; the
/// server enables it via config and drains it for `SHOW TRACE`.
///
/// Starts disabled unless the `GENALG_TRACE` environment variable is set
/// to `1`/`true`/`on`.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        let t = Tracer::new(DEFAULT_SPAN_CAPACITY);
        let on = std::env::var("GENALG_TRACE").is_ok_and(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
        });
        if on {
            t.set_enabled(true);
        }
        t
    })
}

/// Process-global ETL counters. The warehouse is not reachable from the
/// server's registry by handle (it owns its own `unidb::Database`), so
/// refresh instrumentation aggregates here and the exposition surface
/// reads whatever this process has done.
#[derive(Debug)]
pub struct EtlCounters {
    /// Refresh rounds started (incremental or full reload).
    pub refresh_rounds: AtomicU64,
    /// Source deltas collected across all rounds.
    pub deltas: AtomicU64,
    /// Entities re-reconciled and upserted.
    pub upserts: AtomicU64,
    /// Entities deleted from the warehouse.
    pub deletes: AtomicU64,
    /// Sources that exhausted every retry attempt in a round.
    pub source_failures: AtomicU64,
    /// Individual retry attempts after a transient monitor failure.
    pub retries: AtomicU64,
}

static ETL: EtlCounters = EtlCounters {
    refresh_rounds: AtomicU64::new(0),
    deltas: AtomicU64::new(0),
    upserts: AtomicU64::new(0),
    deletes: AtomicU64::new(0),
    source_failures: AtomicU64::new(0),
    retries: AtomicU64::new(0),
};

/// The process-global [`EtlCounters`].
pub fn etl_counters() -> &'static EtlCounters {
    &ETL
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn global_tracer_is_a_singleton() {
        let a = tracer() as *const Tracer;
        let b = tracer() as *const Tracer;
        assert_eq!(a, b);
    }

    #[test]
    fn etl_counters_accumulate() {
        let before = etl_counters().retries.load(Ordering::Relaxed);
        etl_counters().retries.fetch_add(3, Ordering::Relaxed);
        assert!(etl_counters().retries.load(Ordering::Relaxed) >= before + 3);
    }
}
