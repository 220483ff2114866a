//! Server-wide counters and latency histograms, surfaced through
//! `SHOW STATS` and `SHOW METRICS`.
//!
//! Everything here is lock-free (`AtomicU64`) so the hot query path never
//! serializes on the metrics registry. The histogram type itself lives in
//! [`genalg_obs`] (log₂ buckets, one `fetch_add` per sample); this module
//! owns the server's counters and folds them into the unified
//! [`Snapshot`] under the `<subsystem>_<name>` naming convention — a plain
//! lexicographic sort then groups `cache_*`, `query_*`, `server_*`, …
//! families together in both renderings.

pub use genalg_obs::Histogram;
use genalg_obs::Snapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// The server's metrics registry. One instance per [`crate::Server`]; shared
/// by every session and connection.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Queries that completed successfully (any language, any kind).
    pub queries_ok: AtomicU64,
    /// Queries that returned an error to the client.
    pub queries_err: AtomicU64,
    /// Requests rejected at admission: every permit out, every waiting
    /// place taken.
    pub rejected_busy: AtomicU64,
    /// Statements offered to the admission gate (admitted or shed). The
    /// gate's conservation law — checked by the load tests — is
    /// `jobs_submitted == jobs_completed + worker_panics + rejected_busy`
    /// once nothing is in flight.
    pub jobs_submitted: AtomicU64,
    /// Admitted statements that ran to completion without panicking.
    pub jobs_completed: AtomicU64,
    /// Transactions rolled back by the expired-transaction sweep (the
    /// owning session went quiet — shed with `Busy` mid-transaction,
    /// dropped its connection, or simply stopped talking).
    pub txn_reaped: AtomicU64,
    /// Queries that failed with a storage-level I/O error
    /// ([`unidb::DbError::Io`]) — disk faults, not client mistakes.
    pub io_errors: AtomicU64,
    /// Admitted statements that panicked (caught; the permit came back).
    pub worker_panics: AtomicU64,
    /// Plan-cache lookups that found a live prepared plan.
    pub plan_cache_hits: AtomicU64,
    /// Plan-cache lookups that had to parse + plan.
    pub plan_cache_misses: AtomicU64,
    /// Result-cache lookups answered without touching the engine.
    pub result_cache_hits: AtomicU64,
    /// Result-cache lookups that had to execute.
    pub result_cache_misses: AtomicU64,
    /// Callers currently waiting for an admission permit.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_peak: AtomicU64,
    /// Currently open sessions.
    pub active_sessions: AtomicU64,
    /// Latency of read statements (SELECT / EXPLAIN / SHOW).
    pub read_latency: Histogram,
    /// Latency of write statements (DML / DDL / transactions).
    pub write_latency: Histogram,
    /// Time each admitted statement waited for its permit (0 when one was
    /// free) — the saturation signal `queue_depth` only hints at.
    pub queue_wait: Histogram,
}

impl Metrics {
    /// A caller starts waiting: bump the queue-depth gauge and maintain its
    /// high-water mark.
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// A waiting caller got its permit.
    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fold every counter and histogram into `snap` under its exposition
    /// name. The service layer adds engine- and process-level families
    /// (`exec_*`, `wal_*`, `etl_*`, `obs_*`) on top.
    pub fn collect_into(&self, snap: &mut Snapshot) {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        snap.counter("query_ok", g(&self.queries_ok));
        snap.counter("query_err", g(&self.queries_err));
        snap.counter("server_rejected_busy", g(&self.rejected_busy));
        snap.counter("server_jobs_submitted", g(&self.jobs_submitted));
        snap.counter("server_jobs_completed", g(&self.jobs_completed));
        snap.counter("txn_reaped", g(&self.txn_reaped));
        snap.counter("server_io_errors", g(&self.io_errors));
        snap.counter("server_worker_panics", g(&self.worker_panics));
        snap.counter("cache_plan_hits", g(&self.plan_cache_hits));
        snap.counter("cache_plan_misses", g(&self.plan_cache_misses));
        snap.counter("cache_result_hits", g(&self.result_cache_hits));
        snap.counter("cache_result_misses", g(&self.result_cache_misses));
        snap.gauge("server_queue_depth", g(&self.queue_depth));
        snap.gauge("server_queue_peak", g(&self.queue_peak));
        snap.gauge("server_active_sessions", g(&self.active_sessions));
        snap.histogram("query_read_latency", self.read_latency.snapshot());
        snap.histogram("query_write_latency", self.write_latency.snapshot());
        snap.histogram("query_queue_wait", self.queue_wait.snapshot());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::default();
        for us in [1u64, 2, 4, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_us(), (1 + 2 + 4 + 100 + 1000) / 5);
        // p50 falls in the bucket holding the third sample (4 µs → 3 bits →
        // upper bound 7).
        assert_eq!(h.quantile_us(0.5), 7);
        assert!(h.quantile_us(1.0) >= 1000);
        assert_eq!(Histogram::default().quantile_us(0.5), 0);
    }

    #[test]
    fn histogram_zero_microsecond_samples_stay_in_bucket_zero() {
        let h = Histogram::default();
        h.record(Duration::from_nanos(400)); // rounds down to 0 µs
        h.record_us(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_us(), 0);
        // Every quantile of an all-zero histogram is the zero bucket.
        assert_eq!(h.quantile_us(0.0), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.quantile_us(1.0), 0);
    }

    #[test]
    fn histogram_single_sample_dominates_every_quantile() {
        let h = Histogram::default();
        h.record_us(10); // 4 significant bits → bucket upper bound 15
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 15, "q={q}");
        }
    }

    #[test]
    fn histogram_quantile_extremes_clamp() {
        let h = Histogram::default();
        h.record_us(1);
        h.record_us(1000); // 10 bits → upper bound 1023
                           // q below 0 clamps to the first sample's bucket, q above 1 to the
                           // last — out-of-range inputs never panic or index out of bounds.
        assert_eq!(h.quantile_us(-3.0), 1);
        assert_eq!(h.quantile_us(0.0), 1);
        assert_eq!(h.quantile_us(1.0), 1023);
        assert_eq!(h.quantile_us(7.5), 1023);
    }

    #[test]
    fn histogram_top_bucket_saturates_not_overflows() {
        let h = Histogram::default();
        // Anything with ≥ 31 significant bits lands in the open-ended top
        // bucket; its quantile reports u64::MAX (rendered +Inf).
        h.record_us(u64::MAX);
        h.record(Duration::from_secs(40_000_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.5), u64::MAX);
        assert_eq!(h.quantile_us(1.0), u64::MAX);
    }

    #[test]
    fn queue_gauge_tracks_peak() {
        let m = Metrics::default();
        m.enqueue();
        m.enqueue();
        m.dequeue();
        m.enqueue();
        let mut snap = Snapshot::new();
        m.collect_into(&mut snap);
        let rows = snap.stats_rows();
        let get = |k: &str| rows.iter().find(|(n, _)| n == k).unwrap().1;
        assert_eq!(get("server_queue_depth"), 2);
        assert_eq!(get("server_queue_peak"), 2);
    }
}
