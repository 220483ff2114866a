//! Query fingerprints: per-shape workload statistics and a plan-change
//! audit log.
//!
//! A *fingerprint* is a statement's shape: its text with every literal
//! replaced by `?`, so `select v from hot where k = 17` and
//! `select v from hot where k = 903` collapse into one workload entry.
//! The server renders the shape from the statement's tokens; the registry
//! keys on the text it is given and knows no SQL. It keeps, per
//! fingerprint: execution and error counts, a latency histogram, which
//! cache tier answered, and cumulative resource attribution (rows out,
//! pages read/skipped, queue wait), and is rendered as `SHOW WORKLOAD`.
//!
//! The registry is deliberately *first-come bounded*: once `capacity`
//! distinct fingerprints are registered, later ones only bump an overflow
//! counter instead of evicting. Eviction order would depend on arrival
//! interleaving, and the fingerprint set must be a pure function of the
//! statement stream — that determinism is what the repeated-run
//! differential test pins.
//!
//! The plan-audit half answers "did the planner change its mind, and
//! why": every executed plan is observed with its hash, row estimate, and
//! the stats/catalog generations it was built under; when a fingerprint's
//! plan hash flips, a bounded audit ring records the before/after pair.
//! `SHOW PLAN CHANGES` renders the ring.

use crate::hist::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable 64-bit FNV-1a of the fingerprint text, rendered as 16 hex
/// digits — the short id `SHOW WORKLOAD` and Prometheus labels carry.
pub fn fingerprint_id(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Which cache tier answered a statement (mirrors the server's labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Served straight from the result cache.
    Result,
    /// Plan cache hit, executed.
    Plan,
    /// Planned from scratch, executed.
    Miss,
    /// Uncached path: an autocommit statement other than a SELECT
    /// (writes, DDL, EXPLAIN), or text that does not lex.
    Bypass,
    /// Ran inside an interactive transaction (caches bypassed by design).
    Txn,
}

impl CacheTier {
    /// The label the server's slow-query log uses.
    pub fn label(self) -> &'static str {
        match self {
            CacheTier::Result => "result",
            CacheTier::Plan => "plan",
            CacheTier::Miss => "miss",
            CacheTier::Bypass => "bypass",
            CacheTier::Txn => "txn",
        }
    }

    /// Parse a server cache label; unknown labels count as `Bypass`.
    pub fn from_label(label: &str) -> CacheTier {
        match label {
            "result" => CacheTier::Result,
            "plan" => CacheTier::Plan,
            "miss" => CacheTier::Miss,
            "txn" => CacheTier::Txn,
            _ => CacheTier::Bypass,
        }
    }
}

/// One statement execution, as reported to [`FingerprintRegistry::record`].
#[derive(Debug, Clone)]
pub struct Execution<'a> {
    /// The statement's shape, literals already replaced; the registry keys
    /// on it as given.
    pub normalized: &'a str,
    /// End-to-end service latency in microseconds.
    pub latency_us: u64,
    /// Did the statement succeed?
    pub ok: bool,
    /// Which cache tier answered.
    pub tier: CacheTier,
    /// Rows returned (reads) or affected (writes).
    pub rows_out: u64,
    /// Heap pages read while this statement ran (global-counter delta, so
    /// approximate under concurrency — documented as attribution, not truth).
    pub pages_read: u64,
    /// Heap pages zone maps skipped while this statement ran (same caveat).
    pub pages_skipped: u64,
    /// Time the request sat in the admission queue, microseconds.
    pub queue_wait_us: u64,
}

/// Live per-fingerprint accumulators. Lock-free after registration.
#[derive(Debug, Default)]
struct Entry {
    executions: AtomicU64,
    errors: AtomicU64,
    latency: Histogram,
    tier_result: AtomicU64,
    tier_plan: AtomicU64,
    tier_miss: AtomicU64,
    tier_bypass: AtomicU64,
    tier_txn: AtomicU64,
    rows_out: AtomicU64,
    pages_read: AtomicU64,
    pages_skipped: AtomicU64,
    queue_wait_us: AtomicU64,
    /// Hash of the most recently observed plan (0 = none yet).
    plan_hash: AtomicU64,
    /// Root-operator label of the most recent plan.
    plan_label: Mutex<String>,
    /// Planner row estimate of the most recent plan.
    plan_est_rows: AtomicU64,
    /// Stats generation the most recent plan was built under.
    plan_stats_gen: AtomicU64,
}

/// Point-in-time copy of one fingerprint's statistics.
#[derive(Debug, Clone)]
pub struct FingerprintStats {
    /// 16-hex-digit stable id.
    pub id: String,
    /// The fingerprint text (normalized SQL with `?` placeholders).
    pub text: String,
    pub executions: u64,
    pub errors: u64,
    pub latency: HistogramSnapshot,
    /// Executions answered by each cache tier, in
    /// result/plan/miss/bypass/txn order.
    pub tiers: [u64; 5],
    pub rows_out: u64,
    pub pages_read: u64,
    pub pages_skipped: u64,
    pub queue_wait_us: u64,
    /// Most recently observed plan hash (0 if the shape never planned).
    pub plan_hash: u64,
    /// Root-operator label of the most recent plan (empty if never planned).
    pub plan_label: String,
}

/// One recorded plan flip for a fingerprint.
#[derive(Debug, Clone)]
pub struct PlanChange {
    /// Monotonic sequence number (1-based) across all changes.
    pub seq: u64,
    /// Fingerprint id the flip belongs to.
    pub fingerprint: String,
    /// Fingerprint text, for readability in audit output.
    pub text: String,
    pub before_hash: u64,
    pub after_hash: u64,
    /// Planner row estimates before/after.
    pub before_est_rows: u64,
    pub after_est_rows: u64,
    /// Root-operator labels before/after.
    pub before_label: String,
    pub after_label: String,
    /// Stats generation (drift-rebuild counter) the new plan saw.
    pub stats_generation: u64,
    /// Catalog generation the new plan was built under.
    pub catalog_generation: u64,
}

/// Bounded, first-come registry of query fingerprints plus the plan-change
/// audit ring.
#[derive(Debug)]
pub struct FingerprintRegistry {
    entries: Mutex<HashMap<String, Arc<Entry>>>,
    capacity: usize,
    overflow: AtomicU64,
    audit: Mutex<VecDeque<PlanChange>>,
    audit_capacity: usize,
    plan_changes: AtomicU64,
}

impl FingerprintRegistry {
    /// A registry holding at most `capacity` fingerprints and
    /// `audit_capacity` plan-change entries.
    pub fn new(capacity: usize, audit_capacity: usize) -> Self {
        FingerprintRegistry {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            overflow: AtomicU64::new(0),
            audit: Mutex::new(VecDeque::new()),
            audit_capacity: audit_capacity.max(1),
            plan_changes: AtomicU64::new(0),
        }
    }

    /// The entry for `fp`, registering it if there is room. `None` means
    /// the registry is full and this shape is unregistered; an execution
    /// (`counted`) that finds it so bumps the overflow counter.
    fn entry(&self, fp: &str, counted: bool) -> Option<Arc<Entry>> {
        let mut entries = self.entries.lock();
        if let Some(e) = entries.get(fp) {
            return Some(Arc::clone(e));
        }
        if entries.len() >= self.capacity {
            self.overflow.fetch_add(u64::from(counted), Ordering::Relaxed);
            return None;
        }
        let e = Arc::new(Entry::default());
        entries.insert(fp.to_string(), Arc::clone(&e));
        Some(e)
    }

    /// Record one execution. The map lock is held only to resolve the
    /// entry; all accumulation is atomic.
    pub fn record(&self, exec: &Execution<'_>) {
        let Some(e) = self.entry(exec.normalized, true) else { return };
        e.executions.fetch_add(1, Ordering::Relaxed);
        if !exec.ok {
            e.errors.fetch_add(1, Ordering::Relaxed);
        }
        e.latency.record_us(exec.latency_us);
        let tier = match exec.tier {
            CacheTier::Result => &e.tier_result,
            CacheTier::Plan => &e.tier_plan,
            CacheTier::Miss => &e.tier_miss,
            CacheTier::Bypass => &e.tier_bypass,
            CacheTier::Txn => &e.tier_txn,
        };
        tier.fetch_add(1, Ordering::Relaxed);
        e.rows_out.fetch_add(exec.rows_out, Ordering::Relaxed);
        e.pages_read.fetch_add(exec.pages_read, Ordering::Relaxed);
        e.pages_skipped.fetch_add(exec.pages_skipped, Ordering::Relaxed);
        e.queue_wait_us.fetch_add(exec.queue_wait_us, Ordering::Relaxed);
    }

    /// Observe the plan chosen for shape `fp` on this execution. The first
    /// observation just seeds the entry; a later observation whose
    /// `plan_hash` differs records a [`PlanChange`] carrying both sides
    /// and the stats/catalog generations that triggered the rebuild. Only
    /// [`FingerprintRegistry::record`] counts overflow, so each execution
    /// counts once.
    #[allow(clippy::too_many_arguments)]
    pub fn observe_plan(
        &self,
        fp: &str,
        plan_hash: u64,
        plan_label: &str,
        est_rows: u64,
        stats_generation: u64,
        catalog_generation: u64,
    ) {
        let Some(e) = self.entry(fp, false) else { return };
        let prev = e.plan_hash.swap(plan_hash, Ordering::AcqRel);
        let prev_est = e.plan_est_rows.swap(est_rows, Ordering::AcqRel);
        e.plan_stats_gen.store(stats_generation, Ordering::Relaxed);
        let prev_label = {
            let mut label = e.plan_label.lock();
            std::mem::replace(&mut *label, plan_label.to_string())
        };
        if prev == 0 || prev == plan_hash {
            return;
        }
        let seq = self.plan_changes.fetch_add(1, Ordering::Relaxed) + 1;
        let change = PlanChange {
            seq,
            fingerprint: fingerprint_id(fp),
            text: fp.to_string(),
            before_hash: prev,
            after_hash: plan_hash,
            before_est_rows: prev_est,
            after_est_rows: est_rows,
            before_label: prev_label,
            after_label: plan_label.to_string(),
            stats_generation,
            catalog_generation,
        };
        let mut audit = self.audit.lock();
        if audit.len() >= self.audit_capacity {
            audit.pop_front();
        }
        audit.push_back(change);
    }

    /// Every registered fingerprint, sorted by execution count descending
    /// then fingerprint text — a deterministic ordering for rendering.
    pub fn snapshot(&self) -> Vec<FingerprintStats> {
        let entries: Vec<(String, Arc<Entry>)> =
            self.entries.lock().iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        let mut out: Vec<FingerprintStats> = entries
            .into_iter()
            .map(|(text, e)| FingerprintStats {
                id: fingerprint_id(&text),
                text,
                executions: e.executions.load(Ordering::Relaxed),
                errors: e.errors.load(Ordering::Relaxed),
                latency: e.latency.snapshot(),
                tiers: [
                    e.tier_result.load(Ordering::Relaxed),
                    e.tier_plan.load(Ordering::Relaxed),
                    e.tier_miss.load(Ordering::Relaxed),
                    e.tier_bypass.load(Ordering::Relaxed),
                    e.tier_txn.load(Ordering::Relaxed),
                ],
                rows_out: e.rows_out.load(Ordering::Relaxed),
                pages_read: e.pages_read.load(Ordering::Relaxed),
                pages_skipped: e.pages_skipped.load(Ordering::Relaxed),
                queue_wait_us: e.queue_wait_us.load(Ordering::Relaxed),
                plan_hash: e.plan_hash.load(Ordering::Relaxed),
                plan_label: e.plan_label.lock().clone(),
            })
            .collect();
        out.sort_by(|a, b| b.executions.cmp(&a.executions).then_with(|| a.text.cmp(&b.text)));
        out
    }

    /// The `k` hottest fingerprints by execution count.
    pub fn top(&self, k: usize) -> Vec<FingerprintStats> {
        let mut all = self.snapshot();
        all.truncate(k);
        all
    }

    /// The plan-change audit ring, oldest first.
    pub fn plan_changes(&self) -> Vec<PlanChange> {
        self.audit.lock().iter().cloned().collect()
    }

    /// Total plan flips observed (including ones the ring has dropped).
    pub fn plan_change_count(&self) -> u64 {
        self.plan_changes.load(Ordering::Relaxed)
    }

    /// Distinct fingerprints currently registered.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no fingerprint has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Executions whose fingerprint was dropped because the registry was
    /// full.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_id_is_stable_and_hex() {
        let a = fingerprint_id("select ?");
        assert_eq!(a, fingerprint_id("select ?"));
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a, fingerprint_id("select ?, ?"));
    }

    #[test]
    fn registry_accumulates_per_fingerprint() {
        let reg = FingerprintRegistry::new(8, 8);
        for k in [1, 2, 3] {
            reg.record(&Execution {
                normalized: "select v from hot where k = ?",
                latency_us: 100 * k,
                ok: k != 3,
                tier: if k == 1 { CacheTier::Miss } else { CacheTier::Result },
                rows_out: 1,
                pages_read: 2,
                pages_skipped: 1,
                queue_wait_us: 10,
            });
        }
        reg.record(&Execution {
            normalized: "select count(*) from hot",
            latency_us: 5,
            ok: true,
            tier: CacheTier::Bypass,
            rows_out: 1,
            pages_read: 0,
            pages_skipped: 0,
            queue_wait_us: 0,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        // Hottest first.
        assert_eq!(snap[0].text, "select v from hot where k = ?");
        assert_eq!(snap[0].executions, 3);
        assert_eq!(snap[0].errors, 1);
        assert_eq!(snap[0].tiers, [2, 0, 1, 0, 0]);
        assert_eq!(snap[0].rows_out, 3);
        assert_eq!(snap[0].pages_read, 6);
        assert_eq!(snap[0].queue_wait_us, 30);
        assert_eq!(snap[0].latency.count, 3);
        assert_eq!(snap[1].executions, 1);
    }

    #[test]
    fn full_registry_counts_overflow_instead_of_evicting() {
        let reg = FingerprintRegistry::new(2, 8);
        for sql in ["select a", "select b", "select c", "select c"] {
            // Observing a plan is part of the same execution: not counted.
            reg.observe_plan(sql, 1, "SeqScan(t)", 1, 0, 1);
            reg.record(&Execution {
                normalized: sql,
                latency_us: 1,
                ok: true,
                tier: CacheTier::Bypass,
                rows_out: 0,
                pages_read: 0,
                pages_skipped: 0,
                queue_wait_us: 0,
            });
        }
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.overflow(), 2);
        let texts: Vec<String> = reg.snapshot().into_iter().map(|s| s.text).collect();
        assert!(texts.iter().any(|t| t == "select a") && texts.iter().any(|t| t == "select b"));
    }

    #[test]
    fn plan_flip_records_an_audit_entry() {
        let reg = FingerprintRegistry::new(8, 2);
        let sql = "select v from hot where k = 7";
        // First observation seeds, same hash is quiet.
        reg.observe_plan(sql, 0xaaaa, "SeqScan(hot)", 100, 0, 1);
        reg.observe_plan(sql, 0xaaaa, "SeqScan(hot)", 100, 0, 1);
        assert_eq!(reg.plan_change_count(), 0);
        // A different hash is a flip.
        reg.observe_plan(sql, 0xbbbb, "IndexEqScan(hot.k)", 1, 3, 2);
        assert_eq!(reg.plan_change_count(), 1);
        let changes = reg.plan_changes();
        assert_eq!(changes.len(), 1);
        let c = &changes[0];
        assert_eq!(c.seq, 1);
        assert_eq!((c.before_hash, c.after_hash), (0xaaaa, 0xbbbb));
        assert_eq!((c.before_est_rows, c.after_est_rows), (100, 1));
        assert_eq!(c.before_label, "SeqScan(hot)");
        assert_eq!(c.after_label, "IndexEqScan(hot.k)");
        assert_eq!(c.stats_generation, 3);
        assert_eq!(c.catalog_generation, 2);
        // The ring is bounded: two more flips drop the oldest.
        reg.observe_plan(sql, 0xcccc, "SeqScan(hot)", 50, 3, 3);
        reg.observe_plan(sql, 0xdddd, "IndexEqScan(hot.k)", 2, 3, 4);
        assert_eq!(reg.plan_change_count(), 3);
        let changes = reg.plan_changes();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].seq, 2);
        assert_eq!(changes[1].seq, 3);
    }

    #[test]
    fn same_stream_yields_same_fingerprint_set_regardless_of_interleaving() {
        // Two registries fed the same statements in different orders must
        // register the same set (first-come capping is order-independent
        // as long as every shape appears before the cap is hit).
        let stmts = ["select a from t where x = 1", "select b from t where y = 2"];
        let a = FingerprintRegistry::new(8, 8);
        let b = FingerprintRegistry::new(8, 8);
        for s in stmts.iter() {
            a.record(&Execution {
                normalized: s,
                latency_us: 0,
                ok: true,
                tier: CacheTier::Miss,
                rows_out: 0,
                pages_read: 0,
                pages_skipped: 0,
                queue_wait_us: 0,
            });
        }
        for s in stmts.iter().rev() {
            b.record(&Execution {
                normalized: s,
                latency_us: 0,
                ok: true,
                tier: CacheTier::Miss,
                rows_out: 0,
                pages_read: 0,
                pages_skipped: 0,
                queue_wait_us: 0,
            });
        }
        let ids = |r: &FingerprintRegistry| {
            let mut v: Vec<String> = r.snapshot().into_iter().map(|s| s.id).collect();
            v.sort();
            v
        };
        assert_eq!(ids(&a), ids(&b));
    }
}
