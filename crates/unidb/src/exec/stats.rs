//! Per-operator runtime counters for `EXPLAIN ANALYZE`.
//!
//! A stats tree mirrors the [`PhysicalPlan`] shape one node per operator.
//! Each counter is an `AtomicU64` the operator holding its node adds to;
//! `rows_out`, `pages_read` and the other counters are pure functions of
//! the plan and the data for plans that drain their input.
//!
//! `time_us` varies run to run, and `batches` follows the executor's
//! batching rather than the query (a SeqScan emits one batch per
//! `MORSEL_PAGES` page range). [`OpStatsSnapshot::render_counters`]
//! therefore exposes only the stable subset, and the golden tests compare
//! that rendering.

use crate::plan::PhysicalPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live counters for one operator while a plan executes.
#[derive(Debug)]
pub struct OpStats {
    /// The operator's `EXPLAIN` label ([`PhysicalPlan::node_label`]).
    pub label: String,
    /// True for heap-scanning operators (`SeqScan`), whose rendering
    /// includes `pages_read`.
    pub is_scan: bool,
    /// True for hash-table operators (`HashJoin`, `Aggregate`), whose
    /// rendering includes `partitions`.
    pub has_partitions: bool,
    /// True for build/probe operators (`HashJoin`), whose rendering
    /// includes `build_rows`.
    pub has_build: bool,
    /// Rows emitted by this operator.
    pub rows_out: AtomicU64,
    /// Batches emitted.
    pub batches: AtomicU64,
    /// Inclusive wall time spent inside `next_batch` (children included).
    pub time_us: AtomicU64,
    /// Heap pages read (scans only).
    pub pages_read: AtomicU64,
    /// Pages the zone map refuted before reading (scans only). A pure
    /// function of the stored data and the predicate, so it belongs to
    /// the deterministic rendering.
    pub pages_skipped: AtomicU64,
    /// Columns read across visited pages (scans only): decoded from the
    /// row form or served from a column image.
    /// Counted identically on the row and columnar paths — referenced
    /// columns × non-empty pages visited — so it too is deterministic.
    pub segments_decoded: AtomicU64,
    /// Hash tables the operator built (hash-table operators only): one —
    /// its key table — so it belongs to the deterministic rendering.
    pub partitions: AtomicU64,
    /// Rows materialized on the build side (hash joins only).
    pub build_rows: AtomicU64,
    /// Child operators, in plan order.
    pub children: Vec<Arc<OpStats>>,
}

impl OpStats {
    /// A point-in-time copy of the whole tree.
    pub fn snapshot(&self) -> OpStatsSnapshot {
        OpStatsSnapshot {
            label: self.label.clone(),
            is_scan: self.is_scan,
            has_partitions: self.has_partitions,
            has_build: self.has_build,
            rows_out: self.rows_out.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            time_us: self.time_us.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
            segments_decoded: self.segments_decoded.load(Ordering::Relaxed),
            partitions: self.partitions.load(Ordering::Relaxed),
            build_rows: self.build_rows.load(Ordering::Relaxed),
            children: self.children.iter().map(|c| c.snapshot()).collect(),
        }
    }
}

/// Build the zeroed stats tree mirroring `plan`.
pub fn stats_tree(plan: &PhysicalPlan) -> Arc<OpStats> {
    Arc::new(OpStats {
        label: plan.node_label(),
        is_scan: matches!(plan, PhysicalPlan::SeqScan { .. }),
        has_partitions: matches!(
            plan,
            PhysicalPlan::HashJoin { .. } | PhysicalPlan::Aggregate { .. }
        ),
        has_build: matches!(plan, PhysicalPlan::HashJoin { .. }),
        rows_out: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        time_us: AtomicU64::new(0),
        pages_read: AtomicU64::new(0),
        pages_skipped: AtomicU64::new(0),
        segments_decoded: AtomicU64::new(0),
        partitions: AtomicU64::new(0),
        build_rows: AtomicU64::new(0),
        children: plan.children().into_iter().map(stats_tree).collect(),
    })
}

/// Plain-integer copy of an [`OpStats`] tree after execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStatsSnapshot {
    /// The operator's `EXPLAIN` label.
    pub label: String,
    /// True for heap-scanning operators.
    pub is_scan: bool,
    /// True for hash-table operators.
    pub has_partitions: bool,
    /// True for build/probe operators.
    pub has_build: bool,
    /// Rows emitted by this operator.
    pub rows_out: u64,
    /// Batches emitted.
    pub batches: u64,
    /// Inclusive wall time inside `next_batch`, microseconds.
    pub time_us: u64,
    /// Heap pages read (scans only).
    pub pages_read: u64,
    /// Pages the zone map refuted before reading (scans only).
    pub pages_skipped: u64,
    /// Columns read across visited pages (scans only): decoded from the
    /// row form or served from a column image.
    pub segments_decoded: u64,
    /// Hash tables the operator built (hash-table operators only).
    pub partitions: u64,
    /// Rows materialized on the build side (hash joins only).
    pub build_rows: u64,
    /// Child operators, in plan order.
    pub children: Vec<OpStatsSnapshot>,
}

impl OpStatsSnapshot {
    /// The annotated plan tree `EXPLAIN ANALYZE` prints: every counter,
    /// including the timing ones that vary run to run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, true);
        out
    }

    /// The deterministic subset (`rows_out`, plus `pages_read` on scans
    /// and `partitions`/`build_rows` on hash-table operators): identical
    /// across runs for plans that drain their input. Golden tests compare
    /// this rendering.
    pub fn render_counters(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0, false);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize, timing: bool) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label);
        out.push_str(&format!(" (rows_out={}", self.rows_out));
        if self.has_partitions {
            out.push_str(&format!(" partitions={}", self.partitions));
        }
        if self.has_build {
            out.push_str(&format!(" build_rows={}", self.build_rows));
        }
        if timing {
            out.push_str(&format!(" batches={} time_us={}", self.batches, self.time_us));
        }
        if self.is_scan {
            out.push_str(&format!(
                " pages_read={} pages_skipped={} segments_decoded={}",
                self.pages_read, self.pages_skipped, self.segments_decoded
            ));
        }
        out.push(')');
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1, timing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_mirrors_plan_shape() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Distinct { input: Box::new(PhysicalPlan::Nothing) }),
            n: Some(3),
            offset: 0,
        };
        let stats = stats_tree(&plan);
        assert_eq!(stats.label, "Limit 3");
        assert_eq!(stats.children.len(), 1);
        assert_eq!(stats.children[0].label, "Distinct");
        assert_eq!(stats.children[0].children[0].label, "Nothing");
        assert!(!stats.is_scan);
    }

    #[test]
    fn renderings_differ_only_in_timing_fields() {
        let stats = stats_tree(&PhysicalPlan::Nothing);
        stats.rows_out.store(5, Ordering::Relaxed);
        stats.batches.store(2, Ordering::Relaxed);
        stats.time_us.store(99, Ordering::Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.render(), "Nothing (rows_out=5 batches=2 time_us=99)\n");
        assert_eq!(snap.render_counters(), "Nothing (rows_out=5)\n");
    }

    #[test]
    fn scan_counters_render_pruning_fields() {
        let stats = OpStats {
            label: "SeqScan t".into(),
            is_scan: true,
            has_partitions: false,
            has_build: false,
            rows_out: AtomicU64::new(12),
            batches: AtomicU64::new(1),
            time_us: AtomicU64::new(8),
            pages_read: AtomicU64::new(10),
            pages_skipped: AtomicU64::new(7),
            segments_decoded: AtomicU64::new(6),
            partitions: AtomicU64::new(0),
            build_rows: AtomicU64::new(0),
            children: Vec::new(),
        };
        let snap = stats.snapshot();
        assert_eq!(
            snap.render_counters(),
            "SeqScan t (rows_out=12 pages_read=10 pages_skipped=7 segments_decoded=6)\n"
        );
        assert_eq!(
            snap.render(),
            "SeqScan t (rows_out=12 batches=1 time_us=8 pages_read=10 pages_skipped=7 segments_decoded=6)\n"
        );
    }

    #[test]
    fn partition_counters_appear_in_both_renderings() {
        let stats = OpStats {
            label: "HashJoin a = b build=right".into(),
            is_scan: false,
            has_partitions: true,
            has_build: true,
            rows_out: AtomicU64::new(7),
            batches: AtomicU64::new(1),
            time_us: AtomicU64::new(3),
            pages_read: AtomicU64::new(0),
            pages_skipped: AtomicU64::new(0),
            segments_decoded: AtomicU64::new(0),
            partitions: AtomicU64::new(4),
            build_rows: AtomicU64::new(100),
            children: Vec::new(),
        };
        let snap = stats.snapshot();
        assert_eq!(
            snap.render_counters(),
            "HashJoin a = b build=right (rows_out=7 partitions=4 build_rows=100)\n"
        );
        assert_eq!(
            snap.render(),
            "HashJoin a = b build=right (rows_out=7 partitions=4 build_rows=100 batches=1 time_us=3)\n"
        );
    }
}
