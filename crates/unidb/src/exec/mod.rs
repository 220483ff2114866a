//! Plan execution: a pull-based, batched engine.
//!
//! Every operator implements `BatchIter` and pulls ~[`BATCH_ROWS`]-row
//! batches from its input, so Scan→Filter→Project pipelines stream and
//! `LIMIT` stops pulling as soon as its window is full (unless a fallible
//! expression downstream means early exit could change which queries
//! error — then it drains). A batch is one allocation (`Batch`): `width`
//! datums per row, row after row, read as `&[Datum]`. Scans move decoded
//! values straight into it, filters compact it in place, projections and
//! joins append to one buffer, and `Vec<Row>` is built once, at the root.
//! Pipeline breakers (Sort, TopN, Aggregate, the join build sides) still
//! buffer what they must, and nothing more: `Sort+LIMIT` arrives here
//! pre-fused into [`PhysicalPlan::TopN`], whose bounded heap never holds
//! more than `offset + n` rows.
//!
//! Rows carry only the columns someone reads. `build_iter` hands each
//! operator the binding positions that it or its consumers read (its
//! *need*) and gets back, with the operator, its *layout*: the ascending
//! binding positions its rows hold. A SeqScan decodes its need plus its
//! residual's columns (its [`ScanSpec`]), filters on the decode scratch
//! and emits only its need; Filter, Sort, TopN, Limit and Distinct pass
//! their input's layout on; a join concatenates its inputs' layouts; every
//! other operator emits all of its bindings. A parent compiles against the
//! full bindings — resolution errors are the plan's — and remaps the
//! column positions through its input's layout ([`CompiledExpr::remap`]).
//!
//! All expressions are lowered to [`CompiledExpr`] when the operator tree
//! is built — before the first row flows — so per-row evaluation does no
//! name resolution, and unknown/ambiguous column errors surface at plan
//! time.
//!
//! Expressions read columns and literals in place ([`CompiledExpr::eval`]
//! borrows them), so a filter, a join key or an aggregate argument copies
//! nothing it only looks at.
//!
//! A statement runs entirely on the thread that calls [`execute_plan`]:
//! each SeqScan `next_batch` reads one [`MORSEL_PAGES`] range (filter and
//! projection run inside it when fused), and every other operator works on
//! the batches it pulls. Concurrency is between statements — the server
//! bounds how many run at once — not within one.

pub mod stats;

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::compile::{compile, infallible, CompiledExpr};
use crate::expr::func::FunctionRegistry;
use crate::fxhash::{hash_one, FxHashMap};
use crate::plan::{AggCall, PhysicalPlan};
use crate::sql::ast::{Expr, JoinKind};
use crate::storage::colpage::ColBound;
use crate::storage::heap::Rid;
use crate::tuple::Row;
use stats::{stats_tree, OpStats, OpStatsSnapshot};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashSet};
use std::ops::Bound;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

/// Target rows per batch pulled through the operator tree.
pub const BATCH_ROWS: usize = 1024;
/// Heap pages a SeqScan reads per batch.
pub const MORSEL_PAGES: u32 = 32;

/// The storage operations the executor needs; implemented by the engine.
pub trait StorageAccess {
    /// Stream the decoded rows of up to `max_pages` heap pages starting at
    /// `first_page` into `on_row`, returning the page to continue from and
    /// how many pages the range covered. A range past the end visits
    /// nothing and reports no next page. The [`ScanSpec`]
    /// says which columns the caller reads (fields past `prefix` are not
    /// deserialized, masked-out ones arrive as `Datum::Null`) and carries
    /// the predicate bounds a page-level zone map may refute without
    /// reading the page. Each row arrives in a reused decode scratch that
    /// `on_row` may move values out of: the scan refills it for the next
    /// row, so a kept row is never cloned.
    fn scan_batches(
        &self,
        table_id: u32,
        first_page: u32,
        max_pages: u32,
        spec: &ScanSpec,
        on_row: &mut dyn FnMut(&mut Row) -> DbResult<()>,
    ) -> DbResult<ScanProgress>;
    /// Fetch specific rows (missing rids are skipped).
    fn fetch_rids(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<Row>>;
    /// Rids with `column == key` from the B-tree index.
    fn btree_eq(&self, table_id: u32, column: &str, key: &Datum) -> DbResult<Vec<Rid>>;
    /// Rids with `column` in the given range.
    fn btree_range(
        &self,
        table_id: u32,
        column: &str,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> DbResult<Vec<Rid>>;
    /// Candidate rids from a user-defined index probe.
    fn udi_probe(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> DbResult<Vec<Rid>>;
}

/// What a scan reads of each row, built once per scan iterator by
/// `scan_spec` from the columns its consumers and residual read.
#[derive(Debug, Clone, Default)]
pub struct ScanSpec {
    /// Columns `0..prefix` are decoded: the highest position read, plus
    /// one.
    pub prefix: usize,
    /// Within the prefix, which columns are actually referenced. `None`
    /// means all of them; with a mask, unreferenced positions are skipped
    /// during decode and surface as `Datum::Null` placeholders.
    pub mask: Option<Vec<bool>>,
    /// Per-column bounds extracted from the residual filter for zone-map
    /// pruning. Empty unless the *whole* filter is error-free: skipping a
    /// page must never skip an evaluation error the engine mandates.
    pub bounds: Vec<ColBound>,
}

/// Binding positions of an operator that it or its consumers read.
type Need = BTreeSet<usize>;

/// The binding positions an operator's rows hold, ascending: row value `i`
/// is binding `layout[i]`. It always covers the operator's need.
type Layout = Vec<usize>;

/// Every binding position of `plan`: what the root and `DISTINCT` read.
fn all_columns(plan: &PhysicalPlan) -> Need {
    (0..plan.bindings().len()).collect()
}

/// A join's layout: the left input's, then the right input's past the left
/// bindings.
fn concat(mut left: Layout, right: Layout, left_width: usize) -> Layout {
    left.extend(right.into_iter().map(|c| c + left_width));
    left
}

/// `need` plus every position `exprs` read.
fn reading<'e>(mut need: Need, exprs: impl IntoIterator<Item = &'e CompiledExpr>) -> Need {
    for e in exprs {
        e.collect_columns(&mut need);
    }
    need
}

/// A join's need, split at the left input's width into each side's own
/// positions.
fn split_need(need: &Need, left_width: usize) -> (Need, Need) {
    let left = need.range(..left_width).copied().collect();
    (left, need.range(left_width..).map(|c| c - left_width).collect())
}

/// The scan spec for a SeqScan whose consumers and residual read `need`.
fn scan_spec(need: &Need, filter: &Option<CompiledExpr>) -> ScanSpec {
    let prefix = need.last().map_or(0, |m| m + 1);
    // A mask that keeps every prefix column is just a prefix decode; leave
    // it off so the scan takes the branch-free dense loop.
    // `segments_decoded` counts the same either way.
    let mask = (need.len() < prefix).then(|| (0..prefix).map(|c| need.contains(&c)).collect());
    // Pruning is only sound when the *whole* filter is guaranteed
    // error-free: a skipped page must not swallow a runtime error
    // (division by zero, type mismatch) the engine is required to raise.
    let bounds = match filter {
        Some(f) if f.error_free() => f.zone_bounds(),
        _ => Vec::new(),
    };
    ScanSpec { prefix, mask, bounds }
}

/// The outcome of one [`StorageAccess::scan_batches`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanProgress {
    /// Page to continue from; `None` once the heap is exhausted.
    pub next_page: Option<u32>,
    /// Pages the call's range covered (0 for a range past the end),
    /// *including* zone-refuted pages — the legacy meaning of "pages this
    /// scan examined".
    pub pages_read: u32,
    /// Pages within the range the zone map refuted without reading.
    pub pages_skipped: u32,
    /// Columns read: referenced columns × pages with at least one live
    /// row — decoded on the row path, served on the column-image path —
    /// identical on both.
    pub segments_decoded: u64,
}

/// Execute a plan to completion, collecting every emitted batch.
pub fn execute_plan(
    storage: &dyn StorageAccess,
    funcs: &FunctionRegistry,
    plan: &PhysicalPlan,
) -> DbResult<Vec<Row>> {
    let mut query_span = genalg_obs::tracer().span("exec.query");
    let (it, _) = build_iter(storage, funcs, plan, all_columns(plan), None, query_span.id())?;
    let out = collect_rows(it)?;
    query_span.field("rows", out.len());
    Ok(out)
}

/// Execute a plan to completion while attributing per-operator runtime
/// counters (`EXPLAIN ANALYZE`). Returns the rows plus the annotated
/// stats tree mirroring the plan.
pub fn execute_plan_with_stats(
    storage: &dyn StorageAccess,
    funcs: &FunctionRegistry,
    plan: &PhysicalPlan,
) -> DbResult<(Vec<Row>, OpStatsSnapshot)> {
    let mut query_span = genalg_obs::tracer().span("exec.query");
    let root = stats_tree(plan);
    let need = all_columns(plan);
    let (it, _) = build_iter(storage, funcs, plan, need, Some(&root), query_span.id())?;
    let out = collect_rows(it)?;
    query_span.field("rows", out.len());
    Ok((out, root.snapshot()))
}

/// Run the root operator to exhaustion: the one place rows become
/// `Vec<Row>`s. The operator tree is dropped (recording its spans) before
/// this returns.
fn collect_rows(mut it: BoxIter<'_>) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = it.next_batch()? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// Rows in one allocation: `width` datums per row, row after row. The row
/// count is kept beside the data because a zero-width row (the one
/// [`PhysicalPlan::Nothing`] emits) occupies no datums.
#[derive(Default)]
struct Batch {
    data: Vec<Datum>,
    width: usize,
    rows: usize,
}

impl Batch {
    fn with_capacity(width: usize, rows: usize) -> Batch {
        Batch { data: Vec::with_capacity(width * rows), width, rows: 0 }
    }

    fn len(&self) -> usize {
        self.rows
    }

    fn row(&self, i: usize) -> &[Datum] {
        &self.data[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[Datum]> {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Close the row just appended to `data`, padding it to the width with
    /// NULLs: the null side of a LEFT join's unmatched row.
    fn end_row(&mut self) {
        self.rows += 1;
        debug_assert!(self.data.len() <= self.rows * self.width, "row wider than its batch");
        self.data.resize(self.rows * self.width, Datum::Null);
    }

    fn truncate(&mut self, rows: usize) {
        self.rows = self.rows.min(rows);
        self.data.truncate(self.rows * self.width);
    }

    /// Drop the first `rows` rows.
    fn skip(&mut self, rows: usize) {
        let rows = rows.min(self.rows);
        self.data.drain(..rows * self.width);
        self.rows -= rows;
    }

    /// Add `other`'s rows after these; onto an empty batch that is a move,
    /// not a copy.
    fn append(&mut self, mut other: Batch) {
        if self.rows == 0 {
            *self = other;
            return;
        }
        self.data.append(&mut other.data);
        self.rows += other.rows;
    }

    /// Keep the rows `keep` accepts, compacting them in place.
    fn retain(&mut self, mut keep: impl FnMut(&[Datum]) -> DbResult<bool>) -> DbResult<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.rows {
            if keep(self.row(i))? {
                if kept < i {
                    let (head, tail) = self.data.split_at_mut(i * w);
                    head[kept * w..(kept + 1) * w].swap_with_slice(&mut tail[..w]);
                }
                kept += 1;
            }
        }
        self.truncate(kept);
        Ok(())
    }

    /// Move row `i`'s values out, leaving NULLs behind.
    fn take_row(&mut self, i: usize) -> impl Iterator<Item = Datum> + '_ {
        let row = &mut self.data[i * self.width..(i + 1) * self.width];
        row.iter_mut().map(|d| std::mem::replace(d, Datum::Null))
    }

    fn into_rows(self) -> impl Iterator<Item = Row> {
        let (width, mut data) = (self.width, self.data.into_iter());
        (0..self.rows).map(move |_| data.by_ref().take(width).collect())
    }
}

/// A pull-based operator. `next_batch` returns `Ok(None)` when exhausted;
/// an `Ok(Some(batch))` may be empty (e.g. a filter rejected a whole
/// input batch) — callers keep pulling until `None`.
trait BatchIter {
    fn next_batch(&mut self) -> DbResult<Option<Batch>>;
}

type BoxIter<'a> = Box<dyn BatchIter + 'a>;

/// Lower a plan into its operator tree, compiling every expression. All
/// name-resolution errors surface here, before any row is read. Returns
/// the operator with its [`Layout`].
///
/// `need` is the set of this operator's binding positions that it or its
/// consumers read. Each operator passes its input what it reads of it:
/// a Project its expressions, an Aggregate its group keys and arguments,
/// Filter, Sort and TopN `need` plus their predicate or keys, Limit
/// `need`, a join `need` split at the left width plus each side's keys or
/// `on` columns, `DISTINCT` (like the root) every column. A SeqScan
/// decodes exactly that plus its residual's columns and emits `need`;
/// index scans fetch and emit whole rows.
///
/// When `stats` is given (`EXPLAIN ANALYZE`), each operator is wrapped in
/// a [`StatIter`] attributing rows/batches/time to the matching node of
/// the stats tree, and scans additionally record `pages_read`.
///
/// When the process tracer is enabled, each operator is also wrapped in a
/// [`SpanIter`] that records one `exec.operator` span (under the query's
/// `span_parent`) when the operator is dropped. The gate is one relaxed
/// load per operator at *build* time — nothing on the per-batch path.
fn build_iter<'a>(
    storage: &'a dyn StorageAccess,
    funcs: &'a FunctionRegistry,
    plan: &PhysicalPlan,
    need: Need,
    stats: Option<&Arc<OpStats>>,
    span_parent: u64,
) -> DbResult<(BoxIter<'a>, Layout)> {
    let child = |i: usize| stats.map(|s| &s.children[i]);
    let build = |input: &PhysicalPlan, need: Need, i: usize| {
        build_iter(storage, funcs, input, need, child(i), span_parent)
    };
    let (it, layout): (BoxIter<'a>, Layout) = match plan {
        PhysicalPlan::Nothing => (Box::new(NothingIter { done: false }), Layout::new()),
        PhysicalPlan::SeqScan { table_id, residual, columns, .. } => {
            let filter = compile_opt(residual.as_ref(), columns, funcs)?;
            let spec = scan_spec(&reading(need.clone(), &filter), &filter);
            let layout: Layout = need.into_iter().collect();
            let scan = SeqScanIter {
                storage,
                table_id: *table_id,
                filter,
                width: layout.len(),
                emit: Emit::Columns(layout.clone()),
                spec,
                next_page: Some(0),
                stats: stats.map(Arc::clone),
            };
            (Box::new(scan), layout)
        }
        // Project directly over SeqScan fuses into the scan, so filter and
        // projection run on the decode scratch.
        PhysicalPlan::Project { input, exprs, .. }
            if matches!(**input, PhysicalPlan::SeqScan { .. }) =>
        {
            let PhysicalPlan::SeqScan { table_id, residual, columns, .. } = &**input else {
                unreachable!()
            };
            let filter = compile_opt(residual.as_ref(), columns, funcs)?;
            let project = compile_all(exprs, columns, funcs)?;
            let spec = scan_spec(&reading(Need::new(), project.iter().chain(&filter)), &filter);
            // The fused operator reports through both plan nodes: the scan
            // child gets pages_read (inside SeqScanIter) plus rows/time via
            // its own StatIter; the Project gets the same via the outer
            // wrap below. Their row counts are identical by construction.
            let scan: BoxIter<'a> = Box::new(SeqScanIter {
                storage,
                table_id: *table_id,
                filter,
                width: project.len(),
                emit: Emit::Exprs(project),
                spec,
                next_page: Some(0),
                stats: child(0).map(Arc::clone),
            });
            let scan = match child(0) {
                Some(s) => Box::new(StatIter { input: scan, stats: Arc::clone(s) }),
                None => scan,
            };
            (scan, identity(exprs.len()))
        }
        PhysicalPlan::IndexEqScan { table_id, column, key, residual, columns, .. } => {
            let rids = storage.btree_eq(*table_id, column, key)?;
            rid_scan(storage, *table_id, rids, residual.as_ref(), columns, funcs)?
        }
        PhysicalPlan::IndexRangeScan { table_id, column, lo, hi, residual, columns, .. } => {
            let rids = storage.btree_range(*table_id, column, lo.as_ref(), hi.as_ref())?;
            rid_scan(storage, *table_id, rids, residual.as_ref(), columns, funcs)?
        }
        PhysicalPlan::UdiScan { table_id, column, func, args, residual, columns, .. } => {
            let rids = storage.udi_probe(*table_id, column, func, args)?;
            rid_scan(storage, *table_id, rids, residual.as_ref(), columns, funcs)?
        }
        PhysicalPlan::Filter { input, predicate } => {
            let mut pred = compile(predicate, &input.bindings(), funcs)?;
            let (input, layout) = build(input, reading(need, [&pred]), 0)?;
            pred.remap(&layout);
            (Box::new(FilterIter { input, pred }), layout)
        }
        PhysicalPlan::Project { input, exprs, .. } => {
            let mut exprs = compile_all(exprs, &input.bindings(), funcs)?;
            let (input, layout) = build(input, reading(Need::new(), &exprs), 0)?;
            exprs.iter_mut().for_each(|e| e.remap(&layout));
            let width = exprs.len();
            (Box::new(ProjectIter { input, exprs }), identity(width))
        }
        PhysicalPlan::NestedLoopJoin { left, right, kind, on } => {
            let mut bindings = left.bindings();
            let left_width = bindings.len();
            bindings.extend(right.bindings());
            let mut on = compile_opt(on.as_ref(), &bindings, funcs)?;
            let (left_need, right_need) = split_need(&reading(need, &on), left_width);
            let (left, left_layout) = build(left, left_need, 0)?;
            let (right, right_layout) = build(right, right_need, 1)?;
            let right_width = right_layout.len();
            let layout = concat(left_layout, right_layout, left_width);
            on.iter_mut().for_each(|e| e.remap(&layout));
            let join = NlJoinIter {
                left,
                right: Some(right),
                right_rows: Batch::default(),
                kind: *kind,
                on,
                right_width,
            };
            (Box::new(join), layout)
        }
        PhysicalPlan::HashJoin { left, right, left_key, right_key, build_left, kind } => {
            let (left_bindings, right_bindings) = (left.bindings(), right.bindings());
            let mut left_k = compile(left_key, &left_bindings, funcs)?;
            let mut right_k = compile(right_key, &right_bindings, funcs)?;
            let (left_need, right_need) = split_need(&need, left_bindings.len());
            // Children are built in plan order so build-time side effects —
            // index probes, name-resolution errors — happen in the same
            // order whichever side the executor builds on, and
            // child(0)/child(1) stay attached to the plan's left/right
            // inputs regardless.
            let (left_it, left_layout) = build(left, reading(left_need, [&left_k]), 0)?;
            let (right_it, right_layout) = build(right, reading(right_need, [&right_k]), 1)?;
            left_k.remap(&left_layout);
            right_k.remap(&right_layout);
            let (build_it, build_key, build_width, probe, probe_key) = if *build_left {
                (left_it, left_k, left_layout.len(), right_it, right_k)
            } else {
                (right_it, right_k, right_layout.len(), left_it, left_k)
            };
            let join = HashJoinIter {
                probe,
                build: Some(build_it),
                build_rows: Batch::default(),
                build_keys: Vec::new(),
                heads: Vec::new(),
                next: Vec::new(),
                probe_key,
                build_key,
                build_is_left: *build_left,
                left_outer: *kind == JoinKind::Left,
                build_width,
                stats: stats.map(Arc::clone),
            };
            (Box::new(join), concat(left_layout, right_layout, left_bindings.len()))
        }
        PhysicalPlan::Aggregate { input, group_by, calls } => {
            let in_bindings = input.bindings();
            let mut group_by = compile_all(group_by, &in_bindings, funcs)?;
            let mut args = calls
                .iter()
                .map(|c| compile_opt(c.arg.as_ref(), &in_bindings, funcs))
                .collect::<DbResult<Vec<_>>>()?;
            let need = reading(Need::new(), group_by.iter().chain(args.iter().flatten()));
            let (input, layout) = build(input, need, 0)?;
            group_by.iter_mut().chain(args.iter_mut().flatten()).for_each(|e| e.remap(&layout));
            let width = group_by.len() + calls.len();
            let agg = AggregateIter {
                input: Some(input),
                group_by,
                args,
                calls: calls.to_vec(),
                funcs,
                stats: stats.map(Arc::clone),
            };
            (Box::new(agg), identity(width))
        }
        PhysicalPlan::Sort { input, keys: sort_keys } => {
            let mut keys = compile_keys(sort_keys, &input.bindings(), funcs)?;
            let (input, layout) = build(input, reading(need, &keys), 0)?;
            keys.iter_mut().for_each(|k| k.remap(&layout));
            let dirs = sort_keys.iter().map(|(_, asc)| *asc).collect();
            (Box::new(SortIter { input: Some(input), keys, dirs }), layout)
        }
        PhysicalPlan::TopN { input, keys: sort_keys, n, offset } => {
            let mut keys = compile_keys(sort_keys, &input.bindings(), funcs)?;
            let (input, layout) = build(input, reading(need, &keys), 0)?;
            keys.iter_mut().for_each(|k| k.remap(&layout));
            let top = TopNIter {
                input: Some(input),
                keys,
                dirs: Arc::new(sort_keys.iter().map(|(_, asc)| *asc).collect()),
                n: *n,
                offset: *offset,
                width: layout.len(),
            };
            (Box::new(top), layout)
        }
        PhysicalPlan::Distinct { input } => {
            let (input, layout) = build(input, all_columns(input), 0)?;
            (Box::new(DistinctIter { input, seen: HashSet::new() }), layout)
        }
        PhysicalPlan::Limit { input, n, offset } => {
            // When any expression under this operator can error, an early
            // exit could skip the evaluation that would have raised it and
            // change the query's outcome — drain the input instead.
            let eager = plan_fallible(input);
            let (input, layout) = build(input, need, 0)?;
            let limit = LimitIter { eager, input, n: *n, offset: *offset, emitted: 0, done: false };
            (Box::new(limit), layout)
        }
    };
    let it = match stats {
        Some(s) => Box::new(StatIter { input: it, stats: Arc::clone(s) }),
        None => it,
    };
    let tracer = genalg_obs::tracer();
    let it = if tracer.enabled() {
        Box::new(SpanIter {
            input: it,
            tracer,
            parent: span_parent,
            label: plan.node_label(),
            rows: 0,
            batches: 0,
            time_us: 0,
        })
    } else {
        it
    };
    Ok((it, layout))
}

/// Every position of a `width`-column row, in order.
fn identity(width: usize) -> Layout {
    (0..width).collect()
}

/// An index or UDI scan fetching `rids`: whole rows, so an identity layout.
fn rid_scan<'a>(
    storage: &'a dyn StorageAccess,
    table_id: u32,
    rids: Vec<Rid>,
    residual: Option<&Expr>,
    columns: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<(BoxIter<'a>, Layout)> {
    let filter = compile_opt(residual, columns, funcs)?;
    let width = columns.len();
    Ok((Box::new(RidScanIter { storage, table_id, rids, pos: 0, filter, width }), identity(width)))
}

fn compile_opt(
    expr: Option<&Expr>,
    bindings: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<Option<CompiledExpr>> {
    expr.map(|e| compile(e, bindings, funcs)).transpose()
}

fn compile_all(
    exprs: &[Expr],
    bindings: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<Vec<CompiledExpr>> {
    exprs.iter().map(|e| compile(e, bindings, funcs)).collect()
}

fn compile_keys(
    keys: &[(Expr, bool)],
    bindings: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<Vec<CompiledExpr>> {
    keys.iter().map(|(e, _)| compile(e, bindings, funcs)).collect()
}

/// Could executing this subtree raise an expression-evaluation error?
/// Conservative (see [`infallible`]); `LIMIT` uses it to decide whether
/// short-circuiting is observationally safe.
fn plan_fallible(plan: &PhysicalPlan) -> bool {
    let exprs_ok = |exprs: &[&Expr]| exprs.iter().all(|e| infallible(e));
    match plan {
        PhysicalPlan::Nothing => false,
        PhysicalPlan::SeqScan { residual, .. }
        | PhysicalPlan::IndexEqScan { residual, .. }
        | PhysicalPlan::IndexRangeScan { residual, .. }
        | PhysicalPlan::UdiScan { residual, .. } => !exprs_ok(&residual.iter().collect::<Vec<_>>()),
        PhysicalPlan::Filter { input, predicate } => !infallible(predicate) || plan_fallible(input),
        PhysicalPlan::NestedLoopJoin { left, right, on, .. } => {
            !exprs_ok(&on.iter().collect::<Vec<_>>()) || plan_fallible(left) || plan_fallible(right)
        }
        PhysicalPlan::HashJoin { left, right, left_key, right_key, .. } => {
            !infallible(left_key)
                || !infallible(right_key)
                || plan_fallible(left)
                || plan_fallible(right)
        }
        // Accumulators themselves can reject values (sum over TEXT), so an
        // aggregate is always treated as fallible.
        PhysicalPlan::Aggregate { .. } => true,
        PhysicalPlan::Project { input, exprs, .. } => {
            !exprs.iter().all(infallible) || plan_fallible(input)
        }
        PhysicalPlan::Sort { input, keys } | PhysicalPlan::TopN { input, keys, .. } => {
            !keys.iter().all(|(e, _)| infallible(e)) || plan_fallible(input)
        }
        PhysicalPlan::Distinct { input } | PhysicalPlan::Limit { input, .. } => {
            plan_fallible(input)
        }
    }
}

/// ORDER BY comparator: NULLs sort LAST under ASC (and therefore FIRST
/// under DESC, which is just the reversal), matching PostgreSQL's
/// defaults. This is deliberately different from [`Datum::total_cmp`],
/// whose NULL-first total order is a storage-level concern (B-tree key
/// order), not a query-semantics one.
pub fn order_by_cmp(a: &Datum, b: &Datum) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(b),
    }
}

fn cmp_key_vecs(a: &[Datum], b: &[Datum], dirs: &[bool]) -> Ordering {
    for (i, asc) in dirs.iter().enumerate() {
        let ord = order_by_cmp(&a[i], &b[i]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// `EXPLAIN ANALYZE` wrapper: forwards `next_batch` while attributing
/// rows, batches, and inclusive wall time to one stats node. Only present
/// in the operator tree when a stats tree was requested, so ordinary
/// execution pays nothing for it.
struct StatIter<'a> {
    input: BoxIter<'a>,
    stats: Arc<OpStats>,
}

impl BatchIter for StatIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let start = std::time::Instant::now();
        let result = self.input.next_batch();
        let elapsed = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.time_us.fetch_add(elapsed, AtomicOrdering::Relaxed);
        if let Ok(Some(batch)) = &result {
            self.stats.batches.fetch_add(1, AtomicOrdering::Relaxed);
            self.stats.rows_out.fetch_add(batch.len() as u64, AtomicOrdering::Relaxed);
        }
        result
    }
}

/// Tracing wrapper: accumulates rows/batches/inclusive time in plain
/// fields (no atomics — each operator is pulled single-threaded) and
/// records one `exec.operator` span when the operator is dropped at the
/// end of the query. Only present when the tracer was enabled at build
/// time, so the per-batch cost is zero when tracing is off.
struct SpanIter<'a> {
    input: BoxIter<'a>,
    tracer: &'static genalg_obs::Tracer,
    parent: u64,
    label: String,
    rows: u64,
    batches: u64,
    time_us: u64,
}

impl BatchIter for SpanIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let start = std::time::Instant::now();
        let result = self.input.next_batch();
        self.time_us += start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        if let Ok(Some(batch)) = &result {
            self.batches += 1;
            self.rows += batch.len() as u64;
        }
        result
    }
}

impl Drop for SpanIter<'_> {
    fn drop(&mut self) {
        let mut span = self.tracer.span_with_parent("exec.operator", self.parent);
        span.field("op", self.label.as_str());
        span.field("rows_out", self.rows);
        span.field("batches", self.batches);
        span.field("time_us", self.time_us);
    }
}

// ---------------------------------------------------------------------------
// Leaf operators
// ---------------------------------------------------------------------------

struct NothingIter {
    done: bool,
}

impl BatchIter for NothingIter {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(Batch { data: Vec::new(), width: 0, rows: 1 }))
    }
}

/// Streaming heap scan with optional fused filter and projection. Each
/// `next_batch` reads one [`MORSEL_PAGES`] range. The residual
/// runs on the decode scratch, which holds table positions; a kept row
/// leaves it as its [`Emit`] says.
struct SeqScanIter<'a> {
    storage: &'a dyn StorageAccess,
    table_id: u32,
    filter: Option<CompiledExpr>,
    emit: Emit,
    /// Output row width: the projection's when fused, else the layout's.
    width: usize,
    /// What to decode (the columns this scan's consumers and residual
    /// read) and which pages the zone maps may refute (predicate bounds).
    spec: ScanSpec,
    next_page: Option<u32>,
    /// `EXPLAIN ANALYZE` node to attribute `pages_read`, `pages_skipped`
    /// and `segments_decoded` to.
    stats: Option<Arc<OpStats>>,
}

/// What a SeqScan emits of each row it keeps.
enum Emit {
    /// These table positions (the scan's layout), moved out of the scratch.
    Columns(Layout),
    /// A fused projection's values.
    Exprs(Vec<CompiledExpr>),
}

impl BatchIter for SeqScanIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(first_page) = self.next_page else { return Ok(None) };
        // Filter and projection run on the scan's decode scratch; a kept
        // row's values (or its projection) move into the batch, and a
        // rejected row is never copied.
        let mut out = Batch::with_capacity(self.width, 0);
        let progress = self.storage.scan_batches(
            self.table_id,
            first_page,
            MORSEL_PAGES,
            &self.spec,
            &mut |row| {
                if let Some(f) = &self.filter {
                    if !f.accepts(row)? {
                        return Ok(());
                    }
                }
                match &self.emit {
                    Emit::Exprs(exprs) => {
                        for e in exprs {
                            out.data.push(e.eval(row)?.into_owned());
                        }
                    }
                    // A stored row shorter than the prefix reads NULL past
                    // its end, as the decode would have padded it.
                    Emit::Columns(layout) => out.data.extend(layout.iter().map(|&c| {
                        row.get_mut(c).map_or(Datum::Null, |d| std::mem::replace(d, Datum::Null))
                    })),
                }
                out.end_row();
                Ok(())
            },
        )?;
        if let Some(stats) = &self.stats {
            stats.pages_read.fetch_add(u64::from(progress.pages_read), AtomicOrdering::Relaxed);
            stats
                .pages_skipped
                .fetch_add(u64::from(progress.pages_skipped), AtomicOrdering::Relaxed);
            stats.segments_decoded.fetch_add(progress.segments_decoded, AtomicOrdering::Relaxed);
        }
        self.next_page = progress.next_page;
        Ok(Some(out))
    }
}

/// Index / UDI scans: the rid list is materialized by the probe, rows are
/// fetched in [`BATCH_ROWS`] chunks.
struct RidScanIter<'a> {
    storage: &'a dyn StorageAccess,
    table_id: u32,
    rids: Vec<Rid>,
    pos: usize,
    filter: Option<CompiledExpr>,
    width: usize,
}

impl BatchIter for RidScanIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.pos >= self.rids.len() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_ROWS).min(self.rids.len());
        let rows = self.storage.fetch_rids(self.table_id, &self.rids[self.pos..end])?;
        self.pos = end;
        let mut out = Batch::with_capacity(self.width, rows.len());
        for row in rows {
            if let Some(f) = &self.filter {
                if !f.accepts(&row)? {
                    continue;
                }
            }
            out.data.extend(row);
            out.end_row();
        }
        Ok(Some(out))
    }
}

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

struct FilterIter<'a> {
    input: BoxIter<'a>,
    pred: CompiledExpr,
}

impl BatchIter for FilterIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut batch) = self.input.next_batch()? else { return Ok(None) };
        batch.retain(|row| self.pred.accepts(row))?;
        Ok(Some(batch))
    }
}

struct ProjectIter<'a> {
    input: BoxIter<'a>,
    exprs: Vec<CompiledExpr>,
}

impl BatchIter for ProjectIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else { return Ok(None) };
        let mut out = Batch::with_capacity(self.exprs.len(), batch.len());
        for row in batch.iter() {
            for e in &self.exprs {
                out.data.push(e.eval(row)?.into_owned());
            }
            out.end_row();
        }
        Ok(Some(out))
    }
}

/// Each distinct row is copied exactly once, into the seen-set; duplicates
/// are dropped without ever being copied, and the batch is compacted in
/// place.
struct DistinctIter<'a> {
    input: BoxIter<'a>,
    seen: HashSet<Row>,
}

impl BatchIter for DistinctIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut batch) = self.input.next_batch()? else { return Ok(None) };
        let seen = &mut self.seen;
        batch.retain(|row| Ok(!seen.contains(row) && seen.insert(row.to_vec())))?;
        Ok(Some(batch))
    }
}

struct LimitIter<'a> {
    input: BoxIter<'a>,
    n: Option<u64>,
    offset: u64,
    emitted: u64,
    eager: bool,
    done: bool,
}

impl BatchIter for LimitIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let Some(mut batch) = self.input.next_batch()? else {
            self.done = true;
            return Ok(None);
        };
        if self.offset > 0 {
            let skip = (self.offset).min(batch.len() as u64);
            batch.skip(skip as usize);
            self.offset -= skip;
        }
        if let Some(n) = self.n {
            let remaining = n - self.emitted;
            if (batch.len() as u64) > remaining {
                batch.truncate(remaining as usize);
            }
            self.emitted += batch.len() as u64;
            if self.emitted >= n {
                self.done = true;
                if self.eager {
                    // Keep evaluating the input for its error effects.
                    while self.input.next_batch()?.is_some() {}
                }
            }
        }
        Ok(Some(batch))
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// Every remaining row of `it`, in one batch.
fn drain(mut it: BoxIter<'_>) -> DbResult<Batch> {
    let mut all = it.next_batch()?.unwrap_or_default();
    while let Some(batch) = it.next_batch()? {
        all.append(batch);
    }
    Ok(all)
}

struct SortIter<'a> {
    input: Option<BoxIter<'a>>,
    keys: Vec<CompiledExpr>,
    dirs: Vec<bool>,
}

impl BatchIter for SortIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(input) = self.input.take() else { return Ok(None) };
        let mut rows = drain(input)?;
        let keyed = rows
            .iter()
            .map(|row| {
                self.keys
                    .iter()
                    .map(|k| k.eval(row).map(Cow::into_owned))
                    .collect::<DbResult<Vec<_>>>()
            })
            .collect::<DbResult<Vec<_>>>()?;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        // Stable, so ties on every key preserve input order — multi-key
        // sorts and LIMIT windows are deterministic.
        order.sort_by(|&a, &b| cmp_key_vecs(&keyed[a], &keyed[b], &self.dirs));
        let mut out = Batch::with_capacity(rows.width, rows.len());
        for i in order {
            out.data.extend(rows.take_row(i));
            out.end_row();
        }
        Ok(Some(out))
    }
}

/// Bounded Top-N: a max-heap (in sort order) of the best `offset + n`
/// rows seen so far. A sequence number per row makes the heap order a
/// total order that exactly reproduces stable-sort-then-limit, so results
/// are deterministic.
struct TopNIter<'a> {
    input: Option<BoxIter<'a>>,
    keys: Vec<CompiledExpr>,
    dirs: Arc<Vec<bool>>,
    n: u64,
    offset: u64,
    width: usize,
}

struct TopEntry {
    key: Vec<Datum>,
    seq: u64,
    row: Row,
    dirs: Arc<Vec<bool>>,
}

impl PartialEq for TopEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for TopEntry {}
impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TopEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_key_vecs(&self.key, &other.key, &self.dirs).then(self.seq.cmp(&other.seq))
    }
}

impl BatchIter for TopNIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut input) = self.input.take() else { return Ok(None) };
        let keep = usize::try_from(self.offset.saturating_add(self.n)).unwrap_or(usize::MAX);
        let mut heap: std::collections::BinaryHeap<TopEntry> =
            std::collections::BinaryHeap::with_capacity(keep.min(BATCH_ROWS) + 1);
        let mut seq = 0u64;
        let mut key = Vec::with_capacity(self.keys.len());
        while let Some(mut batch) = input.next_batch()? {
            for i in 0..batch.len() {
                // Key evaluation happens for every input row — exactly as
                // the unfused Sort would — so error behavior is unchanged.
                key.clear();
                for k in &self.keys {
                    key.push(k.eval(batch.row(i))?.into_owned());
                }
                if keep == 0 {
                    continue;
                }
                if heap.len() == keep {
                    // Cheap reject: worse than the current worst kept row.
                    let worst = heap.peek().expect("non-empty at capacity");
                    if cmp_key_vecs(&key, &worst.key, &self.dirs).then(seq.cmp(&worst.seq)).is_ge()
                    {
                        seq += 1;
                        continue;
                    }
                }
                // Only a row entering the heap leaves the batch, moved.
                let row = batch.take_row(i).collect();
                heap.push(TopEntry { key: key.clone(), seq, row, dirs: Arc::clone(&self.dirs) });
                seq += 1;
                if heap.len() > keep {
                    heap.pop();
                }
            }
        }
        let mut entries = heap.into_sorted_vec();
        let skip = (self.offset as usize).min(entries.len());
        let mut out = Batch::with_capacity(self.width, entries.len() - skip);
        for e in entries.drain(skip..) {
            out.data.extend(e.row);
            out.end_row();
        }
        Ok(Some(out))
    }
}

struct NlJoinIter<'a> {
    left: BoxIter<'a>,
    right: Option<BoxIter<'a>>,
    right_rows: Batch,
    kind: JoinKind,
    on: Option<CompiledExpr>,
    right_width: usize,
}

impl BatchIter for NlJoinIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some(right) = self.right.take() {
            self.right_rows = drain(right)?;
        }
        let Some(batch) = self.left.next_batch()? else { return Ok(None) };
        let mut out = Batch::with_capacity(batch.width + self.right_width, 0);
        for l in batch.iter() {
            let mut matched = false;
            for r in self.right_rows.iter() {
                out.data.extend_from_slice(l);
                out.data.extend_from_slice(r);
                out.end_row();
                let keep = match &self.on {
                    None => true,
                    Some(pred) => pred.accepts(out.row(out.len() - 1))?,
                };
                if keep {
                    matched = true;
                } else {
                    out.truncate(out.len() - 1);
                }
            }
            if self.kind == JoinKind::Left && !matched {
                out.data.extend_from_slice(l);
                out.end_row();
            }
        }
        Ok(Some(out))
    }
}

/// The end of a hash-join chain.
const NIL: u32 = u32::MAX;

/// Hash join over one chained table: the build side (chosen by the
/// planner's statistics — `build=left|right` in `EXPLAIN`) is drained once
/// into one flat batch and its keys evaluated once. `heads` has a power of
/// two ≥ 2 × build rows buckets, each the first build row whose key hashes
/// there; `next` links every row to the next one in its bucket. Rows are
/// linked in reverse build order, so a chain walks in build order and
/// duplicate keys match in build order; NULL keys are never linked. A
/// probe row reads its key in place, hashes it to one bucket and walks
/// that chain.
///
/// Emitted rows are always in `left ++ right` layout order regardless of
/// which side was built. For LEFT joins the build side is always the
/// right (padded) side; unmatched probe rows — including rows whose key
/// is NULL, which never joins anything — are padded with NULLs.
struct HashJoinIter<'a> {
    probe: BoxIter<'a>,
    build: Option<BoxIter<'a>>,
    build_rows: Batch,
    /// Build row `i`'s key.
    build_keys: Vec<Datum>,
    /// Bucket → first build row in its chain, or [`NIL`].
    heads: Vec<u32>,
    /// Build row → next build row in its chain, or [`NIL`].
    next: Vec<u32>,
    probe_key: CompiledExpr,
    build_key: CompiledExpr,
    /// The build side is the plan's *left* input: emit build ++ probe.
    build_is_left: bool,
    /// LEFT OUTER join (probe side preserved, build side padded).
    left_outer: bool,
    /// Values per build row (its layout's width), what an unmatched probe
    /// row is padded by.
    build_width: usize,
    /// `EXPLAIN ANALYZE` node for `partitions` / `build_rows`.
    stats: Option<Arc<OpStats>>,
}

impl HashJoinIter<'_> {
    fn build_table(&mut self, build: BoxIter<'_>) -> DbResult<()> {
        self.build_rows = drain(build)?;
        let rows = &self.build_rows;
        if rows.len() >= NIL as usize {
            return Err(DbError::Unsupported("a hash join builds fewer than 2^32 - 1 rows".into()));
        }
        self.build_keys = rows
            .iter()
            .map(|r| self.build_key.eval(r).map(Cow::into_owned))
            .collect::<DbResult<_>>()?;
        let mask = (2 * rows.len()).next_power_of_two() as u64 - 1;
        self.heads = vec![NIL; mask as usize + 1];
        self.next = vec![NIL; rows.len()];
        for (i, k) in self.build_keys.iter().enumerate().rev() {
            // NULL never equals anything, including NULL (3VL).
            if !k.is_null() {
                let head = &mut self.heads[(hash_one(k) & mask) as usize];
                self.next[i] = *head;
                *head = i as u32;
            }
        }
        if let Some(stats) = &self.stats {
            stats.partitions.store(1, AtomicOrdering::Relaxed);
            stats.build_rows.store(rows.len() as u64, AtomicOrdering::Relaxed);
        }
        Ok(())
    }
}

impl BatchIter for HashJoinIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some(build) = self.build.take() {
            self.build_table(build)?;
        }
        let Some(batch) = self.probe.next_batch()? else { return Ok(None) };
        let mask = self.heads.len() as u64 - 1;
        let mut out = Batch::with_capacity(batch.width + self.build_width, batch.len());
        for p in batch.iter() {
            let key = self.probe_key.eval(p)?;
            // A NULL key walks a chain too, and matches nothing in it: no
            // NULL is linked, and NULL equals no other key.
            let mut i = self.heads[(hash_one(&*key) & mask) as usize];
            let mut matched = false;
            while i != NIL {
                if self.build_keys[i as usize] == *key {
                    let b = self.build_rows.row(i as usize);
                    let (l, r) = if self.build_is_left { (b, p) } else { (p, b) };
                    out.data.extend_from_slice(l);
                    out.data.extend_from_slice(r);
                    out.end_row();
                    matched = true;
                }
                i = self.next[i as usize];
            }
            // LEFT join: the probe row survives with the build side
            // padded — also the path a NULL probe key takes.
            if !matched && self.left_outer {
                out.data.extend_from_slice(p);
                out.end_row();
            }
        }
        Ok(Some(out))
    }
}

struct AggregateIter<'a> {
    input: Option<BoxIter<'a>>,
    group_by: Vec<CompiledExpr>,
    /// Compiled argument per call; `None` is `count(*)`.
    args: Vec<Option<CompiledExpr>>,
    calls: Vec<AggCall>,
    funcs: &'a FunctionRegistry,
    /// `EXPLAIN ANALYZE` node for `partitions`.
    stats: Option<Arc<OpStats>>,
}

/// What `count(*)` folds per row: a non-null marker.
static ROW_MARKER: Datum = Datum::Int(1);

impl BatchIter for AggregateIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut input) = self.input.take() else { return Ok(None) };

        struct Group {
            key: Vec<Datum>,
            accs: Vec<Box<dyn crate::expr::func::Accumulator>>,
            distinct_seen: Vec<HashSet<Datum>>,
        }

        let calls = self.calls.as_slice();
        let funcs = self.funcs;
        let make_group = move |key: Vec<Datum>| -> DbResult<Group> {
            let mut accs = Vec::with_capacity(calls.len());
            for c in calls {
                let factory = funcs
                    .aggregate(&c.func)
                    .ok_or(DbError::NotFound { kind: "aggregate", name: c.func.clone() })?;
                accs.push(factory());
            }
            Ok(Group { key, accs, distinct_seen: vec![HashSet::new(); calls.len()] })
        };

        fn apply(call: &AggCall, group: &mut Group, ci: usize, value: &Datum) -> DbResult<()> {
            if call.distinct {
                let seen = &mut group.distinct_seen[ci];
                if value.is_null() || seen.contains(value) {
                    return Ok(());
                }
                seen.insert(value.clone());
            }
            group.accs[ci].update(value).map_err(|e| match e {
                DbError::TypeMismatch(m) => DbError::TypeMismatch(format!("{}(): {m}", call.func)),
                other => other,
            })
        }

        // Groups in first-seen order, which is the emission order; keys are
        // looked up by slice before being cloned, so the common case (an
        // existing group) allocates nothing.
        let mut groups: Vec<Group> = Vec::new();
        let mut lookup: FxHashMap<Vec<Datum>, u32> = FxHashMap::default();
        // A global aggregate (no GROUP BY) has exactly one group, even over
        // zero rows, and every row folds straight into it: no key to hash,
        // no table to probe.
        let global = self.group_by.is_empty();
        if global {
            groups.push(make_group(Vec::new())?);
        }
        let mut key_scratch: Vec<Datum> = Vec::with_capacity(self.group_by.len());
        // The fold into the accumulators is sequential —
        // [`crate::expr::func::Accumulator`] is an open extension trait with
        // no merge operation — and reads each key and argument where it lies
        // in the input batch. Streaming batch by batch means the input is
        // never fully materialized here.
        while let Some(batch) = input.next_batch()? {
            for row in batch.iter() {
                let group = if global {
                    &mut groups[0]
                } else {
                    // One key is looked up where it lies; several are
                    // gathered into a reused scratch.
                    let single;
                    let key: &[Datum] = match self.group_by.as_slice() {
                        [g] => {
                            single = g.eval(row)?;
                            std::slice::from_ref(&*single)
                        }
                        keys => {
                            key_scratch.clear();
                            for g in keys {
                                key_scratch.push(g.eval(row)?.into_owned());
                            }
                            &key_scratch
                        }
                    };
                    let gi = match lookup.get(key) {
                        Some(&i) => i as usize,
                        None => {
                            groups.push(make_group(key.to_vec())?);
                            lookup.insert(key.to_vec(), (groups.len() - 1) as u32);
                            groups.len() - 1
                        }
                    };
                    &mut groups[gi]
                };
                for (ci, (call, arg)) in calls.iter().zip(&self.args).enumerate() {
                    let value = match arg {
                        None => Cow::Borrowed(&ROW_MARKER),
                        Some(e) => e.eval(row)?,
                    };
                    apply(call, group, ci, &value)?;
                }
            }
        }

        if let Some(stats) = &self.stats {
            stats.partitions.store(1, AtomicOrdering::Relaxed);
        }

        let mut out = Batch::with_capacity(self.group_by.len() + calls.len(), groups.len());
        for g in groups {
            out.data.extend(g.key);
            out.data.extend(g.accs.iter().map(|acc| acc.finish()));
            out.end_row();
        }
        Ok(Some(out))
    }
}
