//! Plan execution: a pull-based, batched engine.
//!
//! Every operator implements `BatchIter` and pulls ~[`BATCH_ROWS`]-row
//! batches from its input, so Scan→Filter→Project pipelines stream and
//! `LIMIT` stops pulling as soon as its window is full (unless a fallible
//! expression downstream means early exit could change which queries
//! error — then it drains). A batch is one allocation (`Batch`): `width`
//! datums per row, row after row, read as `&[Datum]`. Scans write only
//! their filter's survivors straight into it, filters compact it in place,
//! projections and joins append to one buffer, and `Vec<Row>` is built
//! once, at the root. Pipeline breakers (Sort, TopN, Aggregate, the join
//! build sides) still buffer what they must, and nothing more:
//! `Sort+LIMIT` arrives here pre-fused into [`PhysicalPlan::TopN`], whose
//! bounded heap never holds more than `offset + n` rows.
//!
//! Rows carry only the columns someone reads. `build_iter` hands each
//! operator the binding positions that it or its consumers read (its
//! *need*) and gets back, with the operator, its *layout*: the ascending
//! binding positions its rows hold. A SeqScan reads its need plus its
//! filter's columns (its [`ScanSpec`]), applies the whole filter inside
//! [`StorageAccess::scan_batches`] — kernel leaves a column at a time over
//! column images, per row elsewhere — and emits only its need; a Project
//! over it is an ordinary Project over that layout. Filter, Sort, TopN,
//! Limit and Distinct pass their input's layout on; a hash join emits
//! exactly its need, a nested-loop join concatenates its inputs' layouts;
//! every other operator emits all of its bindings. A parent compiles
//! against the full bindings — resolution errors are the plan's — and
//! remaps the column positions through its input's layout
//! ([`CompiledExpr::remap`]).
//!
//! All expressions are lowered to [`CompiledExpr`] when the operator tree
//! is built — before the first row flows — so per-row evaluation does no
//! name resolution, and unknown/ambiguous column errors surface at plan
//! time.
//!
//! Expressions read columns and literals in place ([`CompiledExpr::eval`]
//! borrows them), so a filter copies nothing it only looks at; join keys
//! are plain references ([`CompiledExpr::read`]), found through one
//! `KeyTable`.
//!
//! An Aggregate has one fold (`agg`), over column images. A SeqScan feeding
//! it hands over each image page it serves whole, with the selection
//! vector its filter left ([`ImagePage`]), instead of copying survivors
//! into the batch; its row-path pages (the tail, pages with overflow rows,
//! a dirty table's pages and virtual page) still arrive as rows, in heap
//! order among the pages, as do the rows of any other input. The one fold
//! is generic over an image page with its selection vector and a run of
//! rows: it reads keys and arguments where they lie — a TEXT key as
//! dictionary codes, mapped to groups once per code and page, numbers from
//! their typed vectors — computes a bound call of one column through its
//! page-at-a-time entry, and folds row after row, so groups, float sums
//! and the first error are those of a per-row fold. The SeqScan stays its
//! own operator: its `EXPLAIN` line, counters and span are unchanged, and
//! `EXPLAIN ANALYZE` runs this same path.
//!
//! A statement runs entirely on the thread that calls [`execute_plan`]:
//! each SeqScan `next_batch` reads and filters one [`MORSEL_PAGES`] range,
//! and every other operator works on the batches it pulls. Concurrency is
//! between statements — the server bounds how many run at once — not
//! within one.

mod agg;
pub mod stats;

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::compile::{compile, infallible, CompiledExpr, ScanFilter};
use crate::expr::func::FunctionRegistry;
use crate::fxhash::hash_one;
use crate::plan::{PhysicalPlan, Probe};
use crate::sql::ast::{Expr, JoinKind};
use crate::storage::colpage::{ColBound, ColumnPage};
use crate::storage::heap::Rid;
use crate::tuple::Row;
use stats::{stats_tree, OpStats, OpStatsSnapshot};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

/// Target rows per batch pulled through the operator tree.
pub const BATCH_ROWS: usize = 1024;
/// Heap pages a SeqScan reads per batch.
pub const MORSEL_PAGES: u32 = 32;

/// The storage operations the executor needs; implemented by the engine.
pub trait StorageAccess {
    /// Scan up to `max_pages` heap pages starting at `first_page`: apply
    /// the [`ScanSpec`]'s whole filter and append the [`ScanSpec::emit`]
    /// values of every surviving row to `out`, row after row in heap
    /// order. Returns the page to continue from, how many pages the range
    /// covered and how many rows it appended; a range past the end visits
    /// nothing and reports no next page. Pages the spec's bounds let a zone
    /// map refute are skipped unread. A page served from a column image
    /// runs the filter's kernel leaves a column at a time and evaluates the
    /// residual only on their survivors; any other page — a dirty table's,
    /// the tail, one with overflow rows, the virtual page — decodes the
    /// referenced columns of each row and runs the filter on it. Either way
    /// only survivors' values are written. With `pages`, an image page is
    /// not written out: it is pushed there whole with its survivors'
    /// selection vector and its place among the appended rows, and only
    /// row-path pages append rows.
    fn scan_batches(
        &self,
        table_id: u32,
        first_page: u32,
        max_pages: u32,
        spec: &ScanSpec,
        out: &mut Vec<Datum>,
        pages: Option<&mut Vec<ImagePage>>,
    ) -> DbResult<ScanProgress>;
    /// Fetch specific rows (missing rids are skipped).
    fn fetch_rids(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<Row>>;
    /// Candidate rids of `probe`, answered by the index on `column` that
    /// serves it.
    fn index_probe(&self, table_id: u32, column: &str, probe: &Probe) -> DbResult<Vec<Rid>>;
}

/// What a SeqScan reads, tests and keeps of each row, built once per scan
/// iterator by `scan_spec` from its filter and the columns its consumers
/// read.
pub struct ScanSpec {
    /// Columns `0..prefix` are decoded on the row path: the highest
    /// position the filter or a consumer reads, plus one.
    pub prefix: usize,
    /// Within the prefix, which columns are actually referenced. `None`
    /// means all of them; with a mask, unreferenced positions are skipped
    /// during decode and surface as `Datum::Null` placeholders.
    pub mask: Option<Vec<bool>>,
    /// The table positions a surviving row carries into the batch,
    /// ascending: the scan's layout, what its consumers read.
    pub emit: Vec<usize>,
    /// The scan's filter, split into kernel leaves and a per-row residual
    /// ([`CompiledExpr::split`]).
    pub filter: ScanFilter,
    /// The positions the residual reads: what a column image fills in for
    /// each row the leaves keep.
    pub residual_cols: Vec<usize>,
    /// Zone-map bounds implied by the kernel leaves, so empty unless the
    /// *whole* filter is error-free: skipping a page must never skip an
    /// evaluation error the engine mandates.
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

/// The scan spec for a SeqScan whose consumers read `need` (its layout),
/// filtered by `filter`.
fn scan_spec(need: Need, filter: Option<CompiledExpr>) -> ScanSpec {
    let reads = reading(need.clone(), &filter);
    let prefix = reads.last().map_or(0, |m| m + 1);
    // A mask that keeps every prefix column is just a prefix decode; leave
    // it off so the scan takes the branch-free dense loop.
    // `segments_decoded` counts the same either way.
    let mask = (reads.len() < prefix).then(|| (0..prefix).map(|c| reads.contains(&c)).collect());
    // Only an error-free filter is split into leaves, and only leaves give
    // bounds: a skipped page must not swallow a runtime error (division by
    // zero, type mismatch) the engine is required to raise.
    let filter = filter.map_or_else(ScanFilter::default, CompiledExpr::split);
    let residual_cols = reading(Need::new(), &filter.residual).into_iter().collect();
    let bounds = filter.bounds();
    ScanSpec { prefix, mask, emit: need.into_iter().collect(), filter, residual_cols, bounds }
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
    /// The survivors of the filter: rows appended, and rows selected in
    /// the image pages handed over.
    pub rows: usize,
    /// Columns read: referenced columns × pages with at least one live
    /// row — decoded on the row path, served on the column-image path —
    /// identical on both.
    pub segments_decoded: u64,
}

/// An image page a scan hands over whole ([`StorageAccess::scan_batches`]).
pub struct ImagePage {
    /// Rows appended before this page's, in heap order: where it lies among
    /// the rows.
    pub at: usize,
    pub page: Arc<ColumnPage>,
    /// The rows that passed the whole filter, ascending.
    pub sel: Vec<u32>,
}

/// Execute a plan to completion, collecting every emitted batch.
pub fn execute_plan(
    storage: &dyn StorageAccess,
    funcs: &FunctionRegistry,
    plan: &PhysicalPlan,
) -> DbResult<Vec<Row>> {
    let mut query_span = genalg_obs::tracer().span("exec.query");
    let need = all_columns(plan);
    let (it, _) = build_iter(storage, funcs, plan, need, None, query_span.id(), false)?;
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
    let (it, _) = build_iter(storage, funcs, plan, need, Some(&root), query_span.id(), false)?;
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
/// [`PhysicalPlan::Nothing`] emits) occupies no datums. A SeqScan feeding
/// an Aggregate adds the image pages it hands over whole (`pages`), each
/// placed among the rows; no other operator ever sees one.
#[derive(Default)]
struct Batch {
    data: Vec<Datum>,
    width: usize,
    /// Rows in `data`.
    rows: usize,
    pages: Vec<ImagePage>,
}

impl Batch {
    fn with_capacity(width: usize, rows: usize) -> Batch {
        Batch { data: Vec::with_capacity(width * rows), width, rows: 0, pages: Vec::new() }
    }

    /// Rows in `data` and in the pages.
    fn len(&self) -> usize {
        self.rows + self.pages.iter().map(|p| p.sel.len()).sum::<usize>()
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
///
/// `whole_pages` is set by an Aggregate for its input: a SeqScan then hands
/// over the image pages it serves whole ([`ImagePage`]) instead of copying
/// their survivors into the batch. Every other operator ignores it.
fn build_iter<'a>(
    storage: &'a dyn StorageAccess,
    funcs: &'a FunctionRegistry,
    plan: &PhysicalPlan,
    need: Need,
    stats: Option<&Arc<OpStats>>,
    span_parent: u64,
    whole_pages: bool,
) -> DbResult<(BoxIter<'a>, Layout)> {
    let child = |i: usize| stats.map(|s| &s.children[i]);
    let build = |input: &PhysicalPlan, need: Need, i: usize| {
        build_iter(storage, funcs, input, need, child(i), span_parent, false)
    };
    let (it, layout): (BoxIter<'a>, Layout) = match plan {
        PhysicalPlan::Nothing => (Box::new(NothingIter { done: false }), Layout::new()),
        PhysicalPlan::SeqScan { table_id, residual, columns, .. } => {
            let filter = compile_opt(residual.as_ref(), columns, funcs)?;
            let spec = scan_spec(need, filter);
            let layout = spec.emit.clone();
            let scan = SeqScanIter {
                storage,
                table_id: *table_id,
                spec,
                next_page: Some(0),
                whole_pages,
                stats: stats.map(Arc::clone),
            };
            (Box::new(scan), layout)
        }
        PhysicalPlan::IndexScan { table_id, column, probe, residual, columns, .. } => {
            let rids = storage.index_probe(*table_id, column, probe)?;
            let filter = compile_opt(residual.as_ref(), columns, funcs)?;
            let width = columns.len();
            let scan = IndexScanIter { storage, table_id: *table_id, rids, pos: 0, filter, width };
            (Box::new(scan), identity(width))
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
            let (left_it, left_layout) = build(left, reading(left_need.clone(), [&left_k]), 0)?;
            let (right_it, right_layout) =
                build(right, reading(right_need.clone(), [&right_k]), 1)?;
            left_k.remap(&left_layout);
            right_k.remap(&right_layout);
            // Where each side's need lies in its rows.
            let at = |need: Need, layout: Layout| -> Vec<usize> {
                need.iter()
                    .map(|c| layout.binary_search(c).expect("a layout covers its need"))
                    .collect()
            };
            let left = (left_it, left_k, at(left_need, left_layout));
            let right = (right_it, right_k, at(right_need, right_layout));
            let ((build_it, build_key, build_pick), (probe, probe_key, probe_pick)) =
                if *build_left { (left, right) } else { (right, left) };
            let join = HashJoinIter {
                probe,
                build: Some(build_it),
                build_rows: Batch::default(),
                table: KeyTable::with_capacity(0),
                probe_key,
                build_key,
                probe_pick,
                build_pick,
                build_is_left: *build_left,
                left_outer: *kind == JoinKind::Left,
                stats: stats.map(Arc::clone),
            };
            (Box::new(join), need.into_iter().collect())
        }
        PhysicalPlan::Aggregate { input, group_by, calls } => {
            let in_bindings = input.bindings();
            let mut group_by = compile_all(group_by, &in_bindings, funcs)?;
            let mut args = calls
                .iter()
                .map(|c| compile_opt(c.arg.as_ref(), &in_bindings, funcs))
                .collect::<DbResult<Vec<_>>>()?;
            let need = reading(Need::new(), group_by.iter().chain(args.iter().flatten()));
            // The one consumer a SeqScan hands its image pages to whole.
            let (input, layout) =
                build_iter(storage, funcs, input, need, child(0), span_parent, true)?;
            group_by.iter_mut().chain(args.iter_mut().flatten()).for_each(|e| e.remap(&layout));
            let width = group_by.len() + calls.len();
            let stats = stats.map(Arc::clone);
            let agg = agg::AggregateIter::new(input, layout, group_by, args, calls, funcs, stats);
            (Box::new(agg), identity(width))
        }
        PhysicalPlan::Sort { input, keys: sort_keys } => {
            let mut keys = compile_all(sort_keys.iter().map(|(e, _)| e), &input.bindings(), funcs)?;
            let (input, layout) = build(input, reading(need, &keys), 0)?;
            keys.iter_mut().for_each(|k| k.remap(&layout));
            let dirs = sort_keys.iter().map(|(_, asc)| *asc).collect();
            (Box::new(SortIter { input: Some(input), keys, dirs }), layout)
        }
        PhysicalPlan::TopN { input, keys: sort_keys, n, offset } => {
            let mut keys = compile_all(sort_keys.iter().map(|(e, _)| e), &input.bindings(), funcs)?;
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
            let seen = Batch::with_capacity(layout.len(), 0);
            (Box::new(DistinctIter { input, table: KeyTable::with_capacity(0), seen }), layout)
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
fn compile_opt(
    expr: Option<&Expr>,
    bindings: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<Option<CompiledExpr>> {
    expr.map(|e| compile(e, bindings, funcs)).transpose()
}

fn compile_all<'e>(
    exprs: impl IntoIterator<Item = &'e Expr>,
    bindings: &[crate::expr::eval::ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<Vec<CompiledExpr>> {
    exprs.into_iter().map(|e| compile(e, bindings, funcs)).collect()
}

/// Could executing this subtree raise an expression-evaluation error?
/// Conservative (see [`infallible`]); `LIMIT` uses it to decide whether
/// short-circuiting is observationally safe.
fn plan_fallible(plan: &PhysicalPlan) -> bool {
    let exprs_ok = |exprs: &[&Expr]| exprs.iter().all(|e| infallible(e));
    match plan {
        PhysicalPlan::Nothing => false,
        PhysicalPlan::SeqScan { residual, .. } | PhysicalPlan::IndexScan { residual, .. } => {
            !exprs_ok(&residual.iter().collect::<Vec<_>>())
        }
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
        Ok(Some(Batch { rows: 1, ..Batch::default() }))
    }
}

/// Streaming heap scan. Each `next_batch` reads one [`MORSEL_PAGES`]
/// range, and [`StorageAccess::scan_batches`] writes only the rows that
/// pass the whole filter — its kernel leaves a column at a time on pages a
/// column image serves, per row elsewhere — and only their layout columns,
/// straight into the batch; for an Aggregate, image pages go into the
/// batch whole, with their selection vectors.
struct SeqScanIter<'a> {
    storage: &'a dyn StorageAccess,
    table_id: u32,
    /// What to decode, the filter, what to emit (the layout) and which
    /// pages the zone maps may refute.
    spec: ScanSpec,
    next_page: Option<u32>,
    /// Hand image pages over whole: the consumer is an Aggregate.
    whole_pages: bool,
    /// `EXPLAIN ANALYZE` node to attribute `pages_read`, `pages_skipped`
    /// and `segments_decoded` to.
    stats: Option<Arc<OpStats>>,
}

impl BatchIter for SeqScanIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(first_page) = self.next_page else { return Ok(None) };
        let mut out = Batch::with_capacity(self.spec.emit.len(), 0);
        let progress = self.storage.scan_batches(
            self.table_id,
            first_page,
            MORSEL_PAGES,
            &self.spec,
            &mut out.data,
            self.whole_pages.then_some(&mut out.pages),
        )?;
        out.rows = progress.rows - out.pages.iter().map(|p| p.sel.len()).sum::<usize>();
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

/// Index scans: the rid list is materialized by the probe, rows are
/// fetched in [`BATCH_ROWS`] chunks.
struct IndexScanIter<'a> {
    storage: &'a dyn StorageAccess,
    table_id: u32,
    rids: Vec<Rid>,
    pos: usize,
    filter: Option<CompiledExpr>,
    width: usize,
}

impl BatchIter for IndexScanIter<'_> {
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

/// Each distinct row is copied exactly once, into `seen`, and found again
/// through the key table; duplicates are dropped without ever being
/// copied, and the batch is compacted in place.
struct DistinctIter<'a> {
    input: BoxIter<'a>,
    table: KeyTable,
    /// Every distinct row so far, in first-seen order: key table entry `i`.
    seen: Batch,
}

impl BatchIter for DistinctIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut batch) = self.input.next_batch()? else { return Ok(None) };
        let (table, seen) = (&mut self.table, &mut self.seen);
        batch.retain(|row| {
            let hash = hash_one(row);
            if table.find(hash, |i| seen.row(i) == row).is_some() {
                return Ok(false);
            }
            table.insert(hash)?;
            seen.data.extend_from_slice(row);
            seen.end_row();
            Ok(true)
        })?;
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

/// The end of a key-table chain.
const NIL: u32 = u32::MAX;

/// One chained hash table over keys its owner keeps: entry `i` is the
/// owner's `i`th key, of which the table holds only the hash. `heads` has a
/// power of two ≥ 2 × entries buckets, each the newest entry hashing there;
/// `next` links every entry to the next older one in its bucket. A chain
/// compares a key only where the stored hash matches, and growing relinks
/// from the stored hashes without hashing a key again.
struct KeyTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
}

impl KeyTable {
    fn with_capacity(entries: usize) -> KeyTable {
        let heads = vec![NIL; (2 * entries).next_power_of_two()];
        KeyTable { heads, next: Vec::with_capacity(entries), hashes: Vec::with_capacity(entries) }
    }

    /// The entries whose stored hash is `hash`, newest first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut i = self.heads[hash as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while i != NIL {
                let e = i as usize;
                i = self.next[e];
                if self.hashes[e] == hash {
                    return Some(e);
                }
            }
            None
        })
    }

    /// The newest entry hashing to `hash` whose key `eq` accepts.
    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<usize> {
        self.chain(hash).find(|&e| eq(e))
    }

    /// Add the next entry, hashing to `hash`, at the head of its chain.
    fn insert(&mut self, hash: u64) -> DbResult<usize> {
        let e = self.hashes.len();
        if e >= NIL as usize {
            return Err(DbError::Unsupported("a hash table holds fewer than 2^32 - 1 keys".into()));
        }
        self.hashes.push(hash);
        self.next.push(NIL);
        // Doubling keeps heads ≥ 2 × entries; it relinks every entry,
        // oldest first, so chains stay newest first.
        let grow = self.heads.len() < 2 * self.hashes.len();
        if grow {
            self.heads = vec![NIL; 2 * self.heads.len()];
        }
        for e in if grow { 0 } else { e }..=e {
            let bucket = self.hashes[e] as usize & (self.heads.len() - 1);
            self.next[e] = std::mem::replace(&mut self.heads[bucket], e as u32);
        }
        Ok(e)
    }
}

/// Hash join over one [`KeyTable`]. The build side (chosen by the planner's
/// statistics — `build=left|right` in `EXPLAIN`) is drained once and its
/// keys read once, in build order; each row with a non-NULL key is kept as
/// its key followed by the build side's needed values, inserted in reverse
/// build order so that a chain walks in build order and duplicate keys
/// match in build order.
///
/// Emitted rows are the join's need: the left side's needed values, then
/// the right side's, whichever side was built. For LEFT joins the build
/// side is always the right (padded) side; unmatched probe rows — including
/// rows whose key is NULL, which never joins anything — are padded with
/// NULLs.
struct HashJoinIter<'a> {
    probe: BoxIter<'a>,
    build: Option<BoxIter<'a>>,
    /// Key table entry `i`: its key, then the build side's needed values.
    build_rows: Batch,
    table: KeyTable,
    probe_key: CompiledExpr,
    build_key: CompiledExpr,
    /// Where each side's needed values lie in its input's rows.
    probe_pick: Vec<usize>,
    build_pick: Vec<usize>,
    /// The build side is the plan's *left* input: emit build ++ probe.
    build_is_left: bool,
    /// LEFT OUTER join (probe side preserved, build side padded).
    left_outer: bool,
    /// `EXPLAIN ANALYZE` node for `partitions` / `build_rows`.
    stats: Option<Arc<OpStats>>,
}

impl HashJoinIter<'_> {
    fn build_table(&mut self, build: BoxIter<'_>) -> DbResult<()> {
        let rows = drain(build)?;
        let keys = rows
            .iter()
            .map(|r| self.build_key.read(r, &mut None).cloned())
            .collect::<DbResult<Vec<_>>>()?;
        self.table = KeyTable::with_capacity(rows.len());
        self.build_rows = Batch::with_capacity(1 + self.build_pick.len(), rows.len());
        for (i, key) in keys.into_iter().enumerate().rev() {
            // NULL never equals anything, including NULL (3VL).
            if !key.is_null() {
                self.table.insert(hash_one(&key))?;
                self.build_rows.data.push(key);
                pick(&mut self.build_rows, rows.row(i), &self.build_pick);
                self.build_rows.end_row();
            }
        }
        if let Some(stats) = &self.stats {
            stats.partitions.store(1, AtomicOrdering::Relaxed);
            stats.build_rows.store(rows.len() as u64, AtomicOrdering::Relaxed);
        }
        Ok(())
    }
}

/// Append `row`'s values at `positions` to the row `out` is writing.
fn pick(out: &mut Batch, row: &[Datum], positions: &[usize]) {
    out.data.extend(positions.iter().map(|&c| row[c].clone()));
}

impl BatchIter for HashJoinIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some(build) = self.build.take() {
            self.build_table(build)?;
        }
        let Some(batch) = self.probe.next_batch()? else { return Ok(None) };
        let width = self.probe_pick.len() + self.build_pick.len();
        let mut out = Batch::with_capacity(width, batch.len());
        for p in batch.iter() {
            let mut slot = None;
            let key = self.probe_key.read(p, &mut slot)?;
            // A NULL key walks a chain too, and matches nothing in it: no
            // NULL is linked.
            let mut matched = false;
            for e in self.table.chain(hash_one(key)) {
                let b = self.build_rows.row(e);
                if b[0] == *key {
                    let at = out.data.len();
                    pick(&mut out, p, &self.probe_pick);
                    out.data.extend_from_slice(&b[1..]);
                    if self.build_is_left {
                        out.data[at..].rotate_left(self.probe_pick.len());
                    }
                    out.end_row();
                    matched = true;
                }
            }
            // LEFT join: the probe row survives with the build side
            // padded — also the path a NULL probe key takes.
            if !matched && self.left_outer {
                pick(&mut out, p, &self.probe_pick);
                out.end_row();
            }
        }
        Ok(Some(out))
    }
}
