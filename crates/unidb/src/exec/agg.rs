//! The Aggregate: GROUP BY and aggregate calls, folded over column images.
//!
//! A SeqScan feeding an Aggregate hands over each image page it serves
//! whole — the [`ColumnPage`](crate::storage::colpage::ColumnPage) and the
//! rows that passed the scan's filter ([`ImagePage`](super::ImagePage)) —
//! instead of copying those rows' values into the batch; every other row
//! arrives as a row (a row-path page of that scan, or a batch of a join or
//! an index scan). There is one fold, generic over what it reads rows from
//! ([`Rows`]): an image page with its selection vector, or a run of a
//! batch's rows read where they lie. Pages and rows are folded in the order
//! the input produced them, so groups appear in first-seen order whatever
//! served them.
//!
//! The fold reads each group key and argument in place, per page or run:
//! - a dictionary-coded key column maps each code to its group once, on
//!   the code's first sight in the page, so a TEXT key is hashed once per
//!   distinct value and page, not once per row;
//! - any other plain column is read where it lies: a typed `i64`/`f64`
//!   as a number, a decoded value by reference; a lone INT key remembers
//!   the group of each recent value, so a repeated value is not hashed;
//! - a bound call of one column with a page-at-a-time entry
//!   ([`BoundColumnFn`](crate::expr::func::BoundColumnFn)) is computed for
//!   the page's selected rows in one call;
//! - anything else — and a call whose entry refused the page — is
//!   evaluated per row: on the batch row itself, or for an image on a row
//!   holding the columns it reads.
//!
//! Numbers are then folded a page at a time. When every key is read
//! without evaluation, the fold first finds each row's group, then sorts
//! the page's rows by group, stably, and hands each group's non-NULL INT
//! or FLOAT values of a call — `count(*)`, a column an image holds as INT
//! or FLOAT (or any column of batch rows) or a page-entry output, without
//! `DISTINCT` — to its accumulator's typed entry
//! ([`Accumulator::update_ints`]) in one call per group and call; a page
//! with no such call is not sorted. What is left — other calls, any group
//! and call whose typed entry refused, and every group of a call its first
//! group refused — is folded row after row, keys before arguments and
//! calls in order, exactly as a per-row fold would. Neither the page
//! entries nor the typed entries ever fail (they refuse instead), and
//! finding groups cannot raise, so the first error in row order is the one
//! reported; each group sees its values in row order, so float sums add in
//! the same order. The sort costs a page's rows, not the number of groups.

use super::rows::{computed_reads, Flat, Rows, Run, ScratchRow};
use super::stats::OpStats;
use super::{Batch, BatchIter, BoxIter, KeyTable, Layout, NIL};
use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::compile::CompiledExpr;
use crate::expr::func::{Accumulator, AggregateFn, FunctionRegistry};
use crate::fxhash::hash_one;
use crate::plan::AggCall;
use std::collections::HashSet;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

pub(super) struct AggregateIter<'a> {
    input: Option<BoxIter<'a>>,
    group_by: Vec<CompiledExpr>,
    /// Compiled argument per call; `None` is `count(*)`.
    args: Vec<Option<CompiledExpr>>,
    calls: Vec<AggCall>,
    funcs: &'a FunctionRegistry,
    /// The input's layout: the table column each position of a handed-over
    /// image page is read from.
    layout: Layout,
    /// `EXPLAIN ANALYZE` node for `partitions`.
    stats: Option<Arc<OpStats>>,
}

impl<'a> AggregateIter<'a> {
    pub(super) fn new(
        input: BoxIter<'a>,
        layout: Layout,
        group_by: Vec<CompiledExpr>,
        args: Vec<Option<CompiledExpr>>,
        calls: &[AggCall],
        funcs: &'a FunctionRegistry,
        stats: Option<Arc<OpStats>>,
    ) -> Self {
        let calls = calls.to_vec();
        AggregateIter { input: Some(input), group_by, args, calls, funcs, layout, stats }
    }
}

/// What `count(*)` folds per row: a non-null marker.
static ROW_MARKER: Datum = Datum::Int(1);

/// Per-group aggregate state.
struct Group {
    accs: Vec<Box<dyn Accumulator>>,
    distinct_seen: Vec<HashSet<Datum>>,
}

/// The groups so far, in first-seen order (the emission order): group `g`'s
/// key is `keys[g * n..][..n]`, copied once, when it is new.
struct Groups<'a> {
    calls: &'a [AggCall],
    /// Each call's aggregate, looked up once.
    factories: Vec<&'a AggregateFn>,
    n: usize,
    groups: Vec<Group>,
    keys: Vec<Datum>,
    table: KeyTable,
}

impl Groups<'_> {
    fn make_group(&self) -> Group {
        let accs = self.factories.iter().map(|f| f()).collect();
        Group { accs, distinct_seen: vec![HashSet::new(); self.calls.len()] }
    }

    /// The group of `key` (its `n` values), made when it is new. One key
    /// hashes as a `Datum`, several as a slice.
    #[inline]
    fn group_of(&mut self, key: &[Datum]) -> DbResult<usize> {
        let hash = if let [k] = key { hash_one(k) } else { hash_one(key) };
        let (keys, n) = (&self.keys, self.n);
        match self.table.find(hash, |g| keys[g * n..][..n] == *key) {
            Some(g) => Ok(g),
            None => self.new_group(key, hash),
        }
    }

    #[cold]
    fn new_group(&mut self, key: &[Datum], hash: u64) -> DbResult<usize> {
        let group = self.make_group();
        self.keys.extend_from_slice(key);
        self.groups.push(group);
        self.table.insert(hash)
    }

    #[inline]
    fn apply(&mut self, g: usize, ci: usize, value: &Datum) -> DbResult<()> {
        let (call, group) = (&self.calls[ci], &mut self.groups[g]);
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
}

/// How one key or argument is read for the rows of one page.
enum Source<'e> {
    /// `count(*)`.
    Marker,
    Literal(&'e Datum),
    /// A column of the page, read in place.
    Column(usize),
    /// Output `i` of the page entry computed into buffer `k`.
    Computed(usize),
    /// Evaluated per row on the scratch row.
    PerRow(&'e CompiledExpr),
}

/// The reusable buffers of the fold.
#[derive(Default)]
struct Scratch {
    /// The row per-row expressions read.
    row: ScratchRow,
    /// Page-entry outputs, one buffer per call.
    outs: Vec<Vec<Datum>>,
    keys: KeyScratch,
    sorted: ByGroup,
    ints: Vec<i64>,
    floats: Vec<f64>,
    /// `count(*)`'s values: a `1` per row.
    ones: Vec<i64>,
}

/// What finding a row's group keeps between rows.
#[derive(Default)]
struct KeyScratch {
    /// Group slot per dictionary code of this page's key (`NIL`: unseen).
    slots: Vec<u32>,
    /// A key's values, gathered.
    key: Vec<Datum>,
    /// The group of recent INT key values, by value modulo [`INT_SLOTS`].
    ints: Vec<(i64, u32)>,
}

/// A page's selected rows sorted by group, for the typed entries.
#[derive(Default)]
struct ByGroup {
    /// The page's groups, in first-seen order: its *local* groups.
    present: Vec<u32>,
    /// The local group of each global group (`NIL`: not in this page).
    local: Vec<u32>,
    /// The local group of each selected row.
    of_row: Vec<u32>,
    /// Where each local group's rows end in `order`.
    ends: Vec<u32>,
    /// Selected-row indexes, grouped, each group's in row order; and the
    /// rows they select.
    order: Vec<u32>,
    rows: Vec<u32>,
    /// Per local group and call: folded row by row.
    refused: Vec<bool>,
}

impl ByGroup {
    /// Start a page of `rows` selected rows, `groups` groups so far.
    fn clear(&mut self, groups: usize) {
        self.present.clear();
        self.of_row.clear();
        self.local.resize(groups, NIL);
    }

    /// Selected row `i` is in group `g`.
    #[inline]
    fn push(&mut self, g: usize) {
        if g >= self.local.len() {
            self.local.resize(g + 1, NIL);
        }
        if self.local[g] == NIL {
            self.local[g] = self.present.len() as u32;
            self.present.push(g as u32);
        }
        self.of_row.push(self.local[g]);
    }

    /// Sort the selected rows `sel` by local group, stably, and forget the
    /// page's groups for the next.
    fn sort(&mut self, sel: &[u32], calls: usize) {
        self.ends.clear();
        self.ends.resize(self.present.len(), 0);
        for &l in &self.of_row {
            self.ends[l as usize] += 1;
        }
        let mut start = 0;
        for end in &mut self.ends {
            (start, *end) = (start + *end, start);
        }
        self.order.resize(sel.len(), 0);
        self.rows.resize(sel.len(), 0);
        // Each group's next place: its start, then its end.
        for (i, &l) in self.of_row.iter().enumerate() {
            let at = &mut self.ends[l as usize];
            (self.order[*at as usize], self.rows[*at as usize]) = (i as u32, sel[i]);
            *at += 1;
        }
        for &g in &self.present {
            self.local[g as usize] = NIL;
        }
        self.refused.clear();
        self.refused.resize(self.present.len() * calls, false);
    }

    /// Put every selected row of `sel` in one group: a global aggregate's.
    fn one(&mut self, sel: &[u32], calls: usize) {
        self.present.clear();
        self.present.push(0);
        self.of_row.clear();
        self.of_row.resize(sel.len(), 0);
        self.ends.clear();
        self.ends.push(sel.len() as u32);
        self.order.clear();
        self.order.extend(0..sel.len() as u32);
        self.rows.clear();
        self.rows.extend_from_slice(sel);
        self.refused.clear();
        self.refused.resize(calls, false);
    }

    /// Local group `l`'s selected-row indexes and rows.
    fn group(&self, l: usize) -> (&[u32], &[u32]) {
        let start = if l == 0 { 0 } else { self.ends[l - 1] as usize };
        let end = self.ends[l] as usize;
        (&self.order[start..end], &self.rows[start..end])
    }
}

/// INT key values whose groups the fold remembers at once.
const INT_SLOTS: usize = 256;

impl AggregateIter<'_> {
    /// How `expr` is read over `page`, whose position `j` is column
    /// `cols[j]`: in place when it is a plain column; through the page
    /// entry of a one-column bound call, when `entry_out` gives a buffer
    /// `(out, k)` and the entry serves the whole page; per row otherwise.
    fn source<'e>(
        expr: &'e CompiledExpr,
        page: &impl Rows,
        sel: &[u32],
        cols: &[usize],
        entry_out: Option<(&mut Vec<Datum>, usize)>,
    ) -> Source<'e> {
        match (expr, entry_out) {
            (CompiledExpr::Column(j), _) => return Source::Column(cols[*j]),
            (CompiledExpr::Literal(d), _) => return Source::Literal(d),
            (CompiledExpr::BoundFunc { column: Some(entry), args, .. }, Some((out, k))) => {
                if let [CompiledExpr::Column(j)] = args.as_slice() {
                    let mut values = Vec::with_capacity(sel.len());
                    out.clear();
                    if page.refs(cols[*j], sel, &mut values) && entry(&values, out) {
                        debug_assert_eq!(out.len(), sel.len(), "one output per value");
                        return Source::Computed(k);
                    }
                    out.clear();
                }
            }
            _ => {}
        }
        Source::PerRow(expr)
    }

    /// Fold the rows `sel` of `page` into `groups`: numbers a group at a
    /// time through the typed entries, the rest row after row.
    fn fold(
        &self,
        groups: &mut Groups<'_>,
        page: &impl Rows,
        sel: &[u32],
        cols: &[usize],
        s: &mut Scratch,
    ) -> DbResult<()> {
        s.outs.resize_with(self.calls.len(), Vec::new);
        let args: Vec<Source<'_>> = self
            .args
            .iter()
            .zip(s.outs.iter_mut())
            .enumerate()
            .map(|(ci, (arg, out))| match arg {
                None => Source::Marker,
                Some(e) => Self::source(e, page, sel, cols, Some((out, ci))),
            })
            .collect();
        // A lone key held in a dictionary maps codes to groups; any other
        // key is read per row.
        let dict = match self.group_by.as_slice() {
            [CompiledExpr::Column(j)] => page.dict(cols[*j]),
            _ => None,
        };
        let keys: Vec<Source<'_>> = match dict {
            Some((_, values)) => {
                s.keys.slots.clear();
                s.keys.slots.resize(values.len(), NIL);
                Vec::new()
            }
            None => self.group_by.iter().map(|e| Self::source(e, page, sel, cols, None)).collect(),
        };
        // Per-row expressions read a batch row where it lies, and a row
        // filled in with the columns they read from an image.
        let per_row_exprs: Vec<&CompiledExpr> = args
            .iter()
            .chain(&keys)
            .filter_map(|k| if let Source::PerRow(e) = k { Some(*e) } else { None })
            .collect();
        let per_row = !per_row_exprs.is_empty();
        s.row.prepare(self.layout.len(), &computed_reads(per_row_exprs));
        s.keys.ints.resize(INT_SLOTS, (0, NIL));
        // Calls a typed entry may fold. Finding every row's group first
        // must not raise an error before one an earlier row's argument
        // raises, so only keys read without evaluation allow it. A column
        // the page holds as neither INT nor FLOAT (a dictionary, decoded
        // values) has no numbers to hand over, and a page without a typed
        // call is not sorted.
        let plain_keys = !keys.iter().any(|k| matches!(k, Source::PerRow(_)));
        let typed: Vec<bool> = args
            .iter()
            .zip(&self.calls)
            .map(|(arg, call)| {
                plain_keys
                    && !call.distinct
                    && match arg {
                        Source::Marker | Source::Computed(_) => true,
                        Source::Column(c) => {
                            page.ints(*c, &[], &mut s.ints) || page.floats(*c, &[], &mut s.floats)
                        }
                        _ => false,
                    }
            })
            .collect();
        let sorted = typed.contains(&true);
        if sorted {
            let by = &mut s.sorted;
            if self.group_by.is_empty() {
                by.one(sel, self.calls.len());
            } else {
                by.clear(groups.groups.len());
                for (i, &r) in sel.iter().enumerate() {
                    let g = group_of_row(
                        groups,
                        dict,
                        &keys,
                        page,
                        r as usize,
                        i,
                        &s.outs,
                        &[],
                        &mut s.keys,
                    )?;
                    by.push(g);
                }
                by.sort(sel, self.calls.len());
            }
            for (ci, arg) in args.iter().enumerate().filter(|&(ci, _)| typed[ci]) {
                for l in 0..by.present.len() {
                    let (idx, rows) = by.group(l);
                    let acc = &mut groups.groups[by.present[l] as usize].accs[ci];
                    let (ints, floats) = (&mut s.ints, &mut s.floats);
                    ints.clear();
                    floats.clear();
                    let folded = match arg {
                        Source::Marker => {
                            if s.ones.len() < rows.len() {
                                s.ones.resize(rows.len(), 1);
                            }
                            acc.update_ints(&s.ones[..rows.len()])
                        }
                        Source::Column(c) => typed_fold(&mut **acc, page, *c, rows, ints, floats),
                        Source::Computed(k) => {
                            let out = &s.outs[*k];
                            let flat = Flat { data: out, width: 1, rows: out.len() };
                            typed_fold(&mut **acc, &flat, 0, idx, ints, floats)
                        }
                        _ => unreachable!("only numbers are typed"),
                    };
                    if !folded && l == 0 {
                        // A call its first group refuses, such as one
                        // without typed entries, is folded row by row.
                        let nc = self.calls.len();
                        by.refused.iter_mut().skip(ci).step_by(nc).for_each(|r| *r = true);
                        break;
                    }
                    by.refused[l * self.calls.len() + ci] = !folded;
                }
            }
            let pending = typed.contains(&false) || by.refused.contains(&true);
            if !pending {
                return Ok(());
            }
        }
        let nc = self.calls.len();
        for (i, &r) in sel.iter().enumerate() {
            let r = r as usize;
            let row = match per_row {
                true => s.row.at(page, cols, r),
                false => &[],
            };
            let (g, local) = match sorted {
                true => {
                    let l = s.sorted.of_row[i] as usize;
                    (s.sorted.present[l] as usize, l)
                }
                false => {
                    (group_of_row(groups, dict, &keys, page, r, i, &s.outs, row, &mut s.keys)?, 0)
                }
            };
            for (ci, arg) in args.iter().enumerate() {
                if typed[ci] && !s.sorted.refused[local * nc + ci] {
                    continue;
                }
                let (mut tmp, mut slot) = (Datum::Null, None);
                let value = read(arg, page, r, i, &s.outs, row, &mut tmp, &mut slot)?;
                groups.apply(g, ci, value)?;
            }
        }
        Ok(())
    }
}

/// Hand a group's non-NULL values of `col` at `rows` to `acc`'s typed
/// entry: `false` when they are not all INT or all FLOAT, or the entry
/// refused them.
fn typed_fold(
    acc: &mut dyn Accumulator,
    page: &impl Rows,
    col: usize,
    rows: &[u32],
    ints: &mut Vec<i64>,
    floats: &mut Vec<f64>,
) -> bool {
    if page.ints(col, rows, ints) {
        return acc.update_ints(ints);
    }
    page.floats(col, rows, floats) && acc.update_floats(floats)
}

/// The group of row `r` (selected row `i`) of `page`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn group_of_row<R: Rows>(
    groups: &mut Groups<'_>,
    dict: Option<(&[u32], &[Datum])>,
    keys: &[Source<'_>],
    page: &R,
    r: usize,
    i: usize,
    outs: &[Vec<Datum>],
    row: &[Datum],
    s: &mut KeyScratch,
) -> DbResult<usize> {
    let mut tmp = Datum::Null;
    Ok(match dict {
        Some((codes, values)) => {
            let code = codes[r] as usize;
            if s.slots[code] == NIL {
                s.slots[code] = groups.group_of(std::slice::from_ref(&values[code]))? as u32;
            }
            s.slots[code] as usize
        }
        None => match keys {
            [] => 0,
            // An INT key's group is remembered by value: a repeated value
            // skips the hash and the chain.
            [Source::Column(c)] => match page.get(*c, r, &mut tmp) {
                key @ Datum::Int(v) => {
                    let seen = &mut s.ints[*v as usize % INT_SLOTS];
                    if seen.1 == NIL || seen.0 != *v {
                        *seen = (*v, groups.group_of(std::slice::from_ref(key))? as u32);
                    }
                    seen.1 as usize
                }
                key => groups.group_of(std::slice::from_ref(key))?,
            },
            [k] => {
                let mut slot = None;
                let key = read(k, page, r, i, outs, row, &mut tmp, &mut slot)?;
                groups.group_of(std::slice::from_ref(key))?
            }
            keys => {
                s.key.clear();
                for k in keys {
                    let (mut tmp, mut slot) = (Datum::Null, None);
                    let key = read(k, page, r, i, outs, row, &mut tmp, &mut slot)?;
                    s.key.push(key.clone());
                }
                groups.group_of(&s.key)?
            }
        },
    })
}

/// Row `r` (selected row `i`) of `source`. Always inlined: called out of
/// line, reading `count(*)`'s marker cost the fold ~20 ns a row, twice
/// what the rest of the row did.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn read<'a, R: Rows>(
    source: &'a Source<'a>,
    page: &'a R,
    r: usize,
    i: usize,
    outs: &'a [Vec<Datum>],
    row: &'a [Datum],
    tmp: &'a mut Datum,
    slot: &'a mut Option<std::borrow::Cow<'a, Datum>>,
) -> DbResult<&'a Datum> {
    Ok(match source {
        Source::Marker => &ROW_MARKER,
        Source::Literal(d) => d,
        Source::Column(c) => page.get(*c, r, tmp),
        Source::Computed(k) => &outs[*k][i],
        Source::PerRow(e) => e.read(row, slot)?,
    })
}

impl BatchIter for AggregateIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut input) = self.input.take() else { return Ok(None) };
        let n = self.group_by.len();
        let factories = self
            .calls
            .iter()
            .map(|c| {
                let name = || DbError::NotFound { kind: "aggregate", name: c.func.clone() };
                self.funcs.aggregate(&c.func).ok_or_else(name)
            })
            .collect::<DbResult<_>>()?;
        let mut groups = Groups {
            calls: &self.calls,
            factories,
            n,
            groups: Vec::new(),
            keys: Vec::new(),
            table: KeyTable::with_capacity(0),
        };
        // A global aggregate (no GROUP BY) has exactly one group, even over
        // zero rows, and every row folds straight into it.
        if n == 0 {
            let group = groups.make_group();
            groups.groups.push(group);
        }
        // The fold into the accumulators is sequential —
        // [`Accumulator`] is an open extension trait with no merge
        // operation. Streaming batch by batch means the input is never
        // fully materialized here.
        let mut s = Scratch::default();
        while let Some(batch) = input.next_batch()? {
            for run in batch.runs() {
                match run {
                    Run::Rows(flat) => {
                        let (sel, cols) = flat.all();
                        self.fold(&mut groups, &flat, &sel, &cols, &mut s)?
                    }
                    Run::Page(p) => {
                        self.fold(&mut groups, &*p.page, &p.sel, &self.layout, &mut s)?
                    }
                }
            }
        }

        if let Some(stats) = &self.stats {
            stats.partitions.store(1, AtomicOrdering::Relaxed);
        }

        let mut out = Batch::with_capacity(n + self.calls.len(), groups.groups.len());
        let mut keys = groups.keys.into_iter();
        for g in groups.groups {
            out.data.extend(keys.by_ref().take(n));
            out.data.extend(g.accs.iter().map(|acc| acc.finish()));
            out.end_row();
        }
        Ok(Some(out))
    }
}
