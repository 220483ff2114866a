//! The Aggregate: GROUP BY and aggregate calls, folded over column images.
//!
//! A SeqScan feeding an Aggregate hands over each image page it serves
//! whole — the [`ColumnPage`] and the rows that passed the scan's filter
//! ([`ImagePage`](super::ImagePage)) — instead of copying those rows'
//! values into the batch; every other row arrives as a row (a row-path
//! page of that scan, or a batch of a join or an index scan). There is one
//! fold, generic over what it reads rows from ([`Rows`]): an image page
//! with its selection vector, or a run of a batch's rows read where they
//! lie. Pages and rows are folded in the order the input produced them, so
//! groups appear in first-seen order whatever served them.
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
//! Values are then folded row after row, keys before arguments and calls
//! in order, exactly as a per-row fold would: the page entries never fail
//! (they refuse instead), so the first error in row order is the one
//! reported, and float sums add in the same order.

use super::stats::OpStats;
use super::{Batch, BatchIter, BoxIter, KeyTable, Layout, NIL};
use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::compile::CompiledExpr;
use crate::expr::func::{Accumulator, FunctionRegistry};
use crate::fxhash::hash_one;
use crate::plan::AggCall;
use crate::storage::colpage::ColumnPage;
use std::collections::{BTreeSet, HashSet};
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
    funcs: &'a FunctionRegistry,
    n: usize,
    groups: Vec<Group>,
    keys: Vec<Datum>,
    table: KeyTable,
}

impl Groups<'_> {
    fn make_group(&self) -> DbResult<Group> {
        let mut accs = Vec::with_capacity(self.calls.len());
        for c in self.calls {
            let factory = self
                .funcs
                .aggregate(&c.func)
                .ok_or(DbError::NotFound { kind: "aggregate", name: c.func.clone() })?;
            accs.push(factory());
        }
        Ok(Group { accs, distinct_seen: vec![HashSet::new(); self.calls.len()] })
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
        let group = self.make_group()?;
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

/// What the fold reads rows from: the selected rows of an image page, or
/// a run of a batch's rows where they lie.
trait Rows {
    /// Row `row`'s value of column `col`, in place or written into `tmp`.
    fn get<'a>(&'a self, col: usize, row: usize, tmp: &'a mut Datum) -> &'a Datum;
    /// Column `col`'s codes and distinct values, if it is a dictionary.
    fn dict(&self, col: usize) -> Option<(&[u32], &[Datum])>;
    /// Column `col`'s values at `sel`, by reference (`false`: not held as
    /// [`Datum`]s).
    fn refs<'a>(&'a self, col: usize, sel: &[u32], out: &mut Vec<&'a Datum>) -> bool;
    /// Row `row` as a row of the input, if it is one.
    fn row(&self, row: usize) -> Option<&[Datum]>;
}

impl Rows for ColumnPage {
    #[inline]
    fn get<'a>(&'a self, col: usize, row: usize, tmp: &'a mut Datum) -> &'a Datum {
        ColumnPage::get(self, col, row, tmp)
    }
    fn dict(&self, col: usize) -> Option<(&[u32], &[Datum])> {
        ColumnPage::dict(self, col)
    }
    fn refs<'a>(&'a self, col: usize, sel: &[u32], out: &mut Vec<&'a Datum>) -> bool {
        ColumnPage::refs(self, col, sel, out)
    }
    fn row(&self, _: usize) -> Option<&[Datum]> {
        None
    }
}

/// Rows of a batch, `width` values each, row after row.
struct Flat<'b> {
    data: &'b [Datum],
    width: usize,
}

impl Rows for Flat<'_> {
    #[inline]
    fn get<'a>(&'a self, col: usize, row: usize, _: &'a mut Datum) -> &'a Datum {
        &self.data[row * self.width + col]
    }
    fn dict(&self, _: usize) -> Option<(&[u32], &[Datum])> {
        None
    }
    fn refs<'a>(&'a self, col: usize, sel: &[u32], out: &mut Vec<&'a Datum>) -> bool {
        out.extend(sel.iter().map(|&r| &self.data[r as usize * self.width + col]));
        true
    }
    #[inline]
    fn row(&self, row: usize) -> Option<&[Datum]> {
        Some(&self.data[row * self.width..][..self.width])
    }
}

/// The reusable buffers of the fold.
#[derive(Default)]
struct Scratch {
    /// One input row, holding only what per-row expressions read.
    row: Vec<Datum>,
    /// Layout positions to fill in `row` for this page.
    fill: BTreeSet<usize>,
    /// Page-entry outputs, one buffer per call.
    outs: Vec<Vec<Datum>>,
    /// Group slot per dictionary code of this page's key (`NIL`: unseen).
    slots: Vec<u32>,
    /// A key's values, gathered.
    key: Vec<Datum>,
    /// The group of recent INT key values, by value modulo [`INT_SLOTS`].
    ints: Vec<(i64, u32)>,
}

/// INT key values whose groups the fold remembers at once.
const INT_SLOTS: usize = 256;

impl AggregateIter<'_> {
    /// How `expr` is read over `page`, whose position `j` is column
    /// `cols[j]`: in place when it is a plain column; through the page
    /// entry of a one-column bound call, when `entry_out` gives a buffer
    /// `(out, k)` and the entry serves the whole page; per row otherwise,
    /// with the columns it reads added to `fill`.
    fn source<'e>(
        expr: &'e CompiledExpr,
        page: &impl Rows,
        sel: &[u32],
        cols: &[usize],
        entry_out: Option<(&mut Vec<Datum>, usize)>,
        fill: &mut BTreeSet<usize>,
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
        expr.collect_columns(fill);
        Source::PerRow(expr)
    }

    /// Fold the rows `sel` of `page` into `groups`, row after row.
    fn fold(
        &self,
        groups: &mut Groups<'_>,
        page: &impl Rows,
        sel: &[u32],
        cols: &[usize],
        s: &mut Scratch,
    ) -> DbResult<()> {
        s.fill.clear();
        s.outs.resize_with(self.calls.len(), Vec::new);
        let args: Vec<Source<'_>> = self
            .args
            .iter()
            .zip(s.outs.iter_mut())
            .enumerate()
            .map(|(ci, (arg, out))| match arg {
                None => Source::Marker,
                Some(e) => Self::source(e, page, sel, cols, Some((out, ci)), &mut s.fill),
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
                s.slots.clear();
                s.slots.resize(values.len(), NIL);
                Vec::new()
            }
            None => self
                .group_by
                .iter()
                .map(|e| Self::source(e, page, sel, cols, None, &mut s.fill))
                .collect(),
        };
        s.row.resize(self.layout.len(), Datum::Null);
        s.ints.resize(INT_SLOTS, (0, NIL));
        // Per-row expressions read a batch row where it lies, and a row
        // filled in with the columns they read from an image.
        let per_row = args.iter().chain(&keys).any(|k| matches!(k, Source::PerRow(_)));
        let fill: Vec<usize> = match page.row(0) {
            Some(_) => Vec::new(),
            None => s.fill.iter().copied().collect(),
        };
        for (i, &r) in sel.iter().enumerate() {
            let r = r as usize;
            for &j in &fill {
                let mut tmp = Datum::Null;
                s.row[j] = page.get(cols[j], r, &mut tmp).clone();
            }
            let row = match per_row {
                true => page.row(r).unwrap_or(&s.row),
                false => &[],
            };
            let mut tmp = Datum::Null;
            let g = match dict {
                Some((codes, values)) => {
                    let code = codes[r] as usize;
                    if s.slots[code] == NIL {
                        s.slots[code] =
                            groups.group_of(std::slice::from_ref(&values[code]))? as u32;
                    }
                    s.slots[code] as usize
                }
                None => match keys.as_slice() {
                    [] => 0,
                    // An INT key's group is remembered by value: a repeated
                    // value skips the hash and the chain.
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
                        let (mut tmp, mut slot) = (Datum::Null, None);
                        let key = read(k, page, r, i, &s.outs, row, &mut tmp, &mut slot)?;
                        groups.group_of(std::slice::from_ref(key))?
                    }
                    keys => {
                        s.key.clear();
                        for k in keys {
                            let (mut tmp, mut slot) = (Datum::Null, None);
                            let key = read(k, page, r, i, &s.outs, row, &mut tmp, &mut slot)?;
                            s.key.push(key.clone());
                        }
                        groups.group_of(&s.key)?
                    }
                },
            };
            for (ci, arg) in args.iter().enumerate() {
                let (mut tmp, mut slot) = (Datum::Null, None);
                let value = read(arg, page, r, i, &s.outs, row, &mut tmp, &mut slot)?;
                groups.apply(g, ci, value)?;
            }
        }
        Ok(())
    }
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
        let mut groups = Groups {
            calls: &self.calls,
            funcs: self.funcs,
            n,
            groups: Vec::new(),
            keys: Vec::new(),
            table: KeyTable::with_capacity(0),
        };
        // A global aggregate (no GROUP BY) has exactly one group, even over
        // zero rows, and every row folds straight into it.
        if n == 0 {
            let group = groups.make_group()?;
            groups.groups.push(group);
        }
        // The fold into the accumulators is sequential —
        // [`Accumulator`] is an open extension trait with no merge
        // operation. Streaming batch by batch means the input is never
        // fully materialized here.
        let mut s = Scratch::default();
        while let Some(batch) = input.next_batch()? {
            let Batch { data, width, rows, pages } = batch;
            let identity: Layout = (0..width).collect();
            let mut done = 0;
            // The rows before each handed-over page, then the page; then
            // the rows after the last.
            let ends = pages.iter().map(|p| p.at).chain([rows]);
            for (end, page) in ends.zip(pages.iter().map(Some).chain([None])) {
                if end > done {
                    let flat = Flat { data: &data[done * width..end * width], width };
                    let all: Vec<u32> = (0..(end - done) as u32).collect();
                    self.fold(&mut groups, &flat, &all, &identity, &mut s)?;
                    done = end;
                }
                if let Some(p) = page {
                    self.fold(&mut groups, &*p.page, &p.sel, &self.layout, &mut s)?;
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
