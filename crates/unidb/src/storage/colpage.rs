//! Columnar (column-group) pages, scan kernels and per-page zone maps.
//!
//! A columnar page is an in-memory image of one heap page's live rows,
//! transposed into one vector per column: INT and FLOAT columns as typed
//! `i64`/`f64` vectors with a NULL bitmap (8 bytes and a bit per value),
//! TEXT columns as a *dictionary* — a `u32` code per row plus the page's
//! distinct values, NULL among them if the column holds one — and every
//! other column, including a number or TEXT column holding a value of
//! another type, as decoded values. It is built on demand from a decoded
//! page and never written back. The rule is fixed: a column whose every
//! value is TEXT or NULL is a dictionary, however many distinct values it
//! has; its codes cost 4 bytes a row beside what the decoded values cost,
//! and [`ColumnPage::approx_bytes`] counts codes, the distinct values and
//! their strings.
//!
//! A scan served from an image decodes nothing and filters a column at a
//! time: each *kernel leaf* of its filter ([`ColPred`]: a column compared
//! with a literal, `IN` literals, `IS [NOT] NULL`) narrows a selection
//! vector over one column ([`ColumnPage::select`]), and only the surviving
//! rows' referenced values are then written out ([`ColumnPage::append`]) —
//! a copy for a number, an `Arc` increment that shares the payload for an
//! opaque value. A consumer that reads a page where it lies (the
//! executor's Aggregate, hash-join probe and Top-N) reads it in place
//! instead: a value by reference ([`ColumnPage::get`]), a dictionary
//! column's codes ([`ColumnPage::dict`]), a column's selected values as
//! references ([`ColumnPage::refs`]) or, for an INT or FLOAT column, as
//! numbers ([`ColumnPage::ints`], [`ColumnPage::floats`]). A kernel leaf
//! over a dictionary column tests each distinct value once and then
//! filters the codes. The kernels reproduce [`ColTest::passes`], the
//! per-row definition other pages use, exactly: they compare as
//! [`Datum::total_cmp`] does (two INTs as `i64`, anything involving a
//! FLOAT as `f64`, so `-0.0 < 0.0` and an INT above 2^53 compares as it
//! rounds), and NULL never passes a comparison.
//!
//! At runtime the executor keeps [`ColumnPage`]s in a per-table cache,
//! dropped page by page on any write. The *zone map* ([`PageZone`]) is the
//! pruning side: per page and per column (first [`ZONE_COLS`]) the min/max
//! over non-NULL values and the NULL count, consulted before a page is
//! read at all, against bounds the kernel leaves imply ([`zone_bounds`]).
//!
//! Zone-map soundness leans on two engine invariants: comparison
//! operators evaluate through [`Datum::total_cmp`], and `sql_eq(a, b)`
//! implies `total_cmp(a, b) == Equal`. Min/max are therefore computed
//! with `total_cmp` over non-NULL values, and a refuted range bound
//! cannot hide a row the predicate would have accepted. NULL rows never
//! pass a comparison (3VL: unknown is not TRUE), so they are covered by
//! the null-count side of the zone.

use crate::datum::Datum;
use crate::fxhash::FxBuildHasher;
use crate::tuple::Row;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Zone maps cover the first `ZONE_COLS` columns of a table; wider
/// tables keep exact zones for the leading columns and simply cannot
/// prune on the tail.
pub const ZONE_COLS: usize = 16;

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// Per-column zone entry: NULL count plus min/max over non-NULL values
/// (absent when every observed value was NULL), each with the number of
/// rows holding it — what lets a row leave the page without a rebuild
/// unless it was the last holder of an extremum.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColZone {
    pub nulls: u32,
    pub min: Option<Datum>,
    pub max: Option<Datum>,
    min_rows: u32,
    max_rows: u32,
}

/// One end of a [`ColZone`]: the extremum, how many rows hold it, and which
/// way is "beyond" it (`Less` for the min, `Greater` for the max).
struct ZoneEnd<'a> {
    edge: &'a mut Option<Datum>,
    rows: &'a mut u32,
    beyond: Ordering,
}

impl ZoneEnd<'_> {
    /// Take `old` out and put `new` in (each `None` when NULL or absent).
    /// `false` when the extremum among the remaining rows cannot be known.
    fn replace(self, old: Option<&Datum>, new: Option<&Datum>) -> bool {
        if old.is_some() && self.edge.as_ref() == old {
            *self.rows -= 1;
        }
        let Some(new) = new else { return *self.rows > 0 || self.edge.is_none() };
        let vs_edge = match (&*self.edge, *self.rows) {
            (None, _) => self.beyond,
            // The last holder left: every remaining row is strictly inside
            // it, so `new` is the extremum iff it is at or beyond it.
            (Some(edge), 0) if new.total_cmp(edge) == self.beyond.reverse() => return false,
            (Some(_), 0) => self.beyond,
            (Some(edge), _) => new.total_cmp(edge),
        };
        if vs_edge == self.beyond {
            *self.edge = Some(new.clone());
            *self.rows = 1;
        } else if vs_edge == Ordering::Equal {
            *self.rows += 1;
        }
        true
    }
}

impl ColZone {
    fn observe(&mut self, d: &Datum) {
        let done = self.replace(None, Some(d));
        debug_assert!(done, "adding a value never needs the other rows");
    }

    /// Replace one row's value `old` (`None`: the row is new) by `new`
    /// (`None`: the row is gone), keeping the entry exact; `false` when
    /// that needs the page's other rows (the entry is then unspecified).
    fn replace(&mut self, old: Option<&Datum>, new: Option<&Datum>) -> bool {
        self.nulls -= u32::from(old.is_some_and(Datum::is_null));
        self.nulls += u32::from(new.is_some_and(Datum::is_null));
        let (old, new) = (old.filter(|d| !d.is_null()), new.filter(|d| !d.is_null()));
        let min = ZoneEnd { edge: &mut self.min, rows: &mut self.min_rows, beyond: Ordering::Less };
        let max =
            ZoneEnd { edge: &mut self.max, rows: &mut self.max_rows, beyond: Ordering::Greater };
        min.replace(old, new) && max.replace(old, new)
    }
}

/// Zone map for one heap page: row count plus a [`ColZone`] per leading
/// column. Chunk/overflow continuation pages host no row starts, so
/// their zones stay empty; a row's zone entry lives on the page its
/// stub starts on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageZone {
    pub rows: u32,
    pub cols: Vec<ColZone>,
}

impl PageZone {
    /// Fold one (fully decoded) row into the zone. Used incrementally on
    /// insert and by full-page rebuilds after delete/update.
    pub fn observe_row(&mut self, row: &[Datum]) {
        self.rows += 1;
        let n = row.len().min(ZONE_COLS);
        if self.cols.len() < n {
            self.cols.resize(n, ColZone::default());
        }
        for (i, d) in row.iter().take(n).enumerate() {
            self.cols[i].observe(d);
        }
    }

    /// Apply the replacement (`Some`) or removal (`None`) of one of this
    /// page's rows, keeping the zone exact. Returns `false`, zone
    /// untouched, when exactness needs the page's other rows — the last
    /// holder of a column's min or max left and nothing at or beyond it
    /// arrived — so the caller must rebuild.
    pub fn replace_row(&mut self, old: &[Datum], new: Option<&[Datum]>) -> bool {
        let n = old.len().min(ZONE_COLS);
        if self.cols.len() < n || new.is_some_and(|r| r.len() != old.len()) {
            return false;
        }
        // Work on copies of the columns that change, so a decline part-way
        // through leaves the zone as it was.
        let mut changed = Vec::new();
        for i in (0..n).filter(|&i| new.is_none_or(|r| r[i] != old[i])) {
            let mut col = self.cols[i].clone();
            if !col.replace(Some(&old[i]), new.map(|r| &r[i])) {
                return false;
            }
            changed.push((i, col));
        }
        for (i, col) in changed {
            self.cols[i] = col;
        }
        self.rows -= u32::from(new.is_none());
        true
    }

    /// Rebuild from scratch over a page's live rows.
    pub fn rebuild<'a>(rows: impl Iterator<Item = &'a Row>) -> PageZone {
        let mut z = PageZone::default();
        for r in rows {
            z.observe_row(r);
        }
        z
    }

    /// True when the zone proves no row on this page can satisfy every
    /// bound — the page may be skipped without reading it.
    ///
    /// Conservative by construction: a bound on a column the zone does
    /// not cover contributes nothing.
    pub fn refutes(&self, bounds: &[ColBound]) -> bool {
        if self.rows == 0 {
            return true;
        }
        for b in bounds {
            let Some(cz) = self.cols.get(b.col) else { continue };
            let non_null = self.rows - cz.nulls;
            if b.require_non_null && non_null == 0 {
                return true;
            }
            if b.require_null && cz.nulls == 0 {
                return true;
            }
            if (b.lo.is_some() || b.hi.is_some()) && non_null == 0 {
                // Comparisons over NULL are unknown, never TRUE.
                return true;
            }
            if let (Some((lo, incl)), Some(max)) = (&b.lo, &cz.max) {
                match max.total_cmp(lo) {
                    Ordering::Less => return true,
                    Ordering::Equal if !incl => return true,
                    _ => {}
                }
            }
            if let (Some((hi, incl)), Some(min)) = (&b.hi, &cz.min) {
                match min.total_cmp(hi) {
                    Ordering::Greater => return true,
                    Ordering::Equal if !incl => return true,
                    _ => {}
                }
            }
        }
        false
    }
}

/// One column's contribution to a conjunctive predicate, extracted from
/// the compiled filter for zone-map refutation. `lo`/`hi` carry the
/// bound value and whether it is inclusive; an equality folds to
/// `lo == hi`, both inclusive.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColBound {
    pub col: usize,
    pub lo: Option<(Datum, bool)>,
    pub hi: Option<(Datum, bool)>,
    pub require_null: bool,
    pub require_non_null: bool,
}

impl ColBound {
    pub fn new(col: usize) -> Self {
        ColBound { col, ..Default::default() }
    }

    /// Tighten `lo` to the greater of the existing and new bound.
    pub fn add_lo(&mut self, v: Datum, inclusive: bool) {
        let replace = match &self.lo {
            Some((cur, cur_incl)) => match v.total_cmp(cur) {
                Ordering::Greater => true,
                Ordering::Equal => *cur_incl && !inclusive,
                Ordering::Less => false,
            },
            None => true,
        };
        if replace {
            self.lo = Some((v, inclusive));
        }
    }

    /// Tighten `hi` to the lesser of the existing and new bound.
    pub fn add_hi(&mut self, v: Datum, inclusive: bool) {
        let replace = match &self.hi {
            Some((cur, cur_incl)) => match v.total_cmp(cur) {
                Ordering::Less => true,
                Ordering::Equal => *cur_incl && !inclusive,
                Ordering::Greater => false,
            },
            None => true,
        };
        if replace {
            self.hi = Some((v, inclusive));
        }
    }
}

/// All zone maps of one table, indexed by page number. Pages the vector
/// does not reach (or continuation pages that never saw a row start)
/// read as empty zones — which refute everything, matching the fact
/// that no row *starts* there.
#[derive(Debug, Default)]
pub struct ZoneMaps {
    pages: Vec<PageZone>,
}

impl ZoneMaps {
    /// Zone of `page_no`, if a row was ever observed there.
    pub fn page(&self, page_no: u32) -> Option<&PageZone> {
        self.pages.get(page_no as usize)
    }

    /// Fold a newly inserted row into `page_no`'s zone.
    pub fn observe_insert(&mut self, page_no: u32, row: &[Datum]) {
        let idx = page_no as usize;
        if self.pages.len() <= idx {
            self.pages.resize(idx + 1, PageZone::default());
        }
        self.pages[idx].observe_row(row);
    }

    /// [`PageZone::replace_row`] on `page_no`'s zone; `false` (rebuild
    /// needed) also when the page has no zone yet.
    pub fn replace_row(&mut self, page_no: u32, old: &[Datum], new: Option<&[Datum]>) -> bool {
        self.pages.get_mut(page_no as usize).is_some_and(|z| z.replace_row(old, new))
    }

    /// Replace `page_no`'s zone wholesale (post delete/update rebuild).
    pub fn set_page(&mut self, page_no: u32, zone: PageZone) {
        let idx = page_no as usize;
        if self.pages.len() <= idx {
            self.pages.resize(idx + 1, PageZone::default());
        }
        self.pages[idx] = zone;
    }

    /// Number of pages with a zone entry.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Drop everything (table truncation / full reload).
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

// ---------------------------------------------------------------------------
// Kernel leaves
// ---------------------------------------------------------------------------

/// The comparison of a kernel leaf, column on the left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// Does `column.total_cmp(literal) == ord` satisfy the comparison?
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::NotEq => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::LtEq => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::GtEq => ord.is_ge(),
        }
    }

    /// The same comparison with its operands swapped: `lit < col` is
    /// `col > lit`.
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            eq_or_ne => eq_or_ne,
        }
    }
}

/// One kernel leaf of a scan filter: a test of one table column against
/// literals, which a scan evaluates a column at a time over an image
/// ([`ColumnPage::select`]) or per row ([`ColTest::passes`]). A row passes
/// a leaf only when the leaf is TRUE; NULL and FALSE both reject.
#[derive(Debug, Clone, PartialEq)]
pub struct ColPred {
    pub col: usize,
    pub test: ColTest,
}

#[derive(Debug, Clone, PartialEq)]
pub enum ColTest {
    /// `column <op> literal` under [`Datum::total_cmp`]; NULL on either
    /// side never passes.
    Cmp(CmpOp, Datum),
    /// `column IS NULL`, or `IS NOT NULL` when negated.
    IsNull { negated: bool },
    /// `column IN (literals)`: equal to one of the non-NULL literals.
    In(Vec<Datum>),
}

impl ColTest {
    /// Is the leaf TRUE for a row whose column holds `d`? The definition
    /// every kernel in [`ColumnPage::select`] reproduces.
    pub fn passes(&self, d: &Datum) -> bool {
        match self {
            ColTest::Cmp(op, lit) => !d.is_null() && !lit.is_null() && op.holds(d.total_cmp(lit)),
            ColTest::IsNull { negated } => d.is_null() != *negated,
            ColTest::In(list) => list.iter().any(|l| d.sql_eq(l) == Some(true)),
        }
    }
}

/// The zone-map bounds kernel leaves imply, one [`ColBound`] per column
/// they constrain. A comparison with NULL, `<>` and an `IN` list of NULLs
/// add none: conservative, never refuting what they cannot prove.
pub fn zone_bounds(preds: &[ColPred]) -> Vec<ColBound> {
    let mut by_col: BTreeMap<usize, ColBound> = BTreeMap::new();
    for p in preds {
        let new = || ColBound::new(p.col);
        match &p.test {
            ColTest::Cmp(_, lit) if lit.is_null() => {}
            ColTest::Cmp(op, lit) => {
                let b = by_col.entry(p.col).or_insert_with(new);
                match op {
                    CmpOp::Eq => {
                        b.add_lo(lit.clone(), true);
                        b.add_hi(lit.clone(), true);
                    }
                    CmpOp::Lt | CmpOp::LtEq => b.add_hi(lit.clone(), *op == CmpOp::LtEq),
                    CmpOp::Gt | CmpOp::GtEq => b.add_lo(lit.clone(), *op == CmpOp::GtEq),
                    CmpOp::NotEq => {}
                }
            }
            ColTest::IsNull { negated } => {
                let b = by_col.entry(p.col).or_insert_with(new);
                if *negated {
                    b.require_non_null = true;
                } else {
                    b.require_null = true;
                }
            }
            // TRUE requires equality with some non-NULL literal, so
            // [min, max] over them bounds the column.
            ColTest::In(list) => {
                let values = list.iter().filter(|v| !v.is_null());
                let (Some(min), Some(max)) = (
                    values.clone().min_by(|a, b| a.total_cmp(b)),
                    values.max_by(|a, b| a.total_cmp(b)),
                ) else {
                    continue;
                };
                let b = by_col.entry(p.col).or_insert_with(new);
                b.add_lo(min.clone(), true);
                b.add_hi(max.clone(), true);
            }
        }
    }
    by_col.into_values().collect()
}

// ---------------------------------------------------------------------------
// Columnar pages
// ---------------------------------------------------------------------------

/// One bit per row, set where the row's value is NULL.
#[derive(Debug, Clone)]
struct Nulls(Vec<u64>);

impl Nulls {
    fn with_rows(rows: usize) -> Nulls {
        Nulls(vec![0; rows.div_ceil(64)])
    }

    fn set(&mut self, row: usize) {
        self.0[row / 64] |= 1 << (row % 64);
    }

    #[inline]
    fn get(&self, row: usize) -> bool {
        self.0[row / 64] >> (row % 64) & 1 == 1
    }
}

/// The values of a typed column at `rows` whose NULL bit is clear, in order.
fn gather<T: Copy>(vals: &[T], nulls: &Nulls, rows: &[u32], out: &mut Vec<T>) {
    out.extend(rows.iter().filter(|&&r| !nulls.get(r as usize)).map(|&r| vals[r as usize]));
}

/// One column of an image. A column whose every value is INT or NULL is
/// held as `i64`s, one whose every value is FLOAT or NULL as `f64`s, each
/// with a NULL bitmap (a NULL's slot holds 0), and one whose every value
/// is TEXT or NULL as a dictionary: a code per row indexing the page's
/// distinct values, in first-seen order. Any other column — BOOL, BLOB,
/// opaque, or values of several types — keeps its decoded values.
#[derive(Debug, Clone)]
enum Column {
    Int(Vec<i64>, Nulls),
    Float(Vec<f64>, Nulls),
    Dict(Vec<u32>, Vec<Datum>),
    Datums(Vec<Datum>),
}

/// What a read past a row's arity returns.
static NULL: Datum = Datum::Null;

impl Column {
    fn build(values: Vec<Datum>) -> Column {
        fn typed<T: Default>(
            values: &[Datum],
            get: impl Fn(&Datum) -> Option<T>,
        ) -> (Vec<T>, Nulls) {
            let mut nulls = Nulls::with_rows(values.len());
            let vals = values
                .iter()
                .enumerate()
                .map(|(r, d)| {
                    get(d).unwrap_or_else(|| {
                        nulls.set(r);
                        T::default()
                    })
                })
                .collect();
            (vals, nulls)
        }
        let all = |ty: fn(&Datum) -> bool| values.iter().all(|d| d.is_null() || ty(d));
        if all(|d| matches!(d, Datum::Int(_))) {
            let (vals, nulls) =
                typed(&values, |d| if let Datum::Int(v) = d { Some(*v) } else { None });
            Column::Int(vals, nulls)
        } else if all(|d| matches!(d, Datum::Float(_))) {
            let (vals, nulls) =
                typed(&values, |d| if let Datum::Float(v) = d { Some(*v) } else { None });
            Column::Float(vals, nulls)
        } else if all(|d| matches!(d, Datum::Text(_))) {
            Column::dictionary(values)
        } else {
            Column::Datums(values)
        }
    }

    /// Code TEXT-or-NULL `values` in one hashing pass, then move each
    /// distinct value — its first occurrence — into the dictionary.
    fn dictionary(values: Vec<Datum>) -> Column {
        let mut codes = Vec::with_capacity(values.len());
        // The row each code was first seen at, ascending.
        let mut firsts: Vec<usize> = Vec::new();
        let mut seen: HashMap<Option<&str>, u32, FxBuildHasher> = HashMap::default();
        for (r, d) in values.iter().enumerate() {
            let next = firsts.len() as u32;
            codes.push(*seen.entry(d.as_text()).or_insert_with(|| {
                firsts.push(r);
                next
            }));
        }
        drop(seen);
        let mut dict = Vec::with_capacity(firsts.len());
        let mut firsts = firsts.into_iter().peekable();
        for (r, d) in values.into_iter().enumerate() {
            if firsts.next_if_eq(&r).is_some() {
                dict.push(d);
            }
        }
        Column::Dict(codes, dict)
    }

    /// Row `row`'s value: a copy for a number, a clone for a decoded or
    /// dictionary value (an `Arc` increment that shares an opaque payload).
    #[inline]
    fn value(&self, row: usize) -> Datum {
        match self {
            Column::Int(_, nulls) | Column::Float(_, nulls) if nulls.get(row) => Datum::Null,
            Column::Int(vals, _) => Datum::Int(vals[row]),
            Column::Float(vals, _) => Datum::Float(vals[row]),
            Column::Dict(codes, dict) => dict[codes[row] as usize].clone(),
            Column::Datums(vals) => vals[row].clone(),
        }
    }

    /// Row `row`'s value where the column holds it as a [`Datum`]: `None`
    /// for a typed column.
    #[inline]
    fn held(&self, row: usize) -> Option<&Datum> {
        match self {
            Column::Dict(codes, dict) => Some(&dict[codes[row] as usize]),
            Column::Datums(vals) => Some(&vals[row]),
            Column::Int(..) | Column::Float(..) => None,
        }
    }

    /// Narrow `sel` to the rows whose value passes `test`, in order. The
    /// typed kernels compare exactly as [`Datum::total_cmp`] does: two
    /// INTs as `i64`s, anything involving a FLOAT as `f64`s. A dictionary
    /// column tests each distinct value once and keeps the rows whose code
    /// passed.
    fn retain(&self, sel: &mut Vec<u32>, test: &ColTest) {
        fn keep(sel: &mut Vec<u32>, nulls: &Nulls, pass: impl Fn(usize) -> bool) {
            sel.retain(|&r| !nulls.get(r as usize) && pass(r as usize));
        }
        match (self, test) {
            (Column::Int(vals, nulls), ColTest::Cmp(op, Datum::Int(lit))) => {
                keep(sel, nulls, |r| op.holds(vals[r].cmp(lit)))
            }
            (Column::Int(vals, nulls), ColTest::Cmp(op, Datum::Float(lit))) => {
                keep(sel, nulls, |r| op.holds((vals[r] as f64).total_cmp(lit)))
            }
            (Column::Float(vals, nulls), ColTest::Cmp(op, Datum::Float(lit))) => {
                keep(sel, nulls, |r| op.holds(vals[r].total_cmp(lit)))
            }
            (Column::Float(vals, nulls), ColTest::Cmp(op, Datum::Int(lit))) => {
                let lit = *lit as f64;
                keep(sel, nulls, |r| op.holds(vals[r].total_cmp(&lit)))
            }
            (Column::Int(_, nulls) | Column::Float(_, nulls), ColTest::IsNull { negated }) => {
                sel.retain(|&r| nulls.get(r as usize) != *negated)
            }
            (Column::Dict(codes, dict), _) => {
                let pass: Vec<bool> = dict.iter().map(|d| test.passes(d)).collect();
                sel.retain(|&r| pass[codes[r as usize] as usize])
            }
            (Column::Datums(vals), _) => sel.retain(|&r| test.passes(&vals[r as usize])),
            // A number column against a non-numeric or NULL literal, or IN.
            _ => sel.retain(|&r| test.passes(&self.value(r as usize))),
        }
    }

    /// Bytes the column holds: its values or codes, its bitmap, and what
    /// decoded values own on the heap.
    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let decoded = |vals: &Vec<Datum>| {
            vals.capacity() * size_of::<Datum>()
                + vals
                    .iter()
                    .map(|d| match d {
                        Datum::Text(s) => s.capacity(),
                        Datum::Blob(b) => b.capacity(),
                        Datum::Opaque(_, p) => p.capacity(),
                        _ => 0,
                    })
                    .sum::<usize>()
        };
        match self {
            Column::Int(vals, nulls) => vals.capacity() * size_of::<i64>() + nulls.0.capacity() * 8,
            Column::Float(vals, nulls) => {
                vals.capacity() * size_of::<f64>() + nulls.0.capacity() * 8
            }
            Column::Dict(codes, dict) => codes.capacity() * size_of::<u32>() + decoded(dict),
            Column::Datums(vals) => decoded(vals),
        }
    }
}

/// A heap page's live rows in columnar form, rows in slot order: INT and
/// FLOAT columns as typed vectors with a NULL bitmap, TEXT columns as
/// dictionaries, every other column as decoded values. Built only for
/// pages whose rows all share one arity (the invariant every table page
/// satisfies); [`None`] from [`ColumnPage::build`] means "keep the row
/// layout for this page".
///
/// A scan filters an image a column at a time: [`ColumnPage::select`]
/// runs each kernel leaf over its column into a selection vector, and
/// [`ColumnPage::append`] writes only the survivors' referenced values.
#[derive(Debug, Clone)]
pub struct ColumnPage {
    n_rows: usize,
    cols: Vec<Column>,
}

impl ColumnPage {
    /// Transpose `rows`, moving every value into its column. Returns `None`
    /// when the rows do not share one arity or there is nothing to hold.
    pub fn build(rows: Vec<Row>) -> Option<ColumnPage> {
        let arity = rows.first()?.len();
        if arity == 0 || rows.iter().any(|r| r.len() != arity) {
            return None;
        }
        let n_rows = rows.len();
        let mut cols: Vec<Vec<Datum>> = (0..arity).map(|_| Vec::with_capacity(n_rows)).collect();
        for row in rows {
            for (col, d) in cols.iter_mut().zip(row) {
                col.push(d);
            }
        }
        Some(ColumnPage { n_rows, cols: cols.into_iter().map(Column::build).collect() })
    }

    /// Columns per row.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The rows that pass every leaf in `preds`, ascending, into `sel`. A
    /// leaf on a column past the arity reads NULL.
    pub fn select(&self, preds: &[ColPred], sel: &mut Vec<u32>) {
        sel.clear();
        sel.extend(0..self.n_rows as u32);
        for p in preds {
            match self.cols.get(p.col) {
                Some(col) => col.retain(sel, &p.test),
                None if p.test.passes(&Datum::Null) => {}
                None => sel.clear(),
            }
        }
    }

    /// Row `row`'s value of column `col` (NULL past the arity).
    pub fn value(&self, col: usize, row: usize) -> Datum {
        self.cols.get(col).map_or(Datum::Null, |c| c.value(row))
    }

    /// Row `row`'s value of column `col` read in place: a decoded or
    /// dictionary value where it lies, a number written into `tmp` (NULL
    /// past the arity).
    #[inline]
    pub fn get<'a>(&'a self, col: usize, row: usize, tmp: &'a mut Datum) -> &'a Datum {
        match self.cols.get(col) {
            Some(Column::Dict(codes, dict)) => &dict[codes[row] as usize],
            Some(Column::Datums(vals)) => &vals[row],
            Some(c) => {
                *tmp = c.value(row);
                tmp
            }
            None => &NULL,
        }
    }

    /// A dictionary column's codes, one per row, and its distinct values;
    /// `None` for any other column.
    pub fn dict(&self, col: usize) -> Option<(&[u32], &[Datum])> {
        match self.cols.get(col)? {
            Column::Dict(codes, dict) => Some((codes, dict)),
            _ => None,
        }
    }

    /// Column `col`'s values at the rows `sel`, by reference, appended to
    /// `out`; `false`, with nothing appended, for a typed column, which
    /// holds no [`Datum`]s to lend (NULLs past the arity).
    pub fn refs<'a>(&'a self, col: usize, sel: &[u32], out: &mut Vec<&'a Datum>) -> bool {
        match self.cols.get(col) {
            Some(Column::Int(..) | Column::Float(..)) => false,
            Some(c) => {
                out.extend(sel.iter().map(|&r| c.held(r as usize).expect("held")));
                true
            }
            None => {
                out.extend(sel.iter().map(|_| &NULL));
                true
            }
        }
    }

    /// Column `col`'s non-NULL values at the rows `rows`, in order, appended
    /// to `out` as `i64`s; `false`, with nothing appended, unless it is an
    /// INT column (past the arity every value is NULL: nothing to append).
    pub fn ints(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) -> bool {
        match self.cols.get(col) {
            Some(Column::Int(vals, nulls)) => gather(vals, nulls, rows, out),
            Some(_) => return false,
            None => {}
        }
        true
    }

    /// [`ints`](Self::ints) for a FLOAT column, as `f64`s.
    pub fn floats(&self, col: usize, rows: &[u32], out: &mut Vec<f64>) -> bool {
        match self.cols.get(col) {
            Some(Column::Float(vals, nulls)) => gather(vals, nulls, rows, out),
            Some(_) => return false,
            None => {}
        }
        true
    }

    /// Append the values of `cols` (table positions, NULL past the arity)
    /// of each row in `sel`, row after row.
    pub fn append(&self, sel: &[u32], cols: &[usize], out: &mut Vec<Datum>) {
        let cols: Vec<Option<&Column>> = cols.iter().map(|&c| self.cols.get(c)).collect();
        out.reserve(sel.len() * cols.len());
        for &r in sel {
            out.extend(cols.iter().map(|c| c.map_or(Datum::Null, |c| c.value(r as usize))));
        }
    }

    /// Bytes the image holds, its own struct included.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ColumnPage>()
            + self.cols.capacity() * std::mem::size_of::<Column>()
            + self.cols.iter().map(Column::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[&[Datum]]) -> Vec<Row> {
        vals.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn replace_row_is_exact_or_declines() {
        // A deterministic churn of replacements and removals over a small
        // value domain (so values sit on the zone's edges often, and NULLs
        // come and go): whenever the zone absorbs a change in place it must
        // equal a rebuild over the surviving rows, and whenever it declines
        // it must be untouched.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let value = |next: &mut dyn FnMut(u64) -> u64| match next(7) {
            0 => Datum::Null,
            v => Datum::Int(v as i64),
        };
        let mut live: Vec<Row> =
            (0..40).map(|_| vec![value(&mut next), value(&mut next)]).collect();
        let mut zone = PageZone::rebuild(live.iter());
        let (mut absorbed, mut declined) = (0, 0);
        while live.len() > 1 {
            let at = next(live.len() as u64) as usize;
            let old = live[at].clone();
            let new = (next(4) > 0).then(|| vec![old[0].clone(), value(&mut next)]);
            let before = zone.clone();
            match &new {
                Some(row) => live[at] = row.clone(),
                None => drop(live.swap_remove(at)),
            }
            if zone.replace_row(&old, new.as_deref()) {
                absorbed += 1;
                assert_eq!(zone, PageZone::rebuild(live.iter()), "{old:?} -> {new:?}");
            } else {
                declined += 1;
                assert_eq!(zone, before, "a declined change must leave the zone alone");
                zone = PageZone::rebuild(live.iter());
            }
        }
        assert!(absorbed > 20 && declined > 5, "absorbed {absorbed}, declined {declined}");
        // Arity mismatches and pages without a zone decline.
        assert!(!zone.replace_row(&live[0], Some(&[Datum::Int(1)])));
        assert!(!ZoneMaps::default().replace_row(0, &live[0], None));
    }

    #[test]
    fn opaque_payloads_are_shared_with_the_image() {
        use std::sync::Arc;
        let rs: Vec<Row> = (0..50u8)
            .map(|i| vec![Datum::Int(i.into()), Datum::Opaque(7, Arc::new(vec![i; 40]))])
            .collect();
        let cp = ColumnPage::build(rs.clone()).unwrap();
        let Column::Datums(held) = &cp.cols[1] else { panic!("opaque column typed") };
        let mut served = Vec::new();
        cp.append(&(0..50).collect::<Vec<_>>(), &[1], &mut served);
        assert_eq!(served.len(), 50);
        for (i, (served, held)) in served.iter().zip(held).enumerate() {
            let (Datum::Opaque(_, served), Datum::Opaque(_, held)) = (served, held) else {
                panic!("opaque column served as {served:?}");
            };
            assert!(Arc::ptr_eq(served, held), "row {i}: payload copied");
            assert_eq!(Datum::Opaque(7, Arc::clone(served)), rs[i][1]);
        }
    }

    #[test]
    fn emit_rows_decodes_only_referenced_segments() {
        let rs: Vec<Row> = (0..20)
            .map(|i| vec![Datum::Int(i), Datum::Text("x".into()), Datum::Int(i * 2)])
            .collect();
        let cp = ColumnPage::build(rs).unwrap();
        // Only the survivors' requested columns are written, in row order.
        let mut sel = Vec::new();
        cp.select(&[ColPred { col: 0, test: ColTest::Cmp(CmpOp::GtEq, Datum::Int(15)) }], &mut sel);
        assert_eq!(sel, [15, 16, 17, 18, 19]);
        let mut out = Vec::new();
        cp.append(&sel, &[2], &mut out);
        assert_eq!(out, (15..20).map(|i| Datum::Int(i * 2)).collect::<Vec<_>>());
        // A position past the arity reads NULL; no leaf keeps every row.
        out.clear();
        cp.select(&[], &mut sel);
        assert_eq!(sel.len(), 20);
        cp.append(&sel[..2], &[1, 5], &mut out);
        assert_eq!(
            out,
            [Datum::Text("x".into()), Datum::Null, Datum::Text("x".into()), Datum::Null]
        );
    }

    /// INT and FLOAT columns are typed unless a value of another type
    /// shares the column; NULLs round-trip through the bitmap.
    #[test]
    fn columns_take_their_values_type() {
        let rs: Vec<Row> = (0..70)
            .map(|i| {
                let null_or = |d: Datum| if i % 3 == 0 { Datum::Null } else { d };
                vec![
                    null_or(Datum::Int(i)),
                    null_or(Datum::Float(i as f64 - 0.5)),
                    if i == 9 { Datum::Float(9.0) } else { Datum::Int(i) },
                    Datum::Null,
                    Datum::Bool(i % 2 == 0),
                ]
            })
            .collect();
        let cp = ColumnPage::build(rs.clone()).unwrap();
        assert!(matches!(cp.cols[0], Column::Int(..)));
        assert!(matches!(cp.cols[1], Column::Float(..)));
        assert!(matches!(cp.cols[2], Column::Datums(_)), "INT with one FLOAT falls back");
        assert!(matches!(cp.cols[3], Column::Int(..)), "an all-NULL column is typed");
        assert!(matches!(cp.cols[4], Column::Datums(_)));
        for (r, row) in rs.iter().enumerate() {
            for (c, d) in row.iter().enumerate() {
                assert_eq!(format!("{:?}", cp.value(c, r)), format!("{d:?}"), "row {r} col {c}");
            }
        }
    }

    /// A TEXT-or-NULL column is a dictionary in first-seen order, NULL
    /// among its values; it reads back, filters and lends its values as
    /// the decoded column would, and costs at most 4 bytes a row more.
    #[test]
    fn text_columns_are_dictionaries() {
        let labels = [Some("human"), None, Some("mouse"), Some("human"), Some("yeast")];
        let text = |i: usize| labels[i % 5].map_or(Datum::Null, |s| Datum::Text(s.into()));
        let rs: Vec<Row> = (0..60)
            .map(|i| vec![text(i), if i == 7 { Datum::Int(1) } else { text(i + 1) }])
            .collect();
        let cp = ColumnPage::build(rs.clone()).unwrap();
        let (codes, dict) = cp.dict(0).expect("a TEXT-or-NULL column is a dictionary");
        assert_eq!(dict, [text(0), Datum::Null, text(2), text(4)]);
        assert_eq!(codes[..6], [0, 1, 2, 0, 3, 0]);
        assert!(cp.dict(1).is_none(), "a TEXT column holding an INT stays decoded");
        let (mut tmp, mut refs) = (Datum::Null, Vec::new());
        assert!(cp.refs(0, &[3, 1], &mut refs));
        assert_eq!(refs, [&text(3), &Datum::Null]);
        for (r, row) in rs.iter().enumerate() {
            assert_eq!(cp.value(0, r), row[0]);
            assert_eq!(*cp.get(0, r, &mut tmp), row[0]);
        }
        for test in [
            ColTest::Cmp(CmpOp::Eq, Datum::Text("human".into())),
            ColTest::Cmp(CmpOp::Gt, Datum::Text("j".into())),
            ColTest::IsNull { negated: false },
            ColTest::In(vec![Datum::Text("yeast".into()), Datum::Null]),
        ] {
            let mut sel = Vec::new();
            cp.select(&[ColPred { col: 0, test: test.clone() }], &mut sel);
            let want: Vec<u32> = (0..60).filter(|&r| test.passes(&rs[r as usize][0])).collect();
            assert_eq!(sel, want, "{test:?}");
        }
        let decoded = Column::Datums(rs.iter().map(|r| r[0].clone()).collect());
        assert!(cp.cols[0].approx_bytes() <= decoded.approx_bytes() + 4 * rs.len());
    }

    /// An all-INT image costs 8 bytes per value plus its bitmap (1 bit per
    /// value) and a fixed overhead per column and per page — a quarter of
    /// the 32-byte decoded value it replaces.
    #[test]
    fn an_int_image_costs_at_most_nine_bytes_per_value() {
        let (rows, cols) = (300usize, 5usize);
        let rs: Vec<Row> = (0..rows as i64)
            .map(|i| (0..cols as i64).map(|c| Datum::Int(i * c)).collect())
            .collect();
        let bytes = ColumnPage::build(rs).unwrap().approx_bytes();
        let per_column = 64;
        assert!(
            bytes <= 9 * rows * cols + per_column * cols + std::mem::size_of::<ColumnPage>(),
            "{bytes} bytes for {} values",
            rows * cols
        );
        assert!(bytes >= 8 * rows * cols);
    }

    #[test]
    fn zone_bounds_come_from_the_leaves() {
        let leaf = |col, test| ColPred { col, test };
        let bs = zone_bounds(&[
            leaf(1, ColTest::Cmp(CmpOp::Lt, Datum::Int(9))),
            leaf(0, ColTest::Cmp(CmpOp::GtEq, Datum::Int(2))),
            leaf(0, ColTest::Cmp(CmpOp::Gt, Datum::Int(2))),
            leaf(2, ColTest::Cmp(CmpOp::NotEq, Datum::Int(2))),
            leaf(3, ColTest::Cmp(CmpOp::Eq, Datum::Null)),
            leaf(4, ColTest::In(vec![Datum::Int(7), Datum::Null, Datum::Int(3)])),
            leaf(5, ColTest::IsNull { negated: true }),
        ]);
        let cols: Vec<usize> = bs.iter().map(|b| b.col).collect();
        assert_eq!(cols, [0, 1, 2, 4, 5], "NULL literals add no entry");
        assert_eq!((&bs[0].lo, &bs[0].hi), (&Some((Datum::Int(2), false)), &None));
        assert_eq!((&bs[1].lo, &bs[1].hi), (&None, &Some((Datum::Int(9), false))));
        assert_eq!(bs[2], ColBound::new(2), "<> bounds nothing");
        assert_eq!(bs[3].lo, Some((Datum::Int(3), true)));
        assert_eq!(bs[3].hi, Some((Datum::Int(7), true)));
        assert!(bs[4].require_non_null && !bs[4].require_null);
    }

    #[test]
    fn mixed_arity_and_empty_fall_back() {
        assert!(ColumnPage::build(Vec::new()).is_none());
        assert!(
            ColumnPage::build(rows(&[&[Datum::Int(1)], &[Datum::Int(1), Datum::Int(2)]])).is_none()
        );
    }

    #[test]
    fn zone_observe_and_refute() {
        let mut z = PageZone::default();
        z.observe_row(&[Datum::Int(10), Datum::Null]);
        z.observe_row(&[Datum::Int(20), Datum::Text("a".into())]);
        z.observe_row(&[Datum::Int(15), Datum::Null]);
        assert_eq!(z.rows, 3);
        assert_eq!(z.cols[0].min, Some(Datum::Int(10)));
        assert_eq!(z.cols[0].max, Some(Datum::Int(20)));
        assert_eq!(z.cols[0].nulls, 0);
        assert_eq!(z.cols[1].nulls, 2);

        let lo = |v: i64, incl: bool| {
            let mut b = ColBound::new(0);
            b.add_lo(Datum::Int(v), incl);
            b
        };
        let hi = |v: i64, incl: bool| {
            let mut b = ColBound::new(0);
            b.add_hi(Datum::Int(v), incl);
            b
        };
        assert!(z.refutes(&[lo(21, true)]), "max 20 < 21");
        assert!(z.refutes(&[lo(20, false)]), "max 20, exclusive");
        assert!(!z.refutes(&[lo(20, true)]));
        assert!(z.refutes(&[hi(9, true)]), "min 10 > 9");
        assert!(z.refutes(&[hi(10, false)]), "min 10, exclusive");
        assert!(!z.refutes(&[hi(10, true)]));

        // NULL-side refutation.
        let mut isnull = ColBound::new(0);
        isnull.require_null = true;
        assert!(z.refutes(&[isnull]), "col 0 has no NULLs");
        let mut notnull = ColBound::new(1);
        notnull.require_non_null = true;
        assert!(!z.refutes(&[notnull]), "col 1 has one non-NULL");

        // All-NULL column refutes any comparison.
        let mut z2 = PageZone::default();
        z2.observe_row(&[Datum::Null]);
        assert!(z2.refutes(&[lo(0, true)]));

        // Empty pages refute everything, even empty bounds.
        assert!(PageZone::default().refutes(&[]));
        // Bounds on uncovered columns never refute.
        assert!(!z.refutes(&[lo(0, true).clone()].map(|mut b| {
            b.col = 9;
            b
        })));
    }

    #[test]
    fn bound_tightening() {
        let mut b = ColBound::new(0);
        b.add_lo(Datum::Int(5), true);
        b.add_lo(Datum::Int(3), true); // looser, ignored
        assert_eq!(b.lo, Some((Datum::Int(5), true)));
        b.add_lo(Datum::Int(5), false); // same value, stricter
        assert_eq!(b.lo, Some((Datum::Int(5), false)));
        b.add_hi(Datum::Int(10), false);
        b.add_hi(Datum::Int(12), true); // looser, ignored
        assert_eq!(b.hi, Some((Datum::Int(10), false)));
    }

    #[test]
    fn zone_maps_track_pages() {
        let mut zm = ZoneMaps::default();
        zm.observe_insert(2, &[Datum::Int(7)]);
        assert_eq!(zm.len(), 3);
        assert_eq!(zm.page(0).unwrap().rows, 0);
        assert_eq!(zm.page(2).unwrap().rows, 1);
        assert!(zm.page(5).is_none());
        zm.set_page(2, PageZone::default());
        assert_eq!(zm.page(2).unwrap().rows, 0);
        zm.clear();
        assert!(zm.is_empty());
    }

    #[test]
    fn rebuild_matches_incremental() {
        let rs: Vec<Row> =
            (0..30).map(|i| vec![Datum::Int(i % 7), Datum::Float(i as f64)]).collect();
        let mut inc = PageZone::default();
        for r in &rs {
            inc.observe_row(r);
        }
        assert_eq!(PageZone::rebuild(rs.iter()), inc);
    }
}
