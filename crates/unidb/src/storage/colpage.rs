//! Columnar (column-group) pages and per-page zone maps.
//!
//! A columnar page is an in-memory image of one heap page's live rows,
//! transposed into one vector of decoded values per column. It is built on
//! demand by moving the values of a decoded page into their columns and is
//! never written back. A scan served from an image decodes nothing: it
//! clones the values its plan references into each row it emits, which for
//! an opaque payload is an `Arc` increment, so the payload is shared with
//! the image rather than copied.
//!
//! At runtime the executor keeps [`ColumnPage`]s in a per-table cache,
//! dropped page by page on any write, so selective scans touch only the
//! columns a query references. The *zone map* ([`PageZone`]) is the pruning
//! side: per page and per column (first [`ZONE_COLS`]) the min/max over
//! non-NULL values and the NULL count, consulted before a page is read at
//! all.
//!
//! Zone-map soundness leans on two engine invariants: comparison
//! operators evaluate through [`Datum::total_cmp`], and `sql_eq(a, b)`
//! implies `total_cmp(a, b) == Equal`. Min/max are therefore computed
//! with `total_cmp` over non-NULL values, and a refuted range bound
//! cannot hide a row the predicate would have accepted. NULL rows never
//! pass a comparison (3VL: unknown is not TRUE), so they are covered by
//! the null-count side of the zone.

use crate::datum::Datum;
use crate::error::DbResult;
use crate::tuple::Row;
use std::cmp::Ordering;

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
// Columnar pages
// ---------------------------------------------------------------------------

/// A heap page's live rows in columnar form: one vector of decoded values
/// per column, rows in slot order. Built only for pages whose rows all share
/// one arity (the invariant every table page satisfies); [`None`] from
/// [`ColumnPage::build`] means "keep the row layout for this page".
#[derive(Debug, Clone)]
pub struct ColumnPage {
    n_rows: usize,
    cols: Vec<Vec<Datum>>,
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
        Some(ColumnPage { n_rows, cols })
    }

    /// Materialize rows holding only the columns `mask` marks as referenced
    /// (all of the first `prefix` columns when `mask` is `None`);
    /// unreferenced positions hold `Datum::Null` placeholders. Each row is
    /// built in one reused buffer from clones of the image's values — a
    /// copy for scalars, an `Arc` increment that shares the payload for
    /// opaque values — and `on_row` may move them on. Returns the number
    /// of columns served.
    pub fn emit_rows(
        &self,
        prefix: usize,
        mask: Option<&[bool]>,
        mut on_row: impl FnMut(&mut Row) -> DbResult<()>,
    ) -> DbResult<usize> {
        let width = self.cols.len().min(prefix);
        let cols: Vec<Option<&[Datum]>> = self.cols[..width]
            .iter()
            .enumerate()
            .map(|(c, col)| {
                mask.is_none_or(|m| m.get(c).copied().unwrap_or(false)).then_some(&col[..])
            })
            .collect();
        let mut row: Row = Vec::with_capacity(width);
        for r in 0..self.n_rows {
            row.clear();
            row.extend(cols.iter().map(|col| col.map_or(Datum::Null, |col| col[r].clone())));
            on_row(&mut row)?;
        }
        Ok(cols.iter().flatten().count())
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
        let mut emitted = 0;
        cp.emit_rows(2, Some(&[false, true]), |row| {
            let (Datum::Opaque(_, served), Datum::Opaque(_, held)) =
                (&row[1], &cp.cols[1][emitted])
            else {
                panic!("opaque column served as {:?}", row[1]);
            };
            assert!(Arc::ptr_eq(served, held), "row {emitted}: payload copied");
            assert_eq!(row[1], rs[emitted][1]);
            emitted += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(emitted, 50);
    }

    #[test]
    fn emit_rows_decodes_only_referenced_segments() {
        let rs: Vec<Row> = (0..20)
            .map(|i| vec![Datum::Int(i), Datum::Text("x".into()), Datum::Int(i * 2)])
            .collect();
        let cp = ColumnPage::build(rs).unwrap();
        let mask = [false, false, true];
        let mut seen = Vec::new();
        let decoded = cp
            .emit_rows(3, Some(&mask), |row| {
                seen.push(row.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(decoded, 1);
        assert_eq!(seen.len(), 20);
        for (i, row) in seen.iter().enumerate() {
            assert!(row[0].is_null() && row[1].is_null());
            assert_eq!(row[2], Datum::Int(i as i64 * 2));
        }
        // Prefix-only (no mask) serves every column in the prefix.
        let decoded = cp.emit_rows(2, None, |_| Ok(())).unwrap();
        assert_eq!(decoded, 2);
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
