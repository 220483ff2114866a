//! What the pipeline breakers that take image pages read rows from.
//!
//! A SeqScan under an Aggregate, a hash join's probe side or a Top-N hands
//! over each image page it serves whole ([`ImagePage`]: the column image
//! and the rows its filter left) and appends only its row-path pages' rows
//! to the batch. Such a batch is a sequence of *runs* in heap order
//! ([`Batch::runs`]): rows where they lie in the batch ([`Flat`]), and
//! image pages. Each consumer has one loop, generic over [`Rows`], that
//! reads both the same way: a plain column where it lies, anything else on
//! a row — the batch row itself, or for an image a scratch row filled with
//! just the columns the expression reads ([`ScratchRow`]).

use super::{identity, Batch, ImagePage, Layout};
use crate::datum::Datum;
use crate::error::DbResult;
use crate::expr::compile::CompiledExpr;
use crate::storage::colpage::ColumnPage;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// The selected rows of an image page, or a run of a batch's rows, read
/// where they lie. Columns are the run's own positions: table columns for
/// an image, the input's layout positions for batch rows.
pub(super) trait Rows {
    /// Row `row`'s value of column `col`, in place or written into `tmp`.
    fn get<'a>(&'a self, col: usize, row: usize, tmp: &'a mut Datum) -> &'a Datum;
    /// Column `col`'s codes and distinct values, if it is a dictionary.
    fn dict(&self, col: usize) -> Option<(&[u32], &[Datum])>;
    /// Column `col`'s values at `sel`, by reference (`false`: not held as
    /// [`Datum`]s).
    fn refs<'a>(&'a self, col: usize, sel: &[u32], out: &mut Vec<&'a Datum>) -> bool;
    /// Column `col`'s non-NULL values at `rows`, in order, appended to
    /// `out`; `false` when a value is neither INT nor NULL (`out` is then
    /// unspecified).
    fn ints(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) -> bool;
    /// [`ints`](Self::ints) for FLOAT values.
    fn floats(&self, col: usize, rows: &[u32], out: &mut Vec<f64>) -> bool;
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
    fn ints(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) -> bool {
        ColumnPage::ints(self, col, rows, out)
    }
    fn floats(&self, col: usize, rows: &[u32], out: &mut Vec<f64>) -> bool {
        ColumnPage::floats(self, col, rows, out)
    }
    fn row(&self, _: usize) -> Option<&[Datum]> {
        None
    }
}

/// `rows` rows of a batch, `width` values each, row after row (a row may
/// be zero values wide).
pub(super) struct Flat<'b> {
    pub data: &'b [Datum],
    pub width: usize,
    pub rows: usize,
}

impl Flat<'_> {
    /// Every row of the run, in order, and every position of a row: its
    /// selection vector and its columns.
    pub fn all(&self) -> (Vec<u32>, Layout) {
        ((0..self.rows as u32).collect(), identity(self.width))
    }

    /// Append the non-NULL values of `col` at `rows` that `num` reads as
    /// numbers; `false` at the first that is not one.
    fn numbers<T>(
        &self,
        col: usize,
        rows: &[u32],
        out: &mut Vec<T>,
        num: impl Fn(&Datum) -> Option<T>,
    ) -> bool {
        for &r in rows {
            match &self.data[r as usize * self.width + col] {
                Datum::Null => {}
                d => match num(d) {
                    Some(v) => out.push(v),
                    None => return false,
                },
            }
        }
        true
    }
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
    fn ints(&self, col: usize, rows: &[u32], out: &mut Vec<i64>) -> bool {
        self.numbers(col, rows, out, |d| if let Datum::Int(v) = d { Some(*v) } else { None })
    }
    fn floats(&self, col: usize, rows: &[u32], out: &mut Vec<f64>) -> bool {
        self.numbers(col, rows, out, |d| if let Datum::Float(v) = d { Some(*v) } else { None })
    }
    #[inline]
    fn row(&self, row: usize) -> Option<&[Datum]> {
        Some(&self.data[row * self.width..][..self.width])
    }
}

/// One run of a batch: rows where they lie, or an image page.
pub(super) enum Run<'b> {
    Rows(Flat<'b>),
    Page(&'b ImagePage),
}

impl Batch {
    /// The batch as runs in the input's order: the rows before each image
    /// page, the page, and the rows after the last.
    pub(super) fn runs(&self) -> Vec<Run<'_>> {
        let (mut runs, mut done) = (Vec::with_capacity(2 * self.pages.len() + 1), 0);
        let ends = self.pages.iter().map(|p| p.at).chain([self.rows]);
        for (end, page) in ends.zip(self.pages.iter().map(Some).chain([None])) {
            if end > done {
                let data = &self.data[done * self.width..end * self.width];
                runs.push(Run::Rows(Flat { data, width: self.width, rows: end - done }));
                done = end;
            }
            runs.extend(page.map(Run::Page));
        }
        runs
    }
}

/// The row per-row expressions read: a batch row where it lies, or, for an
/// image page, a scratch row holding only the columns they read.
#[derive(Default)]
pub(super) struct ScratchRow {
    row: Vec<Datum>,
    /// Positions to fill in `row` from an image.
    fill: Vec<usize>,
}

impl ScratchRow {
    /// Set up for rows `width` values wide, of which per-row expressions
    /// read `reads`.
    pub fn prepare(&mut self, width: usize, reads: &BTreeSet<usize>) {
        self.row.resize(width, Datum::Null);
        self.fill.clear();
        self.fill.extend(reads);
    }

    /// Row `r` of `rows`, whose position `j` is column `cols[j]`.
    #[inline]
    pub fn at<'a, R: Rows>(&'a mut self, rows: &'a R, cols: &[usize], r: usize) -> &'a [Datum] {
        if let Some(row) = rows.row(r) {
            return row;
        }
        for &j in &self.fill {
            let mut tmp = Datum::Null;
            self.row[j] = rows.get(cols[j], r, &mut tmp).clone();
        }
        &self.row
    }
}

/// `expr`'s value at row `r` of `rows`: a plain column where it lies in
/// the run, anything else evaluated on `row` (from [`ScratchRow::at`]).
#[inline(always)]
pub(super) fn read<'a, R: Rows>(
    expr: &'a CompiledExpr,
    rows: &'a R,
    cols: &[usize],
    r: usize,
    row: &'a [Datum],
    tmp: &'a mut Datum,
    slot: &'a mut Option<Cow<'a, Datum>>,
) -> DbResult<&'a Datum> {
    match expr {
        CompiledExpr::Column(j) => Ok(rows.get(cols[*j], r, tmp)),
        _ => expr.read(row, slot),
    }
}

/// The positions `exprs` read that are not plain columns: what a scratch
/// row must hold for them.
pub(super) fn computed_reads<'e>(
    exprs: impl IntoIterator<Item = &'e CompiledExpr>,
) -> BTreeSet<usize> {
    let mut reads = BTreeSet::new();
    for e in exprs {
        if !matches!(e, CompiledExpr::Column(_)) {
            e.collect_columns(&mut reads);
        }
    }
    reads
}
