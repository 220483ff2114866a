//! The hash join: one [`KeyTable`] over the build side's keys, probed by
//! the other side's rows where they lie.
//!
//! A SeqScan on the probe side hands over the image pages it serves whole
//! ([`ImagePage`](super::ImagePage)), so the probe reads its key from the
//! column image and builds a row only for an output row. The probe loop is
//! generic over [`Rows`]: an image page with its selection vector, or a run
//! of the batch's rows, in the input's order — so the output rows and their
//! order are those of a row-at-a-time probe.

use super::rows::{computed_reads, read, Rows, Run, ScratchRow};
use super::stats::OpStats;
use super::{drain, Batch, BatchIter, BoxIter, KeyTable, Layout};
use crate::datum::Datum;
use crate::error::DbResult;
use crate::expr::compile::CompiledExpr;
use crate::fxhash::hash_one;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;

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
pub(super) struct HashJoinIter<'a> {
    pub probe: BoxIter<'a>,
    pub build: Option<BoxIter<'a>>,
    /// Key table entry `i`: its key, then the build side's needed values.
    pub build_rows: Batch,
    pub table: KeyTable,
    pub probe_key: CompiledExpr,
    pub build_key: CompiledExpr,
    /// The probe input's layout: the table column each position of a
    /// handed-over image page is read from.
    pub probe_layout: Layout,
    /// Where each side's needed values lie in its input's rows.
    pub probe_pick: Vec<usize>,
    pub build_pick: Vec<usize>,
    /// The build side is the plan's *left* input: emit build ++ probe.
    pub build_is_left: bool,
    /// LEFT OUTER join (probe side preserved, build side padded).
    pub left_outer: bool,
    /// `EXPLAIN ANALYZE` node for `partitions` / `build_rows`.
    pub stats: Option<Arc<OpStats>>,
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
                let row = rows.row(i);
                self.build_rows.data.extend(self.build_pick.iter().map(|&c| row[c].clone()));
                self.build_rows.end_row();
            }
        }
        if let Some(stats) = &self.stats {
            stats.partitions.store(1, AtomicOrdering::Relaxed);
            stats.build_rows.store(rows.len() as u64, AtomicOrdering::Relaxed);
        }
        Ok(())
    }

    /// Probe with the rows `sel` of `rows`, whose position `j` is column
    /// `cols[j]`, appending the output rows to `out`.
    fn probe<R: Rows>(
        &self,
        scratch: &mut ScratchRow,
        rows: &R,
        sel: &[u32],
        cols: &[usize],
        out: &mut Batch,
    ) -> DbResult<()> {
        // Append probe row `r`'s needed values to the row `out` is writing.
        let pick = |out: &mut Batch, r: usize| {
            let mut tmp = Datum::Null;
            out.data
                .extend(self.probe_pick.iter().map(|&j| rows.get(cols[j], r, &mut tmp).clone()));
        };
        for &r in sel {
            let r = r as usize;
            let (mut tmp, mut slot) = (Datum::Null, None);
            let key = match &self.probe_key {
                CompiledExpr::Column(j) => rows.get(cols[*j], r, &mut tmp),
                k => read(k, rows, cols, r, scratch.at(rows, cols, r), &mut tmp, &mut slot)?,
            };
            // A NULL key walks a chain too, and matches nothing in it: no
            // NULL is linked.
            let mut matched = false;
            for e in self.table.chain(hash_one(key)) {
                let b = self.build_rows.row(e);
                if b[0] == *key {
                    let at = out.data.len();
                    pick(out, r);
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
                pick(out, r);
                out.end_row();
            }
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
        let width = self.probe_pick.len() + self.build_pick.len();
        let mut out = Batch::with_capacity(width, batch.len());
        let mut scratch = ScratchRow::default();
        scratch.prepare(self.probe_layout.len(), &computed_reads([&self.probe_key]));
        for run in batch.runs() {
            match run {
                Run::Rows(flat) => {
                    let (sel, cols) = flat.all();
                    self.probe(&mut scratch, &flat, &sel, &cols, &mut out)?
                }
                Run::Page(p) => {
                    self.probe(&mut scratch, &*p.page, &p.sel, &self.probe_layout, &mut out)?
                }
            }
        }
        Ok(Some(out))
    }
}
