//! Bounded Top-N: `ORDER BY … LIMIT n [OFFSET k]` fused into one heap.
//!
//! A SeqScan under a Top-N hands over the image pages it serves whole
//! ([`ImagePage`](super::ImagePage)), so the sort keys are read from the
//! column image and a row is built only for a row that enters the heap.
//! The loop is generic over [`Rows`]: an image page with its selection
//! vector, or a run of the batch's rows, in the input's order — so the
//! rows kept, and the order of ties, are those of a row-at-a-time Top-N.

use super::rows::{computed_reads, read, Rows, Run, ScratchRow};
use super::{cmp_key_vecs, Batch, BatchIter, BoxIter, Layout, BATCH_ROWS};
use crate::datum::Datum;
use crate::error::DbResult;
use crate::expr::compile::CompiledExpr;
use crate::tuple::Row;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Bounded Top-N: a max-heap (in sort order) of the best `offset + n`
/// rows seen so far. A sequence number per row makes the heap order a
/// total order that exactly reproduces stable-sort-then-limit, so results
/// are deterministic.
pub(super) struct TopNIter<'a> {
    pub input: Option<BoxIter<'a>>,
    pub keys: Vec<CompiledExpr>,
    pub dirs: Arc<Vec<bool>>,
    pub n: u64,
    pub offset: u64,
    /// The input's layout: what a row holds, and the table column each
    /// position of a handed-over image page is read from.
    pub layout: Layout,
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

/// The heap and what fills it.
struct Top {
    heap: BinaryHeap<TopEntry>,
    /// Rows to keep: `offset + n`.
    keep: usize,
    /// The next row's sequence number.
    seq: u64,
    /// The current row's key.
    key: Vec<Datum>,
}

impl TopNIter<'_> {
    /// Offer the rows `sel` of `rows`, whose position `j` is column
    /// `cols[j]`, to the heap.
    fn offer<R: Rows>(
        &self,
        top: &mut Top,
        scratch: &mut ScratchRow,
        rows: &R,
        sel: &[u32],
        cols: &[usize],
    ) -> DbResult<()> {
        for &r in sel {
            let r = r as usize;
            // Key evaluation happens for every input row — exactly as the
            // unfused Sort would — so error behavior is unchanged.
            let row = scratch.at(rows, cols, r);
            top.key.clear();
            for k in &self.keys {
                let (mut tmp, mut slot) = (Datum::Null, None);
                top.key.push(read(k, rows, cols, r, row, &mut tmp, &mut slot)?.clone());
            }
            if top.keep == 0 {
                continue;
            }
            let seq = top.seq;
            top.seq += 1;
            if top.heap.len() == top.keep {
                // Cheap reject: worse than the current worst kept row.
                let worst = top.heap.peek().expect("non-empty at capacity");
                if cmp_key_vecs(&top.key, &worst.key, &self.dirs).then(seq.cmp(&worst.seq)).is_ge()
                {
                    continue;
                }
            }
            // Only a row entering the heap is built.
            let mut tmp = Datum::Null;
            let row = cols.iter().map(|&c| rows.get(c, r, &mut tmp).clone()).collect();
            let dirs = Arc::clone(&self.dirs);
            top.heap.push(TopEntry { key: top.key.clone(), seq, row, dirs });
            if top.heap.len() > top.keep {
                top.heap.pop();
            }
        }
        Ok(())
    }
}

impl BatchIter for TopNIter<'_> {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut input) = self.input.take() else { return Ok(None) };
        let keep = usize::try_from(self.offset.saturating_add(self.n)).unwrap_or(usize::MAX);
        let heap = BinaryHeap::with_capacity(keep.min(BATCH_ROWS) + 1);
        let mut top = Top { heap, keep, seq: 0, key: Vec::with_capacity(self.keys.len()) };
        let mut scratch = ScratchRow::default();
        scratch.prepare(self.layout.len(), &computed_reads(&self.keys));
        while let Some(batch) = input.next_batch()? {
            for run in batch.runs() {
                match run {
                    Run::Rows(flat) => {
                        let (sel, cols) = flat.all();
                        self.offer(&mut top, &mut scratch, &flat, &sel, &cols)?
                    }
                    Run::Page(p) => {
                        self.offer(&mut top, &mut scratch, &*p.page, &p.sel, &self.layout)?
                    }
                }
            }
        }
        let mut entries = top.heap.into_sorted_vec();
        let skip = (self.offset as usize).min(entries.len());
        let mut out = Batch::with_capacity(self.layout.len(), entries.len() - skip);
        for e in entries.drain(skip..) {
            out.data.extend(e.row);
            out.end_row();
        }
        Ok(Some(out))
    }
}
