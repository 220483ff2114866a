//! Snapshot-isolated storage and planner view.
//!
//! A [`ReadView`] wraps the engine state with a snapshot timestamp and
//! (for statements inside a transaction) the transaction's own write-set,
//! and implements both [`StorageAccess`] and [`PlannerContext`], so the
//! ordinary planner and executor run unmodified against it.
//!
//! **Fast path**: a table nothing committed to since the snapshot, and
//! that the transaction has not written, scans exactly like a latest-read
//! — straight delegation, no per-row checks.
//!
//! **Versioned path**: a *dirty* table (committed-to after the snapshot,
//! or carrying overlay writes) scans with per-rid visibility filtering,
//! and appends one *virtual page* past the real heap serving (a) prior
//! images visible to the snapshot but already superseded in the heap and
//! (b) the transaction's own updated/inserted rows. Zone-map pruning and
//! user-defined indexes are off on this path.
//!
//! **Index probes on dirty tables: candidate re-check.** B-trees stay
//! visible to the planner. An index describes the *latest* heap, so a probe
//! returns (1) the index's rids, each re-checked against the snapshot when
//! it is fetched, plus (2) the virtual-page rows whose key satisfies the
//! probe's bound, addressed by synthetic rids past the last heap page.
//! This is sound because anything the snapshot sees is either still the
//! heap's content at its rid — so the index files it under its key and the
//! re-check keeps it — or was replaced/removed after the snapshot, which
//! is exactly when it sits in `old_versions`, or is an own write in the
//! write-set: both are served from the virtual page. Conversely an index
//! rid whose content the snapshot does not see (born later, or hidden by
//! an own write) fails the re-check.

use crate::catalog::{Catalog, EquiDepthHistogram};
use crate::datum::Datum;
use crate::db::{Inner, TableStorage};
use crate::error::{DbError, DbResult};
use crate::exec::{ScanProgress, ScanSpec, StorageAccess};
use crate::expr::func::FunctionRegistry;
use crate::locate::{Prov, RowSource};
use crate::plan::planner::PlannerContext;
use crate::storage::heap::Rid;
use crate::tuple::{decode_row_cols_into, Row};
use crate::txn::{TableWrites, WriteSet};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering;

pub(crate) struct ReadView<'a> {
    pub(crate) inner: &'a Inner,
    /// Rows are visible iff their commit timestamp is at or below this.
    pub(crate) snapshot: u64,
    /// The running transaction's own writes (`None` for a bare snapshot
    /// read with no transaction overlay).
    pub(crate) writes: Option<&'a WriteSet>,
}

impl<'a> ReadView<'a> {
    pub(crate) fn new(inner: &'a Inner, snapshot: u64, writes: Option<&'a WriteSet>) -> Self {
        ReadView { inner, snapshot, writes }
    }

    fn overlay(&self, table_id: u32) -> Option<&'a TableWrites> {
        self.writes.and_then(|w| w.table(table_id))
    }

    /// A table needs versioned scanning if anything committed to it after
    /// the snapshot, or if the transaction has buffered writes against it.
    fn dirty(&self, table_id: u32) -> bool {
        self.overlay(table_id).is_some()
            || self.inner.table_gens.get(&table_id).copied().unwrap_or(0) > self.snapshot
    }

    fn storage(&self, table_id: u32) -> DbResult<&'a TableStorage> {
        self.inner.storage(table_id)
    }

    /// Is the heap row at `rid` part of this view's base relation? Own
    /// updates and deletes hide the heap row (updates re-serve the new
    /// contents from the virtual page); rows born after the snapshot are
    /// invisible.
    fn rid_visible(&self, storage: &TableStorage, overlay: Option<&TableWrites>, rid: Rid) -> bool {
        if let Some(tw) = overlay {
            if tw.deleted.contains(&rid) || tw.updated.contains_key(&rid) {
                return false;
            }
        }
        storage.born.get(&rid).copied().unwrap_or(0) <= self.snapshot
    }

    /// The rows of the virtual page appended after the real heap:
    /// snapshot-visible prior images, then the overlay's updated and
    /// inserted rows. The position in this sequence is what a synthetic rid
    /// addresses ([`virtual_rid`]); it is stable for as long as the view
    /// is, because the view borrows the write-set and statements hold the
    /// engine read lock.
    fn virtual_rows(
        &self,
        storage: &'a TableStorage,
        overlay: Option<&'a TableWrites>,
    ) -> impl Iterator<Item = VirtualRow<'a>> + '_ {
        let snapshot = self.snapshot;
        let prior =
            storage.old_versions.iter().filter(move |v| v.born <= snapshot && snapshot < v.died);
        let updated = overlay.into_iter().flat_map(|tw| &tw.updated);
        let inserted = overlay.into_iter().flat_map(|tw| tw.inserted.iter().enumerate());
        prior
            .map(move |v| VirtualRow {
                prov: Prov::Stale,
                row: &v.row,
                readable: !overlay.is_some_and(|tw| {
                    tw.updated.contains_key(&v.rid) || tw.deleted.contains(&v.rid)
                }),
            })
            .chain(updated.map(|(rid, row)| VirtualRow {
                prov: Prov::Committed(*rid),
                row,
                readable: true,
            }))
            .chain(inserted.filter_map(|(i, slot)| {
                Some(VirtualRow { prov: Prov::OwnInsert(i), row: slot.as_ref()?, readable: true })
            }))
    }

    /// The rows at `rids` as the view sees them; `for_write` adds the
    /// unreadable prior images a write must conflict on.
    fn located(&self, table_id: u32, rids: &[Rid], for_write: bool) -> DbResult<Vec<(Prov, Row)>> {
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        let real_pages = storage.heap.num_pages();
        let mut virtual_page: Option<Vec<VirtualRow<'_>>> = None;
        let mut out = Vec::with_capacity(rids.len());
        for &rid in rids {
            match virtual_index(real_pages, rid) {
                // A heap rid is served only if the view sees it, whatever
                // produced the rid list.
                None if self.rid_visible(storage, overlay, rid) => {
                    out.extend(storage.fetch_rows(&[rid], |rid, row| (Prov::Committed(rid), row))?);
                }
                None => {}
                Some(i) => {
                    let page = virtual_page
                        .get_or_insert_with(|| self.virtual_rows(storage, overlay).collect());
                    out.extend(
                        page.get(i)
                            .filter(|v| v.readable || for_write)
                            .map(|v| (v.prov, v.row.clone())),
                    );
                }
            }
        }
        Ok(out)
    }

    /// Candidates for an index probe on a dirty table. The index describes
    /// the *latest* heap: its rids stay candidates (the fetch drops the
    /// ones this view does not see, see [`ReadView::located`]), and what
    /// the view sees and the index does not — which can only be a prior
    /// image or an own write, i.e. a row of the virtual page — is added
    /// when its key is `in_bound`, addressed by synthetic rid.
    fn with_virtual_candidates(
        &self,
        table_id: u32,
        column: &str,
        mut rids: Vec<Rid>,
        in_bound: impl Fn(&Datum) -> bool,
    ) -> DbResult<Vec<Rid>> {
        if !self.dirty(table_id) {
            return Ok(rids);
        }
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        let pos = self
            .inner
            .catalog
            .table_by_id(table_id)
            .and_then(|def| def.column_index(column))
            .ok_or_else(|| DbError::Internal(format!("no column {column} to re-check")))?;
        let real_pages = storage.heap.num_pages();
        for (i, v) in self.virtual_rows(storage, overlay).enumerate() {
            if in_bound(&v.row[pos]) {
                rids.push(virtual_rid(real_pages, i)?);
            }
        }
        Ok(rids)
    }
}

/// One row of a dirty table's virtual page.
struct VirtualRow<'a> {
    prov: Prov,
    row: &'a Row,
    /// False for the prior image of a rid this transaction itself rewrote
    /// or deleted: reads skip it (the overlay entry, or nothing, stands in
    /// its place), but a write whose filter matches it would write through
    /// a row a concurrent transaction committed over, and must conflict.
    readable: bool,
}

/// Slots per page of the synthetic rid space.
const VIRTUAL_SLOTS: usize = 1 << 16;

/// The synthetic rid of row `index` of the virtual page: past the last real
/// heap page, so it can never collide with a heap rid. Indexes beyond one
/// page's worth of slots continue on the following (equally virtual) pages.
fn virtual_rid(real_pages: u32, index: usize) -> DbResult<Rid> {
    u32::try_from(index / VIRTUAL_SLOTS)
        .ok()
        .and_then(|page| real_pages.checked_add(page))
        .map(|page| Rid { page, slot: (index % VIRTUAL_SLOTS) as u16 })
        .ok_or_else(|| DbError::Internal("virtual page out of rid space".into()))
}

/// Inverse of [`virtual_rid`]; `None` for a heap rid.
fn virtual_index(real_pages: u32, rid: Rid) -> Option<usize> {
    let page = rid.page.checked_sub(real_pages)?;
    Some(page as usize * VIRTUAL_SLOTS + rid.slot as usize)
}

impl StorageAccess for ReadView<'_> {
    fn executing(&self) -> &std::sync::atomic::AtomicUsize {
        self.inner.executing()
    }

    fn scan_batches(
        &self,
        table_id: u32,
        first_page: u32,
        max_pages: u32,
        spec: &ScanSpec,
        on_row: &mut dyn FnMut(&[Datum]) -> DbResult<()>,
    ) -> DbResult<ScanProgress> {
        if !self.dirty(table_id) {
            return self.inner.scan_batches(table_id, first_page, max_pages, spec, on_row);
        }
        // Versioned path: no zone-map pruning. Zones describe the latest
        // heap, while this view filters per-rid and serves prior images
        // from the virtual page; visiting every page keeps the soundness
        // argument local. The path choice depends only on table state,
        // never on parallelism, so counters stay deterministic.
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        let real = storage.heap.num_pages();
        // One virtual page past the heap carries prior images and the
        // overlay, so morsel-parallel scans pick it up like any other page.
        let total = real.saturating_add(1);
        if first_page >= total {
            return Ok(ScanProgress {
                next_page: None,
                pages_read: 0,
                pages_skipped: 0,
                segments_decoded: 0,
            });
        }
        let end = first_page.saturating_add(max_pages).min(total);
        let mut segments = 0u64;
        let mut scratch: Row = Vec::new();
        for page_no in first_page..end.min(real) {
            let (mut rows_on_page, mut referenced) = (0u64, 0u64);
            storage.heap.page_visit_rows_rid(page_no, &mut |rid, bytes| {
                if !self.rid_visible(storage, overlay, rid) {
                    return Ok(());
                }
                decode_row_cols_into(&mut scratch, bytes, spec.prefix, spec.mask.as_deref())?;
                if rows_on_page == 0 {
                    referenced = match spec.mask.as_deref() {
                        Some(m) => m.iter().take(scratch.len()).filter(|b| **b).count() as u64,
                        None => scratch.len() as u64,
                    };
                }
                rows_on_page += 1;
                on_row(&scratch)
            })?;
            if rows_on_page > 0 {
                segments += referenced;
            }
        }
        if end == total {
            // The virtual page serves pre-materialized rows; it decodes
            // no segments, identically at any parallelism.
            for v in self.virtual_rows(storage, overlay).filter(|v| v.readable) {
                on_row(&v.row[..spec.prefix.min(v.row.len())])?;
            }
        }
        let real_visited = end.min(real).saturating_sub(first_page.min(real));
        if real_visited > 0 {
            self.inner.scan_pages.fetch_add(u64::from(real_visited), Ordering::Relaxed);
        }
        Ok(ScanProgress {
            next_page: if end < total { Some(end) } else { None },
            pages_read: end - first_page,
            pages_skipped: 0,
            segments_decoded: segments,
        })
    }

    fn fetch_rids(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<Row>> {
        if !self.dirty(table_id) {
            return self.inner.fetch_rids(table_id, rids);
        }
        Ok(self.located(table_id, rids, false)?.into_iter().map(|(_, row)| row).collect())
    }

    fn btree_eq(&self, table_id: u32, column: &str, key: &Datum) -> DbResult<Vec<Rid>> {
        let rids = self.inner.btree_eq(table_id, column, key)?;
        self.with_virtual_candidates(table_id, column, rids, |k| k == key)
    }

    fn btree_range(
        &self,
        table_id: u32,
        column: &str,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> DbResult<Vec<Rid>> {
        let rids = self.inner.btree_range(table_id, column, lo, hi)?;
        self.with_virtual_candidates(table_id, column, rids, |k| (lo, hi).contains(k))
    }

    fn udi_probe(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> DbResult<Vec<Rid>> {
        self.inner.udi_probe(table_id, column, func, args)
    }
}

impl RowSource for ReadView<'_> {
    fn rows_at(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<(Prov, Row)>> {
        if !self.dirty(table_id) {
            return self.inner.rows_at(table_id, rids);
        }
        self.located(table_id, rids, true)
    }

    fn for_each_row(
        &self,
        table_id: u32,
        visit: &mut dyn FnMut(Prov, Row) -> DbResult<()>,
    ) -> DbResult<()> {
        if !self.dirty(table_id) {
            return self.inner.for_each_row(table_id, visit);
        }
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        storage.for_each_row(&mut |rid, row| {
            if self.rid_visible(storage, overlay, rid) {
                visit(Prov::Committed(rid), row)?;
            }
            Ok(())
        })?;
        for v in self.virtual_rows(storage, overlay) {
            visit(v.prov, v.row.clone())?;
        }
        Ok(())
    }
}

impl PlannerContext for ReadView<'_> {
    fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    fn funcs(&self) -> &FunctionRegistry {
        &self.inner.funcs
    }

    fn btree_columns(&self, table_id: u32) -> Vec<(String, usize)> {
        // Dirty or not: probes on a dirty table re-check their candidates
        // against the snapshot, so the index stays usable.
        self.inner.btree_columns(table_id)
    }

    fn row_count(&self, table_id: u32) -> u64 {
        // A cardinality estimate for costing; latest count is close enough.
        self.inner.row_count(table_id)
    }

    fn column_ndv(&self, table_id: u32, column: &str) -> Option<u64> {
        // NDV only steers build-side choice and join order; like
        // `row_count`, the latest sketch is close enough for a snapshot.
        self.inner.column_ndv(table_id, column)
    }

    fn column_histogram(&self, table_id: u32, column: &str) -> Option<EquiDepthHistogram> {
        // Histograms only rank access paths and order filters; the
        // latest sample is close enough for a snapshot.
        self.inner.column_histogram(table_id, column)
    }

    fn column_null_frac(&self, table_id: u32, column: &str) -> Option<f64> {
        self.inner.column_null_frac(table_id, column)
    }

    fn udi_selectivity(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> Option<f64> {
        if self.dirty(table_id) {
            return None;
        }
        self.inner.udi_selectivity(table_id, column, func, args)
    }
}
