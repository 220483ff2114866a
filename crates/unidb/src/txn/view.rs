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
//! (b) the transaction's own updated/inserted rows. The planner side
//! reports no usable indexes for dirty tables, forcing sequential scans —
//! index entries reflect latest state, not the snapshot, so rid-based
//! access paths would be wrong.

use crate::catalog::{Catalog, EquiDepthHistogram};
use crate::datum::Datum;
use crate::db::{Inner, TableStorage};
use crate::error::{DbError, DbResult};
use crate::exec::{ScanProgress, ScanSpec, StorageAccess};
use crate::expr::func::FunctionRegistry;
use crate::plan::planner::PlannerContext;
use crate::storage::heap::Rid;
use crate::tuple::{decode_row_cols_into, Row};
use crate::txn::{TableWrites, WriteSet};
use std::ops::Bound;
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
        self.inner
            .tables
            .get(&table_id)
            .ok_or_else(|| DbError::Internal("missing table storage".into()))
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

    /// Rows served by the virtual page appended after the real heap:
    /// snapshot-visible prior images, then the overlay's updated and
    /// inserted rows.
    fn visit_virtual_page(
        &self,
        storage: &TableStorage,
        overlay: Option<&TableWrites>,
        max_fields: usize,
        on_row: &mut dyn FnMut(&[Datum]) -> DbResult<()>,
    ) -> DbResult<()> {
        let mut emit = |row: &Row| on_row(&row[..max_fields.min(row.len())]);
        for v in &storage.old_versions {
            if v.born <= self.snapshot && self.snapshot < v.died {
                // A prior image whose rid this transaction already wrote
                // is superseded by the overlay entry emitted below —
                // serving both would duplicate the logical row.
                if let Some(tw) = overlay {
                    if tw.updated.contains_key(&v.rid) || tw.deleted.contains(&v.rid) {
                        continue;
                    }
                }
                emit(&v.row)?;
            }
        }
        if let Some(tw) = overlay {
            for row in tw.updated.values() {
                emit(row)?;
            }
            for row in tw.inserted.iter().flatten() {
                emit(row)?;
            }
        }
        Ok(())
    }
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
            self.visit_virtual_page(storage, overlay, spec.prefix, on_row)?;
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
        // Defensive: the planner never emits rid-based access paths for
        // dirty tables (no indexes are reported below), but filter by
        // visibility anyway so a stale plan cannot leak future rows.
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        let visible: Vec<Rid> =
            rids.iter().copied().filter(|&rid| self.rid_visible(storage, overlay, rid)).collect();
        self.inner.fetch_rids(table_id, &visible)
    }

    fn btree_eq(&self, table_id: u32, column: &str, key: &Datum) -> DbResult<Vec<Rid>> {
        self.inner.btree_eq(table_id, column, key)
    }

    fn btree_range(
        &self,
        table_id: u32,
        column: &str,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> DbResult<Vec<Rid>> {
        self.inner.btree_range(table_id, column, lo, hi)
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

impl PlannerContext for ReadView<'_> {
    fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    fn funcs(&self) -> &FunctionRegistry {
        &self.inner.funcs
    }

    fn btree_columns(&self, table_id: u32) -> Vec<(String, usize)> {
        // Index entries describe the *latest* heap, not the snapshot:
        // dirty tables must plan as sequential scans over the view.
        if self.dirty(table_id) {
            return Vec::new();
        }
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
