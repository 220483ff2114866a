//! The engine as the planner and the executor see it.
//!
//! A [`ReadView`] is the engine state at a snapshot timestamp, plus (for
//! statements inside a transaction) the transaction's own write-set. It is
//! the only implementor of [`StorageAccess`] and [`PlannerContext`]: every
//! statement — autocommit or between `BEGIN` and `COMMIT`, `SELECT` or the
//! row location of a write — plans and executes against one, so there is one
//! scan loop, one set of index probes and one set of planner statistics.
//! Autocommit statements and prepared plans use the view of the newest
//! commit with no write-set ([`Inner::latest`]).
//!
//! **Scans.** A table is *dirty* for a view when something committed to it
//! after the snapshot or the transaction has buffered writes against it.
//! Every scan visits its pages the same way: a page whose zone map refutes
//! the filter's bounds is skipped; otherwise the page is filtered and only
//! its surviving rows are written out, in slot order. On a clean table a
//! page is served from its cached columnar image when the scan's column
//! mask is sparse or its filter has kernel leaves: the leaves run a column
//! at a time, the residual per row on their survivors. Every other page is
//! decoded row by row and filtered per row, and on a dirty table each heap
//! row is first checked for visibility by rid. A dirty table then serves
//! one *virtual page* past the real heap: (a) prior images visible to the
//! snapshot but already superseded in the heap and (b) the transaction's
//! own updated/inserted rows. Column images are off on dirty tables. For
//! an Aggregate the scan hands an image page over whole, with its
//! survivors' selection vector, rather than writing their values out.
//!
//! **Zone pruning on dirty tables is sound.** A zone map describes the
//! *current* content of its page, exactly. Every heap row a view serves is
//! the current content of its rid (`rid_visible` hides rids born after the
//! snapshot or rewritten by the transaction), so a page whose zone refutes
//! the bounds holds no row the view would have served. What the view sees
//! and the heap no longer holds — a row replaced or removed since the
//! snapshot, or an own write — is served from the virtual page, which is
//! never pruned. That includes a row whose prior image satisfies the bounds
//! while its page's current zone refutes them.
//!
//! **Index probes on dirty tables: candidate re-check.** Indexes of every
//! kind stay visible to the planner. An index describes the *latest* heap,
//! so a probe returns (1) the index's rids, each re-checked against the
//! snapshot when it is fetched, plus (2) the virtual-page rows that may
//! satisfy the probe, addressed by synthetic rids past the last heap page:
//! for a B-tree those whose key is inside the probe's bound, for a domain
//! index all of them — its scan re-checks the predicate on every row it
//! fetches anyway, so the virtual rows are tested by the same residual and
//! no user-defined function runs twice on one row.
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
use crate::exec::{ImagePage, ScanProgress, ScanSpec, StorageAccess};
use crate::expr::func::FunctionRegistry;
use crate::index::{AccessMethod, BTreeIndex};
use crate::locate::Prov;
use crate::plan::planner::PlannerContext;
use crate::storage::colpage::ColumnPage;
use crate::storage::heap::Rid;
use crate::tuple::{decode_row_cols_into, Row};
use crate::txn::{TableWrites, WriteSet};
use std::ops::{Bound, RangeBounds};
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) struct ReadView<'a> {
    pub(crate) inner: &'a Inner,
    /// Rows are visible iff their commit timestamp is at or below this.
    snapshot: u64,
    /// The running transaction's own writes (`None` for a view of committed
    /// state alone).
    writes: Option<&'a WriteSet>,
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

    /// Pages a scan of `table_id` covers: the heap's, plus the virtual page
    /// a dirty table carries past them with prior images and the overlay.
    fn page_count(&self, table_id: u32) -> DbResult<u32> {
        let real = self.storage(table_id)?.heap.num_pages();
        Ok(real.saturating_add(u32::from(self.dirty(table_id))))
    }

    fn btree(&self, table_id: u32, column: &str) -> DbResult<&'a BTreeIndex> {
        let index = self.storage(table_id)?.btree(column);
        index.ok_or_else(|| DbError::Internal(format!("no B-tree on {column}")))
    }

    fn domain_index(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
    ) -> Option<&'a dyn AccessMethod> {
        self.inner.tables.get(&table_id)?.domain_index(column, func)
    }

    /// Position of a named column in its table.
    fn column_pos(&self, table_id: u32, column: &str) -> Option<usize> {
        self.inner.catalog.table_by_id(table_id)?.column_index(column)
    }

    /// Is the heap row at `rid` part of this view's base relation? Own
    /// updates and deletes hide the heap row (updates re-serve the new
    /// contents from the virtual page); rows born after the snapshot are
    /// invisible. On a clean table every rid is visible.
    fn rid_visible(&self, storage: &TableStorage, overlay: Option<&TableWrites>, rid: Rid) -> bool {
        if overlay.is_some_and(|tw| tw.replaces(rid)) {
            return false;
        }
        storage.born.get(&rid).copied().unwrap_or(0) <= self.snapshot
    }

    /// The rows of the virtual page appended after the real heap:
    /// snapshot-visible prior images, then the overlay's updated and
    /// inserted rows (none of either on a clean table). The position in this
    /// sequence is what a synthetic rid addresses ([`virtual_rid`]); it is
    /// stable for as long as the view is, because the view borrows the
    /// write-set and statements hold the engine read lock.
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
                readable: !overlay.is_some_and(|tw| tw.replaces(v.rid)),
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

    /// What the view keeps of the rows at `rids`, in input order: a heap rid
    /// is served only if the view sees it, whatever produced the rid list,
    /// and a synthetic rid addresses the virtual page. `for_write` adds the
    /// unreadable prior images a write must conflict on.
    fn located<T>(
        &self,
        table_id: u32,
        rids: &[Rid],
        for_write: bool,
        keep: impl Fn(Prov, Row) -> T,
    ) -> DbResult<Vec<T>> {
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        let real_pages = storage.heap.num_pages();
        let mut virtual_page: Option<Vec<VirtualRow<'_>>> = None;
        let mut out = Vec::with_capacity(rids.len());
        for &rid in rids {
            match virtual_index(real_pages, rid) {
                None if self.rid_visible(storage, overlay, rid) => {
                    out.extend(storage.fetch_row(rid)?.map(|row| keep(Prov::Committed(rid), row)));
                }
                None => {}
                Some(i) => {
                    let page = virtual_page
                        .get_or_insert_with(|| self.virtual_rows(storage, overlay).collect());
                    out.extend(
                        page.get(i)
                            .filter(|v| v.readable || for_write)
                            .map(|v| keep(v.prov, v.row.clone())),
                    );
                }
            }
        }
        Ok(out)
    }

    /// The rows at `rids` with where each lives, for the row locator; rids
    /// that are missing or not part of this view are skipped.
    pub(crate) fn rows_at(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<(Prov, Row)>> {
        self.located(table_id, rids, true, |prov, row| (prov, row))
    }

    /// Every row of the table in this view, with where it lives.
    pub(crate) fn for_each_row(
        &self,
        table_id: u32,
        visit: &mut dyn FnMut(Prov, Row) -> DbResult<()>,
    ) -> DbResult<()> {
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

    /// Candidates for an index probe. The index describes the *latest* heap:
    /// its rids stay candidates (the fetch drops the ones this view does not
    /// see, see [`ReadView::located`]), and on a dirty table what the view
    /// sees and the index does not — which can only be a prior image or an
    /// own write, i.e. a row of the virtual page — is added when its key is
    /// `in_bound`, addressed by synthetic rid.
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
        let pos = self
            .column_pos(table_id, column)
            .ok_or_else(|| DbError::Internal(format!("no column {column} to re-check")))?;
        let real_pages = storage.heap.num_pages();
        for (i, v) in self.virtual_rows(storage, self.overlay(table_id)).enumerate() {
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

/// The cached (or freshly built) columnar image of a heap page, or `None`
/// when the page is not a candidate: the append-target tail page is still
/// changing, and pages with overflow stubs are left to the row path.
fn column_image(
    storage: &TableStorage,
    page_no: u32,
    total: u32,
) -> DbResult<Option<Arc<ColumnPage>>> {
    if page_no + 1 >= total {
        return Ok(None);
    }
    if let Some(cp) = storage.col_cache.lock().get(&page_no) {
        return Ok(Some(Arc::clone(cp)));
    }
    if !storage.heap.page_all_inline(page_no) {
        return Ok(None);
    }
    let Some(cp) = ColumnPage::build(storage.page_rows(page_no)?) else { return Ok(None) };
    let cp = Arc::new(cp);
    storage.col_cache.lock().insert(page_no, Arc::clone(&cp));
    Ok(Some(cp))
}

/// The survivors of one page's image, into `sel`: the kernel leaves narrow
/// a selection vector a column at a time, and the residual runs per row on
/// their survivors (with only its own columns filled in the scratch).
fn image_survivors(
    cp: &ColumnPage,
    spec: &ScanSpec,
    sel: &mut Vec<u32>,
    scratch: &mut Row,
) -> DbResult<()> {
    cp.select(&spec.filter.leaves, sel);
    if let Some(residual) = &spec.filter.residual {
        scratch.clear();
        scratch.resize(spec.prefix, Datum::Null);
        let mut kept = 0;
        for i in 0..sel.len() {
            let r = sel[i];
            for &c in &spec.residual_cols {
                scratch[c] = cp.value(c, r as usize);
            }
            if residual.accepts(scratch)? {
                sel[kept] = r;
                kept += 1;
            }
        }
        sel.truncate(kept);
    }
    Ok(())
}

impl StorageAccess for ReadView<'_> {
    fn scan_batches(
        &self,
        table_id: u32,
        first_page: u32,
        max_pages: u32,
        spec: &ScanSpec,
        out: &mut Vec<Datum>,
        mut pages: Option<&mut Vec<ImagePage>>,
    ) -> DbResult<ScanProgress> {
        let storage = self.storage(table_id)?;
        let overlay = self.overlay(table_id);
        // Every choice below depends on table state and the spec alone, so
        // the counters stay deterministic.
        let dirty = self.dirty(table_id);
        let real = storage.heap.num_pages();
        let total = self.page_count(table_id)?;
        if first_page >= total {
            return Ok(ScanProgress {
                next_page: None,
                pages_read: 0,
                pages_skipped: 0,
                segments_decoded: 0,
                rows: 0,
            });
        }
        let end = first_page.saturating_add(max_pages).min(total);
        let (mut skipped, mut segments, mut visited, mut rows) = (0u32, 0u64, 0u64, 0usize);
        // Survivors handed over in pages rather than appended.
        let mut paged = 0usize;
        let mut scratch: Row = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        // A column image holds INT and FLOAT columns as typed vectors, TEXT
        // as dictionaries and everything else decoded, so a scan served
        // from one runs its kernel leaves a column at a time and decodes
        // nothing; the row codec must parse past every column before the
        // last one read.
        // Images serve scans whose mask skips interior columns and scans
        // with kernel leaves. A dense scan without leaves (no mask, or
        // every prefix column referenced — trailing columns are free to
        // skip in row form too) decodes rows in place and builds none. An
        // image has no rids to check visibility by, so a dirty table never
        // uses one. `segments_decoded` counts the columns each visited page
        // serves, with the same formula on both paths.
        let images = !dirty
            && (!spec.filter.leaves.is_empty()
                || spec.mask.as_deref().is_some_and(|m| m.iter().any(|b| !*b)));
        let referenced = |width: usize| match spec.mask.as_deref() {
            Some(m) => m.iter().take(width).filter(|b| **b).count() as u64,
            None => width as u64,
        };
        for page_no in first_page..end.min(real) {
            // Zone-map pruning (sound on dirty tables too: module doc). Only
            // reached when the filter has kernel leaves, i.e. the whole
            // filter is error-free; an unconditional scan visits every page.
            if !spec.bounds.is_empty()
                && storage.zones.page(page_no).is_some_and(|zone| zone.refutes(&spec.bounds))
            {
                skipped += 1;
                continue;
            }
            visited += 1;
            if images {
                if let Some(cp) = column_image(storage, page_no, real)? {
                    segments += referenced(cp.arity().min(spec.prefix));
                    image_survivors(&cp, spec, &mut sel, &mut scratch)?;
                    match pages.as_deref_mut() {
                        Some(pages) if !sel.is_empty() => {
                            let at = rows - paged;
                            rows += sel.len();
                            paged += sel.len();
                            pages.push(ImagePage { at, page: cp, sel: sel.clone() });
                        }
                        Some(_) => {}
                        None => {
                            cp.append(&sel, &spec.emit, out);
                            rows += sel.len();
                        }
                    }
                    continue;
                }
            }
            // Row path: decode only the referenced columns, run the whole
            // filter on the scratch, and move a survivor's layout columns
            // out. The per-page segment count uses the same formula as the
            // image path — referenced columns within the page's row arity,
            // counted once per page with a row served — so the counter is
            // identical whichever representation served the page.
            let (mut rows_on_page, mut width) = (0u64, 0usize);
            storage.heap.page_visit_rows_rid(page_no, &mut |rid, bytes| {
                if dirty && !self.rid_visible(storage, overlay, rid) {
                    return Ok(());
                }
                decode_row_cols_into(&mut scratch, bytes, spec.prefix, spec.mask.as_deref())?;
                width = scratch.len();
                rows_on_page += 1;
                if spec.filter.accepts(&scratch)? {
                    // A stored row shorter than the prefix reads NULL past
                    // its end.
                    out.extend(spec.emit.iter().map(|&c| {
                        scratch
                            .get_mut(c)
                            .map_or(Datum::Null, |d| std::mem::replace(d, Datum::Null))
                    }));
                    rows += 1;
                }
                Ok(())
            })?;
            if rows_on_page > 0 {
                segments += referenced(width);
            }
        }
        if dirty && end == total {
            // The virtual page serves pre-materialized rows; it is never
            // pruned and decodes no segments.
            for v in self.virtual_rows(storage, overlay).filter(|v| v.readable) {
                let row = &v.row[..spec.prefix.min(v.row.len())];
                if spec.filter.accepts(row)? {
                    out.extend(
                        spec.emit.iter().map(|&c| row.get(c).cloned().unwrap_or(Datum::Null)),
                    );
                    rows += 1;
                }
            }
        }
        self.inner.scan_pages.fetch_add(visited, Ordering::Relaxed);
        self.inner.scan_pages_skipped.fetch_add(u64::from(skipped), Ordering::Relaxed);
        Ok(ScanProgress {
            next_page: (end < total).then_some(end),
            pages_read: end - first_page,
            pages_skipped: skipped,
            segments_decoded: segments,
            rows,
        })
    }

    fn fetch_rids(&self, table_id: u32, rids: &[Rid]) -> DbResult<Vec<Row>> {
        self.located(table_id, rids, false, |_, row| row)
    }

    fn btree_eq(&self, table_id: u32, column: &str, key: &Datum) -> DbResult<Vec<Rid>> {
        let rids = self.btree(table_id, column)?.get(key);
        self.with_virtual_candidates(table_id, column, rids, |k| k == key)
    }

    fn btree_range(
        &self,
        table_id: u32,
        column: &str,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> DbResult<Vec<Rid>> {
        let index = self.btree(table_id, column)?;
        let rids = index.range(lo, hi).into_iter().map(|(_, rid)| rid).collect();
        self.with_virtual_candidates(table_id, column, rids, |k| (lo, hi).contains(k))
    }

    /// Every row of the virtual page is a candidate: the UdiScan's residual
    /// re-checks `func` on each fetched row.
    fn udi_probe(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> DbResult<Vec<Rid>> {
        let udi = self
            .domain_index(table_id, column, func)
            .ok_or_else(|| DbError::Internal(format!("no access method for {func} on {column}")))?;
        let rids = udi
            .probe(func, args)
            .ok_or_else(|| DbError::Internal(format!("{} cannot answer {func}", udi.name())))?;
        self.with_virtual_candidates(table_id, column, rids, |_| true)
    }
}

/// Costing inputs come from the latest state whatever the snapshot: they
/// rank access paths and order joins and filters, and the latest row counts,
/// sketches and samples are close enough for that.
impl PlannerContext for ReadView<'_> {
    fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    fn funcs(&self) -> &FunctionRegistry {
        &self.inner.funcs
    }

    fn btree_distinct_keys(&self, table_id: u32, column: &str) -> Option<usize> {
        // Dirty or not: probes on a dirty table re-check their candidates
        // against the snapshot, so the index stays usable.
        Some(self.inner.tables.get(&table_id)?.btree(column)?.distinct_keys())
    }

    fn row_count(&self, table_id: u32) -> u64 {
        self.inner.tables.get(&table_id).map_or(0, |t| t.heap.len())
    }

    fn column_ndv(&self, table_id: u32, column: &str) -> Option<u64> {
        self.inner.catalog.column_ndv(table_id, self.column_pos(table_id, column)?)
    }

    fn column_histogram(&self, table_id: u32, column: &str) -> Option<&EquiDepthHistogram> {
        self.inner.catalog.column_histogram(table_id, self.column_pos(table_id, column)?)
    }

    fn column_null_frac(&self, table_id: u32, column: &str) -> Option<f64> {
        self.inner.catalog.column_null_frac(table_id, self.column_pos(table_id, column)?)
    }

    fn udi_selectivity(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> Option<f64> {
        // Dirty or not, as for B-trees: the probe adds the virtual page.
        let udi = self.domain_index(table_id, column, func)?;
        Some(udi.selectivity(func, args).unwrap_or(0.1))
    }
}
