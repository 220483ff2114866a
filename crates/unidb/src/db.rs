//! The database engine facade: the statement entries and the one routine
//! they all call, DDL, the row mutators every write is applied (and
//! replayed) through, durability, and the extension registration surface.
//! Statements themselves run in [`crate::txn`]: an autocommit statement —
//! read or write — is a one-statement transaction, run (and, if it wrote,
//! committed) by the same code as a statement between `BEGIN` and `COMMIT`,
//! against the same `ReadView` of storage. The engine state here is what
//! that view looks at; it implements neither the planner's nor the
//! executor's storage trait itself.

use crate::catalog::{Catalog, ColumnDef, Role, TableDef};
use crate::datum::{DataType, Datum};
use crate::error::{DbError, DbResult};
use crate::exec::stats::OpStatsSnapshot;
use crate::exec::{execute_plan, execute_plan_with_stats};
use crate::expr::eval::{eval, ColumnBinding, EvalContext};
use crate::expr::func::{AggregateFn, FunctionRegistry, IndexKindFn, ScalarBinder, ScalarFn};
use crate::index::{new_index, IndexParams, TableIndex};
use crate::locate::explain_dml;
use crate::plan::planner::{estimate_rows, plan_select, upper_bound_rows, PlannerContext};
use crate::plan::PhysicalPlan;
use crate::sql::ast::{Expr, Stmt};
use crate::sql::parser::{parse, parse_many};
use crate::storage::colpage::{ColumnPage, PageZone, ZoneMaps};
use crate::storage::heap::{HeapFile, Rid};
use crate::storage::vfs::{StdVfs, Vfs};
use crate::storage::wal::{read_log_prefix, WalRecord, WalWriter};
use crate::tuple::{encode_row, Row};
use crate::txn::exec::{run_txn_stmt, validate_and_apply};
use crate::txn::{ReadView, TxnManager, TxnState};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL/DML).
    pub rows: Vec<Row>,
    /// Rows affected by DML (0 for queries).
    pub affected: u64,
    /// EXPLAIN text, if this was an EXPLAIN.
    pub explain: Option<String>,
}

impl ResultSet {
    pub(crate) fn empty() -> Self {
        ResultSet { columns: Vec::new(), rows: Vec::new(), affected: 0, explain: None }
    }

    pub(crate) fn affected(n: u64) -> Self {
        ResultSet { affected: n, ..Self::empty() }
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Single-value convenience accessor: row 0, column 0.
    pub fn scalar(&self) -> Option<&Datum> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Write-ahead-log counters for the live log (see [`Database::wal_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appends: u64,
    /// Successful fsync-backed sync operations.
    pub syncs: u64,
    /// Failed sync attempts (each retried later with the buffer intact).
    pub sync_failures: u64,
}

#[derive(Default)]
pub(crate) struct TableStorage {
    pub(crate) heap: HeapFile,
    /// B-trees and domain indexes alike, in creation order.
    pub(crate) indexes: Vec<TableIndex>,
    /// Commit timestamp of each live rid's current content. Absent means
    /// "ancient": committed before every snapshot still alive. Entries at
    /// or below the oldest active snapshot are pruned by
    /// [`Inner::gc_versions`].
    pub(crate) born: HashMap<Rid, u64>,
    /// Prior images of updated/deleted rows, kept while any snapshot that
    /// can still see them is active. A version is visible to snapshot `s`
    /// iff `born <= s < died`.
    pub(crate) old_versions: Vec<OldVersion>,
    /// Per-page zone maps (min/max/null-count per leading column),
    /// maintained on every row mutation: inserts widen the target page's
    /// zone incrementally, deletes and updates rebuild the touched pages
    /// from the heap so zones stay exact. WAL replay re-runs the same
    /// mutators, so recovery rebuilds them for free.
    pub(crate) zones: ZoneMaps,
    /// Lazily-built columnar images of cold heap pages, keyed by page
    /// number. A page is cached only when fully inline and not the
    /// append target; any write to the page evicts its entry.
    pub(crate) col_cache: Mutex<HashMap<u32, Arc<ColumnPage>>>,
}

/// A superseded row version retained for snapshot-isolation readers.
pub(crate) struct OldVersion {
    /// The heap rid this version lived at before it was superseded — an
    /// open transaction that buffered a write against that rid must not
    /// see the version again (its own overlay supersedes it).
    pub(crate) rid: Rid,
    pub(crate) row: Row,
    pub(crate) born: u64,
    pub(crate) died: u64,
}

pub(crate) struct Inner {
    pub(crate) catalog: Catalog,
    pub(crate) tables: HashMap<u32, TableStorage>,
    pub(crate) funcs: FunctionRegistry,
    pub(crate) wal: Option<WalWriter>,
    dir: Option<PathBuf>,
    /// The file system all durability IO goes through ([`StdVfs`] in
    /// production, a fault-injecting one under test).
    vfs: Arc<dyn Vfs>,
    /// Checkpoint epoch: the snapshot and the live WAL each open with an
    /// [`WalRecord::Epoch`]; mismatch marks a stale pre-checkpoint log.
    epoch: u64,
    replaying: bool,
    /// Per-table version stamp: the commit timestamp of the last statement
    /// or transaction that changed the table. Cache layers (e.g. the
    /// server's result cache) compare snapshots of these to decide whether
    /// a cached result is still current, and MVCC read views compare them
    /// against their snapshot to take the unversioned fast path on tables
    /// nothing committed to since the snapshot was pinned.
    pub(crate) table_gens: HashMap<u32, u64>,
    /// Catalog version, bumped on DDL. Prepared statements carry the value
    /// they were planned under and refuse to run once it moves.
    catalog_gen: u64,
    /// Heap pages read by `scan_batches` since open — an observability
    /// counter (SHOW STATS, tests asserting LIMIT short-circuits). Counts
    /// only pages actually visited; zone-map-refuted pages land in
    /// [`Inner::scan_pages_skipped`] instead.
    pub(crate) scan_pages: AtomicU64,
    /// Heap pages zone maps refuted without reading, since open.
    pub(crate) scan_pages_skipped: AtomicU64,
    /// Statistics rebuilds triggered by delete-heavy churn, since open.
    pub(crate) stats_rebuilt: AtomicU64,
    /// Timestamp of the newest committed statement or transaction.
    /// Snapshots pin this value; mutations stamp `committed_ts + 1`.
    pub(crate) committed_ts: u64,
    /// True while at least one transaction snapshot is active, so row
    /// mutations must record `born` stamps and prior images. With no
    /// active snapshot the bookkeeping would be garbage-collected
    /// immediately, so it is skipped at the source.
    pub(crate) track_versions: bool,
}

/// A planned SELECT, reusable across executions without re-parsing or
/// re-planning. Produced by [`Database::prepare`]; invalidated by DDL.
#[derive(Debug, Clone)]
pub struct Prepared {
    plan: PhysicalPlan,
    columns: Vec<String>,
    table_ids: Vec<u32>,
    catalog_gen: u64,
    plan_hash: u64,
    est_rows: u64,
    stats_gen: u64,
    /// Rendered once by [`Database::prepare_as`]: a cached plan is asked
    /// for both labels on every execution.
    root_label: String,
    access_label: String,
    approx_bytes: usize,
}

impl Prepared {
    /// Output column names of the planned query.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Ids of every base table the plan reads (deduplicated).
    pub fn table_ids(&self) -> &[u32] {
        &self.table_ids
    }

    /// The catalog generation this plan was built under.
    pub fn catalog_generation(&self) -> u64 {
        self.catalog_gen
    }

    /// One-line summary of the plan's root operator (the first line of
    /// `EXPLAIN`) — what slow-query logs record instead of the whole tree.
    pub fn root_label(&self) -> String {
        self.root_label.clone()
    }

    /// The deepest line of the literal-elided plan, trimmed — the access
    /// path. Plan-flip audits record this instead of the root label
    /// because an index swapping in under an unchanged `Project` root is
    /// exactly the change worth naming; literals are elided so the label
    /// matches the hash's insensitivity to bound constants.
    pub fn access_label(&self) -> String {
        self.access_label.clone()
    }

    /// Deterministic hash of the plan *shape* (the literal-elided
    /// `EXPLAIN` tree under [`crate::fxhash::FxHasher`]). Two
    /// preparations of the same statement fingerprint produce the same
    /// hash unless the planner chose a structurally different plan —
    /// differing bound constants alone never flip it, which is exactly
    /// the sensitivity plan-change auditing wants.
    pub fn plan_hash(&self) -> u64 {
        self.plan_hash
    }

    /// The planner's cardinality estimate for this plan's output, rounded.
    pub fn estimated_rows(&self) -> u64 {
        self.est_rows
    }

    /// The statistics generation (drift-rebuild counter) this plan was
    /// costed under. A plan flip with a moved generation points at a stats
    /// rebuild as the trigger.
    pub fn stats_generation(&self) -> u64 {
        self.stats_gen
    }

    /// Rough heap footprint of this prepared statement for cache byte
    /// accounting: the plan's rendered (literal-elided) size plus
    /// column/table metadata.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }
}

/// The Unifying Database engine. Cheap to share (`Arc` internally is not
/// needed; the handle itself is `Send + Sync` via the internal lock).
///
/// Reads run concurrently: SELECT/EXPLAIN, and every statement inside a
/// transaction, take a shared (read) lock on the engine, so any number of
/// sessions can scan and join at once, borrowing heap pages directly with
/// no page latch. Autocommit DML, DDL and `COMMIT` take the exclusive
/// (write) lock.
pub struct Database {
    pub(crate) inner: RwLock<Inner>,
    /// Transaction manager: ids, snapshots, write-sets, counters. Lives
    /// outside the engine lock so transactions on different sessions run
    /// their statements concurrently.
    pub(crate) txns: TxnManager,
    /// The ambient transaction driven by textual `BEGIN`/`COMMIT`/`ROLLBACK`
    /// through [`Database::execute`] — script-style transactions that are
    /// not pinned to a transaction id the caller holds.
    pub(crate) ambient: Mutex<Option<u64>>,
}

impl Database {
    /// A volatile in-memory database.
    pub fn in_memory() -> Self {
        Database {
            inner: RwLock::new(Inner {
                catalog: Catalog::new(),
                tables: HashMap::new(),
                funcs: FunctionRegistry::with_builtins(),
                wal: None,
                dir: None,
                vfs: Arc::new(StdVfs),
                epoch: 0,
                replaying: false,
                table_gens: HashMap::new(),
                catalog_gen: 0,
                scan_pages: AtomicU64::new(0),
                scan_pages_skipped: AtomicU64::new(0),
                stats_rebuilt: AtomicU64::new(0),
                committed_ts: 0,
                track_versions: false,
            }),
            txns: TxnManager::new(),
            ambient: Mutex::new(None),
        }
    }

    /// Open (or create) a durable database in `dir`. Recovery loads the
    /// snapshot (if any) and replays the write-ahead log.
    ///
    /// Opaque types and external functions are code, not data: callers must
    /// re-register them (in the same order, for stable type ids) before the
    /// first statement touches them — exactly like loading an extension
    /// module in a conventional DBMS. Registration is allowed before
    /// `open`-time replay by doing it through [`Database::in_memory`]-style
    /// handles; in practice the adapter registers immediately after open,
    /// before replay rows reference the types, which `open` guarantees by
    /// deferring replay to [`Database::recover`].
    pub fn open(dir: &Path) -> DbResult<Self> {
        Database::open_with_vfs(dir, Arc::new(StdVfs))
    }

    /// [`Database::open`] over an explicit file system — the entry point
    /// the fault-injection harness uses to run the whole engine against a
    /// [`crate::storage::vfs::FaultVfs`].
    pub fn open_with_vfs(dir: &Path, vfs: Arc<dyn Vfs>) -> DbResult<Self> {
        vfs.create_dir_all(dir)?;
        let db = Database::in_memory();
        {
            let mut inner = db.inner.write();
            inner.dir = Some(dir.to_path_buf());
            inner.vfs = vfs;
        }
        Ok(db)
    }

    /// Run recovery: load the snapshot, replay the WAL, then arm the WAL
    /// writer. Call after registering extensions.
    ///
    /// Replay is prefix-consistent and idempotent: the WAL's valid prefix
    /// (torn tails are dropped by frame CRCs) is applied on top of the
    /// snapshot; explicit transactions apply only up to their commit
    /// record, so a crash mid-transaction leaves them invisible; and a WAL
    /// whose epoch header predates the snapshot's (a crash between
    /// snapshot rename and log truncation) is discarded instead of being
    /// double-applied.
    pub fn recover(&self) -> DbResult<()> {
        let mut inner = self.inner.write();
        let Some(dir) = inner.dir.clone() else {
            return Err(DbError::Unsupported("recover() on an in-memory database".into()));
        };
        let vfs = Arc::clone(&inner.vfs);
        inner.replaying = true;
        let (snapshot_records, _) = read_log_prefix(vfs.as_ref(), &dir.join("snapshot.db"))?;
        let snap_epoch = leading_epoch(&snapshot_records);
        inner.replay_records(snapshot_records)?;
        let wal_path = dir.join("wal.db");
        let (wal_records, valid_len) = read_log_prefix(vfs.as_ref(), &wal_path)?;
        let stale_wal = !wal_records.is_empty() && leading_epoch(&wal_records) != snap_epoch;
        let fresh_wal = wal_records.is_empty();
        if !stale_wal {
            inner.replay_records(wal_records)?;
        }
        inner.replaying = false;
        inner.epoch = snap_epoch;
        let mut wal =
            WalWriter::open(vfs.as_ref(), &wal_path, if stale_wal { 0 } else { valid_len })?;
        if stale_wal {
            wal.truncate()?;
        }
        if stale_wal || fresh_wal {
            // Stamp the epoch the log continues from, so the next recovery
            // can tell it apart from a stale pre-checkpoint log.
            wal.append(&WalRecord::Epoch(snap_epoch));
            wal.sync()?;
        }
        inner.wal = Some(wal);
        Ok(())
    }

    /// Write a snapshot and truncate the WAL.
    ///
    /// Crash safety: the snapshot is built in a temp file, fsynced, then
    /// renamed over `snapshot.db` with a bumped epoch header. Only after
    /// the rename is the WAL truncated and re-stamped. A crash anywhere in
    /// between leaves either (old snapshot + full WAL) or (new snapshot +
    /// stale WAL, skipped at recovery via the epoch) — never double apply.
    pub fn checkpoint(&self) -> DbResult<()> {
        let mut inner = self.inner.write();
        let Some(dir) = inner.dir.clone() else {
            return Err(DbError::Unsupported("checkpoint() on an in-memory database".into()));
        };
        let vfs = Arc::clone(&inner.vfs);
        let next_epoch = inner.epoch + 1;
        let tmp = dir.join("snapshot.tmp");
        {
            let mut w = WalWriter::create(vfs.as_ref(), &tmp)?;
            w.append(&WalRecord::Epoch(next_epoch));
            for rec in inner.snapshot_records()? {
                w.append(&rec);
            }
            w.sync()?;
        }
        vfs.rename(&tmp, &dir.join("snapshot.db"))?;
        // The snapshot now governs; commit the epoch even if the WAL
        // cleanup below fails (the stale log will be skipped at recovery).
        inner.epoch = next_epoch;
        if let Some(wal) = inner.wal.as_mut() {
            wal.truncate()?;
            wal.append(&WalRecord::Epoch(next_epoch));
            wal.sync()?;
        }
        Ok(())
    }

    /// Execute one statement as the default user.
    pub fn execute(&self, sql: &str) -> DbResult<ResultSet> {
        self.execute_as(sql, &Role::User("user".into()))
    }

    /// Execute one statement with an explicit role.
    ///
    /// `BEGIN` opens the ambient transaction; until `COMMIT` or `ROLLBACK`,
    /// statements through this entry run inside it. Anything but transaction
    /// control is [`Database::run_stmt`] with the ambient transaction, if
    /// one is open.
    pub fn execute_as(&self, sql: &str, role: &Role) -> DbResult<ResultSet> {
        self.dispatch_stmt(parse(sql)?, role)
    }

    /// Transaction control drives the ambient slot; every other statement
    /// runs in the ambient transaction, if one is open.
    pub(crate) fn dispatch_stmt(&self, stmt: Stmt, role: &Role) -> DbResult<ResultSet> {
        match stmt {
            Stmt::Begin => {
                let mut ambient = self.ambient.lock();
                if ambient.is_some() {
                    return Err(DbError::Txn("nested transactions are not supported".into()));
                }
                *ambient = Some(self.txn_begin());
                Ok(ResultSet::empty())
            }
            Stmt::Commit => {
                let id = self
                    .ambient
                    .lock()
                    .take()
                    .ok_or_else(|| DbError::Txn("COMMIT without BEGIN".into()))?;
                self.txn_commit(id)?;
                Ok(ResultSet::empty())
            }
            Stmt::Rollback => {
                let id = self
                    .ambient
                    .lock()
                    .take()
                    .ok_or_else(|| DbError::Txn("ROLLBACK without BEGIN".into()))?;
                self.txn_rollback(id)?;
                Ok(ResultSet::empty())
            }
            other => {
                let ambient = *self.ambient.lock();
                self.run_stmt(ambient, other, role)
            }
        }
    }

    /// The one statement routine, and the entry for callers that own their
    /// transactions by id (the server's sessions): the ambient slot is never consulted, and
    /// `BEGIN`/`COMMIT`/`ROLLBACK` are rejected with [`DbError::Txn`] — those
    /// callers use [`Database::txn_begin`], [`Database::txn_commit`] and
    /// [`Database::txn_rollback`]. Every statement runs in a transaction,
    /// through `run_txn_stmt` against a `ReadView`: in `txn`, or — `None`,
    /// autocommit — in one of its own, pinned at the newest commit and
    /// committed on the spot if it wrote. An autocommit transaction is never
    /// registered with the transaction manager: it cannot conflict, and the
    /// `txn_*` counters count `BEGIN`s only.
    ///
    /// Locks. A statement inside a transaction takes the shared read lock
    /// (its writes only buffer), and so does an autocommit `SELECT`/`EXPLAIN`;
    /// any number of them run at once. Autocommit DML holds the write lock
    /// over the statement *and* its commit, so nothing can commit (or collect
    /// versions) beneath it and a statement that fails has written nothing,
    /// to the heap or to the WAL buffer. DDL holds the write lock and is
    /// autocommit only.
    pub fn run_stmt(&self, txn: Option<u64>, stmt: Stmt, role: &Role) -> DbResult<ResultSet> {
        match (stmt, txn) {
            (Stmt::Begin | Stmt::Commit | Stmt::Rollback, _) => Err(DbError::Txn(
                "BEGIN/COMMIT/ROLLBACK go through the session or handle that owns the \
                 transaction, not through a statement entry"
                    .into(),
            )),
            (stmt, Some(id)) => {
                let mut checked_out = self.txns.check_out(id)?;
                let state = checked_out.state();
                let inner = self.inner.read();
                let result = run_txn_stmt(&inner, state, stmt, role);
                if let (Err(DbError::Conflict(msg)), None) = (&result, &state.doomed) {
                    state.doomed = Some(msg.clone());
                    self.txns.conflicts.fetch_add(1, Ordering::Relaxed);
                }
                result
            }
            (stmt @ (Stmt::Select(_) | Stmt::Explain { .. }), None) => {
                let inner = self.inner.read();
                run_txn_stmt(&inner, &mut TxnState::new(inner.committed_ts), stmt, role)
            }
            (stmt @ (Stmt::Insert { .. } | Stmt::Update { .. } | Stmt::Delete { .. }), None) => {
                self.exclusive(None, |inner| {
                    let mut state = TxnState::new(inner.committed_ts);
                    let result = run_txn_stmt(inner, &mut state, stmt, role)?;
                    validate_and_apply(inner, state)?;
                    Ok(result)
                })
            }
            (ddl, None) => self.exclusive(None, |inner| inner.run_ddl(ddl, role)),
        }
    }

    /// Parse and plan a SELECT once for repeated execution. The prepared
    /// plan pins the current catalog generation; DDL invalidates it.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        self.prepare_as(sql, &Role::User("user".into()))
    }

    /// [`Database::prepare`] with an explicit role (the role determines the
    /// default space used to resolve unqualified table names).
    pub fn prepare_as(&self, sql: &str, role: &Role) -> DbResult<Prepared> {
        self.prepare_stmt(&parse(sql)?, role)
    }

    /// [`Database::prepare_as`] for a statement already parsed.
    pub fn prepare_stmt(&self, stmt: &Stmt, role: &Role) -> DbResult<Prepared> {
        let Stmt::Select(s) = stmt else {
            return Err(DbError::Unsupported("only SELECT can be prepared".into()));
        };
        let inner = self.inner.read();
        let view = inner.latest();
        let (plan, columns) = plan_select(&view, role.default_space(), s)?;
        let table_ids = plan.table_ids();
        // One rendering of the literal-elided tree serves the hash, the
        // access label (its deepest line) and the size estimate.
        let shape = plan.shape();
        let plan_hash = {
            use std::hash::{Hash, Hasher};
            let mut h = crate::fxhash::FxHasher::default();
            shape.hash(&mut h);
            h.finish()
        };
        let access_label = shape.lines().last().unwrap_or_default().trim_start().to_string();
        let approx_bytes = std::mem::size_of::<Prepared>()
            + shape.len()
            + columns.iter().map(|c| c.len()).sum::<usize>()
            + table_ids.len() * std::mem::size_of::<u32>();
        let est_rows = estimate_rows(&plan, &view).round().max(0.0) as u64;
        let stats_gen = inner.stats_rebuilt.load(Ordering::Relaxed);
        Ok(Prepared {
            root_label: plan.node_label(),
            plan,
            columns,
            table_ids,
            catalog_gen: inner.catalog_gen,
            plan_hash,
            est_rows,
            stats_gen,
            access_label,
            approx_bytes,
        })
    }

    /// Execute a previously prepared SELECT under the shared read lock,
    /// against the newest committed state.
    ///
    /// Fails with [`DbError::Stale`] if DDL has moved the catalog generation
    /// since [`Database::prepare`]; callers should re-prepare.
    pub fn execute_prepared(&self, prepared: &Prepared) -> DbResult<ResultSet> {
        let inner = self.inner.read();
        if inner.catalog_gen != prepared.catalog_gen {
            return Err(DbError::Stale(format!(
                "prepared against catalog generation {}, now at {}",
                prepared.catalog_gen, inner.catalog_gen
            )));
        }
        let rows = execute_plan(&inner.latest(), &inner.funcs, &prepared.plan)?;
        Ok(ResultSet { columns: prepared.columns.clone(), rows, affected: 0, explain: None })
    }

    /// Current catalog generation (bumped by every DDL statement).
    pub fn catalog_generation(&self) -> u64 {
        self.inner.read().catalog_gen
    }

    /// Version counters for the given tables, in input order. A table that
    /// has never been written (or does not exist) reports 0. Comparing a
    /// snapshot of these against a later call tells a cache whether any of
    /// the underlying tables changed.
    pub fn table_versions(&self, table_ids: &[u32]) -> Vec<u64> {
        let inner = self.inner.read();
        table_ids.iter().map(|id| inner.table_gens.get(id).copied().unwrap_or(0)).collect()
    }

    /// Total heap pages read by sequential scans since open. The delta
    /// across a query shows how much of the heap it actually touched
    /// (e.g. a short-circuiting LIMIT reads far fewer than a full scan).
    pub fn scan_pages_read(&self) -> u64 {
        self.inner.read().scan_pages.load(Ordering::Relaxed)
    }

    /// Total heap pages zone maps refuted (skipped without reading) since
    /// open. The pruning counterpart of [`Database::scan_pages_read`].
    pub fn scan_pages_skipped(&self) -> u64 {
        self.inner.read().scan_pages_skipped.load(Ordering::Relaxed)
    }

    /// Statistics rebuilds triggered by delete-heavy churn since open.
    pub fn stats_rebuilt(&self) -> u64 {
        self.inner.read().stats_rebuilt.load(Ordering::Relaxed)
    }

    /// Debug/test hook: check every maintained page zone of `table`
    /// against a fresh rebuild from the heap. Returns `false` on the
    /// first divergence — maintained zones are required to be *exact*
    /// (not merely conservative), which is what makes pruning decisions
    /// reproducible across WAL replay.
    pub fn verify_zone_maps(&self, table: &str) -> DbResult<bool> {
        let inner = self.inner.read();
        let id = inner.catalog.find_table(table)?.id;
        let storage = inner.storage(id)?;
        for page_no in 0..storage.heap.num_pages() {
            let fresh = PageZone::rebuild(storage.page_rows(page_no)?.iter());
            let ok = match storage.zones.page(page_no) {
                Some(zone) => *zone == fresh,
                // No zone recorded is fine only while no row starts here.
                None => fresh.rows == 0,
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Debug/test hook: a fingerprint of `table`'s catalog statistics
    /// (sketches, samples, null counts, churn counters). Two databases
    /// that applied the same logical history — e.g. a clean run and a
    /// crash-recovered replay — must agree.
    pub fn stats_fingerprint(&self, table: &str) -> DbResult<u64> {
        let inner = self.inner.read();
        let id = inner.catalog.find_table(table)?.id;
        Ok(inner.catalog.stats_fingerprint(id))
    }

    /// Execute a SELECT while attributing per-operator runtime counters —
    /// the programmatic face of `EXPLAIN ANALYZE`, returning the result
    /// rows *and* the annotated stats tree. The qdiff harness uses this to
    /// cross-check `rows_out` and `pages_read` against the actual results.
    pub fn explain_analyze(&self, sql: &str) -> DbResult<(ResultSet, OpStatsSnapshot)> {
        self.explain_analyze_as(sql, &Role::User("user".into()))
    }

    /// [`Database::explain_analyze`] with an explicit role.
    pub fn explain_analyze_as(
        &self,
        sql: &str,
        role: &Role,
    ) -> DbResult<(ResultSet, OpStatsSnapshot)> {
        let Stmt::Select(s) = parse(sql)? else {
            return Err(DbError::Unsupported("explain_analyze takes a SELECT".into()));
        };
        let inner = self.inner.read();
        let view = inner.latest();
        let (plan, columns) = plan_select(&view, role.default_space(), &s)?;
        let (rows, stats) = execute_plan_with_stats(&view, &inner.funcs, &plan)?;
        Ok((ResultSet { columns, rows, affected: 0, explain: None }, stats))
    }

    /// Plan a SELECT and return `(estimated_rows, upper_bound_rows)`
    /// without executing it. The estimate uses the planner's
    /// histogram-backed selectivity model; the bound is a hard ceiling
    /// on what executing the same plan against the current committed
    /// state can emit, so `observed <= bound` is a checkable invariant
    /// (qdiff's estimate-vs-observed cross-check relies on it).
    pub fn plan_estimate(&self, sql: &str) -> DbResult<(f64, f64)> {
        let Stmt::Select(s) = parse(sql)? else {
            return Err(DbError::Unsupported("plan_estimate takes a SELECT".into()));
        };
        let inner = self.inner.read();
        let view = inner.latest();
        let (plan, _) = plan_select(&view, Role::User("user".into()).default_space(), &s)?;
        Ok((estimate_rows(&plan, &view), upper_bound_rows(&plan, &view)))
    }

    /// Write-ahead-log counters since open; all zero for an in-memory
    /// database (which has no WAL).
    pub fn wal_stats(&self) -> WalStats {
        let inner = self.inner.read();
        inner.wal.as_ref().map_or_else(WalStats::default, |w| WalStats {
            appends: w.records_written(),
            syncs: w.syncs(),
            sync_failures: w.sync_failures(),
        })
    }

    /// Execute a semicolon-separated script, returning each statement's result.
    pub fn execute_script(&self, sql: &str) -> DbResult<Vec<ResultSet>> {
        self.execute_script_as(sql, &Role::User("user".into()))
    }

    /// Execute a script with an explicit role. Each statement dispatches
    /// independently, so scripts can open and commit transactions. A script
    /// that fails inside a transaction it opened rolls that transaction back
    /// before returning the error: the ambient slot is database-wide, and
    /// left occupied it would swallow every later statement into a
    /// transaction nobody will commit.
    pub fn execute_script_as(&self, sql: &str, role: &Role) -> DbResult<Vec<ResultSet>> {
        let stmts = parse_many(sql)?;
        let before = *self.ambient.lock();
        let results: DbResult<Vec<ResultSet>> =
            stmts.into_iter().map(|s| self.dispatch_stmt(s, role)).collect();
        if results.is_err() {
            let mut ambient = self.ambient.lock();
            // A transaction in the slot that was not there when the script
            // started is one the script opened.
            if let Some(id) = ambient.filter(|id| Some(*id) != before) {
                *ambient = None;
                drop(ambient);
                // Only fails if the transaction is already gone; the
                // statement's error is the one to report.
                let _ = self.txn_rollback(id);
            }
        }
        results
    }

    /// Register an opaque UDT (§6.2); returns its type id.
    pub fn register_opaque_type(
        &self,
        name: &str,
        display: Option<crate::catalog::DisplayHook>,
    ) -> DbResult<u32> {
        let mut inner = self.inner.write();
        inner.bump_catalog();
        inner.catalog.register_opaque_type(name, display)
    }

    /// Register an external scalar function (§6.3).
    pub fn register_scalar(&self, name: &str, f: ScalarFn) -> DbResult<()> {
        self.inner.write().funcs.register_scalar(name, f)
    }

    /// Register an external scalar function that can specialise itself on
    /// the literal arguments of a call site (see [`ScalarBinder`]).
    pub fn register_scalar_with_binder(
        &self,
        name: &str,
        f: ScalarFn,
        binder: ScalarBinder,
    ) -> DbResult<()> {
        self.inner.write().funcs.register_scalar_with_binder(name, f, binder)
    }

    /// Register a user-defined aggregate (C14).
    pub fn register_aggregate(&self, name: &str, f: AggregateFn) -> DbResult<()> {
        self.inner.write().funcs.register_aggregate(name, f)
    }

    /// Register a domain index kind (§6.5) for `CREATE INDEX … USING name`.
    /// Like functions, kinds are code: register them before
    /// [`Database::recover`] replays an index of the kind.
    pub fn register_index_kind(&self, name: &str, f: IndexKindFn) -> DbResult<()> {
        self.inner.write().funcs.register_index_kind(name, f)
    }

    /// Render a result set as an aligned text table, using registered
    /// opaque-type display hooks.
    pub fn render(&self, rs: &ResultSet) -> String {
        let inner = self.inner.read();
        let mut cells: Vec<Vec<String>> = vec![rs.columns.clone()];
        for row in &rs.rows {
            cells.push(
                row.iter()
                    .map(|d| match d {
                        Datum::Opaque(ty, bytes) => inner
                            .catalog
                            .opaque_type_by_id(*ty)
                            .and_then(|t| t.display.as_ref().map(|f| f(bytes)))
                            .unwrap_or_else(|| d.to_string()),
                        other => other.to_string(),
                    })
                    .collect(),
            );
        }
        let width = rs.columns.len();
        let mut widths = vec![0usize; width];
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        for (ri, row) in cells.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(" | ");
                }
                out.push_str(c);
                out.extend(std::iter::repeat_n(' ', widths[i].saturating_sub(c.chars().count())));
            }
            out.push('\n');
            if ri == 0 {
                out.push_str(
                    &"-".repeat(widths.iter().sum::<usize>() + 3 * width.saturating_sub(1)),
                );
                out.push('\n');
            }
        }
        out
    }

    /// Qualified names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().catalog.tables().iter().map(|t| t.qualified_name()).collect()
    }

    /// Live row count of a table.
    pub fn row_count(&self, table: &str) -> DbResult<u64> {
        let inner = self.inner.read();
        let def = inner.catalog.find_table(table)?;
        Ok(inner.tables.get(&def.id).map_or(0, |t| t.heap.len()))
    }
}

// ---------------------------------------------------------------------------
// Inner: statement execution
// ---------------------------------------------------------------------------

impl Inner {
    /// The committed state as the planner and the executor see it: the view
    /// of the newest commit, with no transaction's writes over it.
    pub(crate) fn latest(&self) -> ReadView<'_> {
        ReadView::new(self, self.committed_ts, None)
    }

    /// Run one DDL statement under the exclusive lock.
    fn run_ddl(&mut self, stmt: Stmt, role: &Role) -> DbResult<ResultSet> {
        match stmt {
            Stmt::CreateTable { table, columns } => self.create_table(&table, &columns, role),
            Stmt::DropTable { table } => self.drop_table(&table, role),
            Stmt::CreateIndex { table, column, kind, params } => {
                self.create_index(&table, &column, &kind, params, role)
            }
            Stmt::CreateSpace { name } => {
                let owner = match role {
                    Role::Maintainer => "maintainer".to_string(),
                    Role::User(u) => u.clone(),
                };
                self.catalog.create_space(&name, &owner)?;
                self.bump_catalog();
                self.log(WalRecord::CreateSpace { name, owner })?;
                self.maybe_sync()?;
                Ok(ResultSet::empty())
            }
            other => Err(DbError::Internal(format!("{other:?} is not DDL"))),
        }
    }

    // -- version counters ----------------------------------------------------

    /// Commit timestamp the statement or transaction currently applying
    /// its writes will commit under (0 during replay, where every row is
    /// ancient by definition).
    fn pending_ts(&self) -> u64 {
        if self.replaying {
            0
        } else {
            self.committed_ts + 1
        }
    }

    /// Record that `table_id`'s contents changed, stamping the table with
    /// the pending commit timestamp. Monotonic; an extra bump only costs
    /// caches a spurious miss, never a stale hit.
    fn bump_table(&mut self, table_id: u32) {
        let ts = self.pending_ts();
        let gen = self.table_gens.entry(table_id).or_insert(0);
        *gen = (*gen).max(ts);
    }

    /// Drop version bookkeeping no active snapshot can still see,
    /// returning how many prior images were pruned. `actives` is the
    /// sorted snapshot list of open transactions; a prior image is kept
    /// iff some active snapshot falls inside its `[born, died)`
    /// visibility window. No *future* snapshot can need a pruned version
    /// either: new snapshots pin `committed_ts`, and every `died` stamp
    /// is at or below it.
    ///
    /// Testing each version against the window — rather than against a
    /// single low-water mark — is what keeps chains bounded under a
    /// long-lived reader: churn versions born *after* the oldest snapshot
    /// are invisible to it and get pruned, where `died > min` would have
    /// retained them for the snapshot's whole lifetime.
    pub(crate) fn gc_versions(&mut self, actives: &[u64], current: u64) -> u64 {
        let min = actives.first().copied().unwrap_or(current);
        let mut pruned = 0u64;
        for t in self.tables.values_mut() {
            if !t.old_versions.is_empty() {
                let before = t.old_versions.len();
                t.old_versions.retain(|v| {
                    let i = actives.partition_point(|&s| s < v.born);
                    actives.get(i).is_some_and(|&s| s < v.died)
                });
                pruned += (before - t.old_versions.len()) as u64;
            }
            if !t.born.is_empty() {
                t.born.retain(|_, ts| *ts > min);
            }
        }
        pruned
    }

    /// Record that the catalog changed (tables, indexes, spaces, types).
    fn bump_catalog(&mut self) {
        self.catalog_gen += 1;
    }

    // -- DDL -----------------------------------------------------------------

    fn create_table(
        &mut self,
        table: &str,
        columns: &[(String, String, bool)],
        role: &Role,
    ) -> DbResult<ResultSet> {
        let (space, name) = self.split_table_name(table, role);
        if let Role::User(u) = role {
            self.catalog.ensure_user_space(u);
        }
        if !self.catalog.can_write(role, &space) {
            return Err(DbError::AccessDenied(format!("cannot create tables in space {space:?}")));
        }
        let mut defs = Vec::with_capacity(columns.len());
        for (cname, tyname, nullable) in columns {
            defs.push(ColumnDef {
                name: cname.to_ascii_lowercase(),
                ty: self.catalog.parse_type(tyname)?,
                nullable: *nullable,
            });
        }
        let id = self.catalog.create_table(&space, &name, defs.clone())?.id;
        self.tables.insert(id, TableStorage::default());
        self.bump_catalog();
        self.log(WalRecord::CreateTable {
            space: space.clone(),
            name: name.clone(),
            columns: defs.into_iter().map(|c| (c.name, c.ty, c.nullable)).collect(),
        })?;
        self.maybe_sync()?;
        Ok(ResultSet::empty())
    }

    fn drop_table(&mut self, table: &str, role: &Role) -> DbResult<ResultSet> {
        let def = self.catalog.resolve_table(role.default_space(), table)?;
        let (space, name, id) = (def.space.clone(), def.name.clone(), def.id);
        if !self.catalog.can_write(role, &space) {
            return Err(DbError::AccessDenied(format!("cannot drop tables in space {space:?}")));
        }
        self.catalog.drop_table(&space, &name)?;
        self.tables.remove(&id);
        self.table_gens.remove(&id);
        self.bump_catalog();
        self.log(WalRecord::DropTable { space, name })?;
        self.maybe_sync()?;
        Ok(ResultSet::empty())
    }

    /// `CREATE INDEX`, of any kind, and its replay: one build over the rows
    /// already there, then the catalog bump and the log record.
    fn create_index(
        &mut self,
        table: &str,
        column: &str,
        kind: &str,
        params: IndexParams,
        role: &Role,
    ) -> DbResult<ResultSet> {
        let def = self.catalog.resolve_table(role.default_space(), table)?;
        let qualified = def.qualified_name();
        if !self.catalog.can_write(role, &def.space) {
            return Err(DbError::AccessDenied(format!("cannot index tables in {qualified:?}")));
        }
        let pos = def
            .column_index(column)
            .ok_or(DbError::NotFound { kind: "column", name: column.into() })?;
        let ty = def.columns[pos].ty;
        let mut index = new_index(&self.funcs, column.to_ascii_lowercase(), pos, ty, kind, params)?;
        let (_, storage) = table_parts(&self.catalog, &mut self.tables, def.id)?;
        if storage.indexes.iter().any(|i| i.column == index.column && i.kind == index.kind) {
            let name = format!("{} on {qualified}.{}", index.kind, index.column);
            return Err(DbError::AlreadyExists { kind: "index", name });
        }
        let mut rows = Vec::new();
        storage.for_each_row(&mut |rid, mut row| {
            rows.push((rid, row.swap_remove(pos)));
            Ok(())
        })?;
        index.build(rows)?;
        let (column, kind, params) =
            (index.column.clone(), index.kind.clone(), index.params.clone());
        storage.indexes.push(index);
        self.bump_catalog();
        self.log(WalRecord::CreateIndex { table: qualified, column, kind, params })?;
        self.maybe_sync()?;
        Ok(ResultSet::empty())
    }

    // -- DML -----------------------------------------------------------------

    /// Resolve a DML statement's target table and check the role may write
    /// it — the preamble of every INSERT/UPDATE/DELETE, autocommit or not.
    pub(crate) fn writable_table(&self, table: &str, role: &Role) -> DbResult<TableDef> {
        let def = self.catalog.resolve_table(role.default_space(), table)?;
        if !self.catalog.can_write(role, &def.space) {
            return Err(DbError::AccessDenied(format!(
                "space {:?} is read-only for this role",
                def.space
            )));
        }
        Ok(def.clone())
    }

    // -- row-level mutation with index + WAL maintenance -----------------------

    pub(crate) fn storage(&self, table_id: u32) -> DbResult<&TableStorage> {
        self.tables.get(&table_id).ok_or_else(|| DbError::Internal("missing table storage".into()))
    }

    pub(crate) fn insert_row(&mut self, table_id: u32, row: Row) -> DbResult<Rid> {
        let ts = self.pending_ts();
        let track = self.track_versions && !self.replaying;
        let (def, storage) = table_parts(&self.catalog, &mut self.tables, table_id)?;
        let rid = storage.heap.insert(&encode_row(&row))?;
        // Widen the target page's zone map and evict any stale columnar
        // image. Runs during WAL replay too, so recovery rebuilds zones
        // from the replayed inserts.
        storage.zones.observe_insert(rid.page, &row);
        storage.col_cache.get_mut().remove(&rid.page);
        if track {
            storage.born.insert(rid, ts);
        }
        for index in &mut storage.indexes {
            index.insert(rid, &row)?;
        }
        let table = def.qualified_name();
        // Feed the per-column statistics (NDV sketches, null counts,
        // histogram samples). Runs during WAL replay too — the catalog
        // (and its statistics) is in-memory, so recovery rebuilds them
        // from the replayed inserts.
        self.catalog.observe_row(table_id, &row);
        self.bump_table(table_id);
        self.log(WalRecord::Insert { table, row })?;
        Ok(rid)
    }

    pub(crate) fn delete_row(&mut self, table_id: u32, rid: Rid, row: &Row) -> DbResult<()> {
        let ts = self.pending_ts();
        let track = self.track_versions && !self.replaying;
        let (def, storage) = table_parts(&self.catalog, &mut self.tables, table_id)?;
        storage.heap.delete(rid)?;
        if track {
            let born = storage.born.remove(&rid).unwrap_or(0);
            storage.old_versions.push(OldVersion { rid, row: row.clone(), born, died: ts });
        } else {
            storage.born.remove(&rid);
        }
        for index in &mut storage.indexes {
            index.remove(rid, row);
        }
        refresh_page_zone(storage, rid.page, row, None)?;
        let table = def.qualified_name();
        self.bump_table(table_id);
        // Delete-heavy churn decays the table's statistics (the sketches
        // and samples only ever accumulate); past a threshold, rebuild
        // them from the live rows. Runs during WAL replay too, so a
        // recovered database lands on the same statistics.
        if self.catalog.observe_delete(table_id) {
            self.rebuild_table_stats(table_id)?;
        }
        self.log(WalRecord::Delete { table, row: row.clone() })?;
        Ok(())
    }

    pub(crate) fn update_row(
        &mut self,
        table_id: u32,
        rid: Rid,
        old_row: &Row,
        new_row: Row,
    ) -> DbResult<Rid> {
        let ts = self.pending_ts();
        let track = self.track_versions && !self.replaying;
        let (def, storage) = table_parts(&self.catalog, &mut self.tables, table_id)?;
        let new_rid = storage.heap.update(rid, &encode_row(&new_row))?;
        if track {
            let born = storage.born.remove(&rid).unwrap_or(0);
            storage.old_versions.push(OldVersion { rid, row: old_row.clone(), born, died: ts });
            storage.born.insert(new_rid, ts);
        } else if rid != new_rid {
            storage.born.remove(&rid);
        }
        for index in &mut storage.indexes {
            // An in-place update that keeps the key leaves the entry as it is.
            if rid != new_rid || old_row[index.pos] != new_row[index.pos] {
                index.remove(rid, old_row);
                index.insert(new_rid, &new_row)?;
            }
        }
        if new_rid.page == rid.page {
            refresh_page_zone(storage, rid.page, old_row, Some(&new_row))?;
        } else {
            // Relocated: a removal from one page, an insert into another.
            refresh_page_zone(storage, rid.page, old_row, None)?;
            storage.zones.observe_insert(new_rid.page, &new_row);
            storage.col_cache.get_mut().remove(&new_rid.page);
        }
        let table = def.qualified_name();
        self.catalog.observe_row(table_id, &new_row);
        self.bump_table(table_id);
        self.log(WalRecord::Update { table, old_row: old_row.clone(), new_row })?;
        Ok(new_rid)
    }

    // -- WAL ---------------------------------------------------------------------

    pub(crate) fn log(&mut self, rec: WalRecord) -> DbResult<()> {
        if self.replaying {
            return Ok(());
        }
        if let Some(wal) = self.wal.as_mut() {
            wal.append(&rec);
        }
        Ok(())
    }

    /// Sync the WAL at the end of a DDL statement. DML never reaches this:
    /// its writes buffer in a write-set and hit the WAL, with one sync, when
    /// that commits (`txn::exec::validate_and_apply`).
    fn maybe_sync(&mut self) -> DbResult<()> {
        if let Some(wal) = self.wal.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Replay a record stream with transaction framing: records between
    /// [`WalRecord::TxnBegin`] and [`WalRecord::TxnCommit`] are buffered
    /// and applied atomically at the commit; a stream ending inside an
    /// uncommitted transaction drops it (crash mid-transaction).
    fn replay_records(&mut self, records: Vec<WalRecord>) -> DbResult<()> {
        let mut open_txn: Option<Vec<WalRecord>> = None;
        for rec in records {
            match rec {
                WalRecord::TxnBegin => {
                    // A dangling earlier transaction (no commit record)
                    // cannot precede later records in a well-formed log,
                    // but drop it defensively rather than merge.
                    open_txn = Some(Vec::new());
                }
                WalRecord::TxnCommit => {
                    if let Some(buffered) = open_txn.take() {
                        for r in buffered {
                            self.apply_wal_record(r)?;
                        }
                    }
                }
                other => match open_txn.as_mut() {
                    Some(buffered) => buffered.push(other),
                    None => self.apply_wal_record(other)?,
                },
            }
        }
        // `open_txn` still Some here means the log ended mid-transaction:
        // the records stay unapplied, i.e. uncommitted work is invisible.
        Ok(())
    }

    fn apply_wal_record(&mut self, rec: WalRecord) -> DbResult<()> {
        match rec {
            WalRecord::CreateSpace { name, owner } => {
                self.catalog.create_space(&name, &owner)?;
                self.bump_catalog();
                Ok(())
            }
            WalRecord::CreateTable { space, name, columns } => {
                // A user's own space is made, unlogged, by its first table.
                self.catalog.ensure_user_space(&space);
                let defs = columns
                    .into_iter()
                    .map(|(n, ty, nullable)| ColumnDef { name: n, ty, nullable })
                    .collect();
                let id = self.catalog.create_table(&space, &name, defs)?.id;
                self.tables.insert(id, TableStorage::default());
                self.bump_catalog();
                Ok(())
            }
            WalRecord::DropTable { space, name } => {
                let def = self.catalog.drop_table(&space, &name)?;
                self.tables.remove(&def.id);
                self.table_gens.remove(&def.id);
                self.bump_catalog();
                Ok(())
            }
            WalRecord::CreateIndex { table, column, kind, params } => {
                self.create_index(&table, &column, &kind, params, &Role::Maintainer).map(|_| ())
            }
            WalRecord::Insert { table, row } => {
                let id = self.catalog.resolve_table("public", &table)?.id;
                self.insert_row(id, row).map(|_| ())
            }
            WalRecord::Delete { table, row } => {
                let id = self.catalog.resolve_table("public", &table)?.id;
                if let Some(rid) = self.storage(id)?.find_row(&row)? {
                    self.delete_row(id, rid, &row)?;
                }
                Ok(())
            }
            WalRecord::Update { table, old_row, new_row } => {
                let id = self.catalog.resolve_table("public", &table)?.id;
                if let Some(rid) = self.storage(id)?.find_row(&old_row)? {
                    self.update_row(id, rid, &old_row, new_row)?;
                }
                Ok(())
            }
            WalRecord::Checkpoint | WalRecord::Epoch(_) => Ok(()),
            // Framing records are consumed by `replay_records`; reaching
            // here (e.g. via a raw record stream) they are no-ops.
            WalRecord::TxnBegin | WalRecord::TxnCommit => Ok(()),
        }
    }

    fn snapshot_records(&mut self) -> DbResult<Vec<WalRecord>> {
        let mut recs = Vec::new();
        // Spaces (public pre-exists).
        let catalog = &self.catalog;
        let tables: Vec<TableDef> = catalog.tables().into_iter().cloned().collect();
        let mut spaces_seen = std::collections::HashSet::new();
        for t in &tables {
            if t.space != "public" && spaces_seen.insert(t.space.clone()) {
                let owner = catalog
                    .space(&t.space)
                    .and_then(|s| s.owner.clone())
                    .unwrap_or_else(|| t.space.clone());
                recs.push(WalRecord::CreateSpace { name: t.space.clone(), owner });
            }
        }
        for t in &tables {
            recs.push(WalRecord::CreateTable {
                space: t.space.clone(),
                name: t.name.clone(),
                columns: t.columns.iter().map(|c| (c.name.clone(), c.ty, c.nullable)).collect(),
            });
        }
        // Each table's rows before its indexes, so replay builds every index
        // in one call over the rows rather than row by row.
        for t in &tables {
            let storage = self.storage(t.id)?;
            storage.for_each_row(&mut |_, row| {
                recs.push(WalRecord::Insert { table: t.qualified_name(), row });
                Ok(())
            })?;
            recs.extend(storage.indexes.iter().map(|i| WalRecord::CreateIndex {
                table: t.qualified_name(),
                column: i.column.clone(),
                kind: i.kind.clone(),
                params: i.params.clone(),
            }));
        }
        recs.push(WalRecord::Checkpoint);
        Ok(recs)
    }

    fn split_table_name(&self, table: &str, role: &Role) -> (String, String) {
        match table.split_once('.') {
            Some((s, t)) => (s.to_ascii_lowercase(), t.to_ascii_lowercase()),
            None => (role.default_space().to_ascii_lowercase(), table.to_ascii_lowercase()),
        }
    }
}

/// Epoch named by a log's leading [`WalRecord::Epoch`] (0 when absent, for
/// logs predating checkpoint epochs).
fn leading_epoch(records: &[WalRecord]) -> u64 {
    match records.first() {
        Some(WalRecord::Epoch(e)) => *e,
        _ => 0,
    }
}

/// Validate and coerce a row against the table definition.
pub(crate) fn check_row(def: &TableDef, mut row: Row) -> DbResult<Row> {
    for (i, col) in def.columns.iter().enumerate() {
        let d = &row[i];
        if d.is_null() {
            if !col.nullable {
                return Err(DbError::Constraint(format!("column {:?} is NOT NULL", col.name)));
            }
            continue;
        }
        if !d.assignable_to(col.ty) {
            return Err(DbError::TypeMismatch(format!(
                "column {:?} has type {}, value {d} does not fit",
                col.name, col.ty
            )));
        }
        // Widen INT literals stored into FLOAT columns so index keys and
        // comparisons see one representation.
        if col.ty == DataType::Float {
            if let Datum::Int(v) = d {
                row[i] = Datum::Float(*v as f64);
            }
        }
    }
    Ok(row)
}

/// Read-only statements (SELECT / EXPLAIN) against a transaction's view of
/// the engine.
pub(crate) fn run_read(src: &ReadView, stmt: Stmt, role: &Role) -> DbResult<ResultSet> {
    let explained = |text: String| Ok(ResultSet { explain: Some(text), ..ResultSet::empty() });
    match stmt {
        Stmt::Select(s) => {
            let plan_span = genalg_obs::tracer().span("unidb.plan");
            let (plan, columns) = plan_select(src, role.default_space(), &s)?;
            drop(plan_span);
            let rows = execute_plan(src, src.funcs(), &plan)?;
            Ok(ResultSet { columns, rows, affected: 0, explain: None })
        }
        Stmt::Explain { stmt: inner_stmt, analyze } => match *inner_stmt {
            Stmt::Select(s) => {
                let (plan, _) = plan_select(src, role.default_space(), &s)?;
                if analyze {
                    // ANALYZE executes the query (discarding rows) and
                    // renders the plan annotated with live counters.
                    let (_, stats) = execute_plan_with_stats(src, src.funcs(), &plan)?;
                    explained(stats.render())
                } else {
                    explained(plan.explain())
                }
            }
            _ if analyze => {
                Err(DbError::Unsupported("EXPLAIN ANALYZE supports only SELECT".into()))
            }
            other => match explain_dml(src, &other, role)? {
                Some(text) => explained(text),
                None => explained(format!("{other:?}")),
            },
        },
        _ => Err(DbError::Internal("run_read called on a write statement".into())),
    }
}

/// A table's definition and its storage, borrowed side by side: they live
/// in different fields of [`Inner`], so the row mutators can read the one
/// while writing the other instead of cloning the definition per row.
fn table_parts<'a>(
    catalog: &'a Catalog,
    tables: &'a mut HashMap<u32, TableStorage>,
    table_id: u32,
) -> DbResult<(&'a TableDef, &'a mut TableStorage)> {
    let def = catalog
        .table_by_id(table_id)
        .ok_or_else(|| DbError::Internal("unknown table id".into()))?;
    let storage = tables
        .get_mut(&table_id)
        .ok_or_else(|| DbError::Internal("missing table storage".into()))?;
    Ok((def, storage))
}

/// The row images an INSERT supplies, in statement order: column names
/// resolve up front, each row's expressions evaluate (and the image is
/// validated against the table definition) only when the row is pulled.
pub(crate) fn insert_images<'a>(
    def: &'a TableDef,
    columns: Option<&[String]>,
    rows: &'a [Vec<Expr>],
    funcs: &'a FunctionRegistry,
) -> DbResult<impl Iterator<Item = DbResult<Row>> + 'a> {
    let positions: Vec<usize> = match columns {
        None => (0..def.columns.len()).collect(),
        Some(cols) => cols
            .iter()
            .map(|c| {
                def.column_index(c).ok_or(DbError::NotFound { kind: "column", name: c.clone() })
            })
            .collect::<DbResult<_>>()?,
    };
    Ok(rows.iter().map(move |value_exprs| {
        if value_exprs.len() != positions.len() {
            return Err(DbError::Constraint(format!(
                "INSERT supplies {} values for {} columns",
                value_exprs.len(),
                positions.len()
            )));
        }
        let mut row: Row = vec![Datum::Null; def.columns.len()];
        let ctx = EvalContext { bindings: &[], row: &[], funcs };
        for (expr, &pos) in value_exprs.iter().zip(&positions) {
            row[pos] = eval(expr, &ctx)?;
        }
        check_row(def, row)
    }))
}

/// Resolve an UPDATE's `SET` list to column positions.
pub(crate) fn update_targets(
    def: &TableDef,
    assignments: Vec<(String, Expr)>,
) -> DbResult<Vec<(usize, Expr)>> {
    assignments
        .into_iter()
        .map(|(c, e)| {
            def.column_index(&c)
                .map(|i| (i, e))
                .ok_or(DbError::NotFound { kind: "column", name: c })
        })
        .collect()
}

/// The image an UPDATE writes over `row`: every `SET` expression evaluated
/// against the old row, then validated against the table definition.
pub(crate) fn assign(
    def: &TableDef,
    bindings: &[ColumnBinding],
    targets: &[(usize, Expr)],
    row: &Row,
    funcs: &FunctionRegistry,
) -> DbResult<Row> {
    let ctx = EvalContext { bindings, row, funcs };
    let mut new_row = row.clone();
    for (pos, expr) in targets {
        new_row[*pos] = eval(expr, &ctx)?;
    }
    check_row(def, new_row)
}

/// Bring one page's zone map up to date after `old` was replaced by `new`
/// (or removed) on it, and drop the page's cached columnar image. The zone
/// absorbs the change in place when that keeps it exact — the old values
/// were interior to its min/max — and is rebuilt from the heap otherwise.
fn refresh_page_zone(
    storage: &mut TableStorage,
    page_no: u32,
    old: &Row,
    new: Option<&Row>,
) -> DbResult<()> {
    storage.col_cache.get_mut().remove(&page_no);
    if storage.zones.replace_row(page_no, old, new.map(Vec::as_slice)) {
        return Ok(());
    }
    let fresh = PageZone::rebuild(storage.page_rows(page_no)?.iter());
    storage.zones.set_page(page_no, fresh);
    Ok(())
}

impl Inner {
    /// Discard and recompute `table_id`'s catalog statistics from the
    /// live heap rows, in heap-scan order (deterministic, so WAL replay
    /// reproduces the same sketches/samples).
    fn rebuild_table_stats(&mut self, table_id: u32) -> DbResult<()> {
        let storage = self.storage(table_id)?;
        let mut rows: Vec<Row> = Vec::new();
        storage.for_each_row(&mut |_, row| {
            rows.push(row);
            Ok(())
        })?;
        self.catalog.reset_stats(table_id);
        for row in &rows {
            self.catalog.observe_row(table_id, row);
        }
        self.stats_rebuilt.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}
