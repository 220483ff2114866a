//! # MVCC transactions: snapshot isolation with optimistic write-sets
//!
//! The transaction subsystem gives `unidb` multi-statement atomicity and
//! concurrent writers without giving up the engine's single `RwLock`
//! simplicity. The design is optimistic concurrency control over an
//! in-memory version chain:
//!
//! * **Begin** pins a snapshot: the engine's current commit timestamp.
//!   Registration happens under the shared read lock, so no commit can
//!   slide between reading the timestamp and publishing the snapshot.
//! * **Statements** inside a transaction take only the *read* lock. Reads
//!   go through a `view::ReadView` — the one implementor of the planner's
//!   and the executor's storage traits — that filters rows by visibility
//!   (`born <= snapshot`), serves prior images of rows that were updated
//!   or deleted after the snapshot, and overlays the transaction's own
//!   buffered writes. Writes never touch the heap: they accumulate in a
//!   private `WriteSet`. A statement computes and checks every row image
//!   before it buffers the first, so one that fails leaves the write-set
//!   as it found it. A statement that *panics* (a user-defined function
//!   unwinding) hands its transaction back doomed: it can still be rolled
//!   back, by its owner or by whoever reaps it.
//! * **Commit** takes the write lock briefly: first-committer-wins
//!   validation (every written rid must still carry a version stamp at or
//!   below the snapshot; unique keys must not collide with rows the
//!   transaction cannot see), then the write-set is applied through the
//!   ordinary row mutators with a single sync — inside a
//!   `TxnBegin … TxnCommit` WAL frame when it writes more than one row (a
//!   single CRC'd record is atomic without one). A crash before the frame
//!   is durable rolls the whole transaction back at recovery; a
//!   transaction that never reaches commit writes no WAL bytes at all.
//! * **Rollback** discards the write-set — zero heap or WAL IO.
//! * **Autocommit** is the same thing, one statement long
//!   (`Database::run_stmt`, the one statement routine, with no transaction
//!   id): a transaction pinned at the current commit timestamp runs the
//!   statement through the same `exec::run_txn_stmt` against the same view,
//!   under the read lock if it is a `SELECT`/`EXPLAIN`, under the write lock
//!   — and committing before it lets go — if it is DML. Nothing can commit
//!   beneath that lock, so the transaction is never registered here, never
//!   conflicts, and is not counted in [`TxnStats`]. There is no second
//!   read path and no second write path.
//!
//! Conflicts surface as [`DbError::Conflict`], which is *retryable*: the
//! transaction has been aborted and the caller should re-run it from
//! `BEGIN`. Transaction-state misuse (nested `BEGIN`, `COMMIT` without
//! `BEGIN`, statements on a finished transaction) surfaces as
//! [`DbError::Txn`].
//!
//! The [`Engine`]/[`Transaction`] traits are the public boundary: code
//! that drives transactions (the server's session layer, benches, tests)
//! programs against them rather than against `Database` internals.

pub(crate) mod exec;
mod view;

pub(crate) use view::ReadView;

use crate::catalog::Role;
use crate::db::{Database, Inner, ResultSet};
use crate::error::{DbError, DbResult};
use crate::storage::heap::Rid;
use crate::tuple::Row;
use genalg_obs::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A factory for transactions. [`Database`] is the engine; the trait
/// exists so harnesses (benches, the server session layer, tests) can be
/// written against the transaction boundary alone.
pub trait Engine {
    /// The transaction handle type this engine hands out.
    type Txn<'a>: Transaction
    where
        Self: 'a;

    /// Open a transaction pinned to a snapshot of the current state.
    fn begin(&self) -> Self::Txn<'_>;
}

/// An open transaction: snapshot-isolated reads, buffered writes,
/// first-committer-wins commit. Dropping an unfinished transaction rolls
/// it back.
pub trait Transaction {
    /// The engine-assigned transaction id.
    fn id(&self) -> u64;

    /// Execute one statement inside the transaction as the default user.
    fn execute(&mut self, sql: &str) -> DbResult<ResultSet>;

    /// Execute one statement inside the transaction with an explicit role.
    fn execute_as(&mut self, sql: &str, role: &Role) -> DbResult<ResultSet>;

    /// Validate and atomically apply the write-set. On
    /// [`DbError::Conflict`] the transaction is aborted and should be
    /// retried from the beginning.
    fn commit(self) -> DbResult<()>;

    /// Discard the write-set.
    fn rollback(self) -> DbResult<()>;
}

impl Engine for Database {
    type Txn<'a> = DbTransaction<'a>;

    fn begin(&self) -> DbTransaction<'_> {
        DbTransaction { db: self, id: self.txn_begin(), finished: false }
    }
}

/// RAII transaction handle over a [`Database`]; the [`Engine`] trait's
/// concrete transaction type.
pub struct DbTransaction<'a> {
    db: &'a Database,
    id: u64,
    finished: bool,
}

impl Transaction for DbTransaction<'_> {
    fn id(&self) -> u64 {
        self.id
    }

    fn execute(&mut self, sql: &str) -> DbResult<ResultSet> {
        self.db.txn_execute(self.id, sql)
    }

    fn execute_as(&mut self, sql: &str, role: &Role) -> DbResult<ResultSet> {
        self.db.txn_execute_as(self.id, sql, role)
    }

    fn commit(mut self) -> DbResult<()> {
        self.finished = true;
        self.db.txn_commit(self.id)
    }

    fn rollback(mut self) -> DbResult<()> {
        self.finished = true;
        self.db.txn_rollback(self.id)
    }
}

impl Drop for DbTransaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.db.txn_rollback(self.id);
        }
    }
}

/// Counter snapshot for `SHOW STATS` / `SHOW METRICS` (see
/// [`Database::txn_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun since open.
    pub begun: u64,
    /// Transactions that committed (including empty commits).
    pub committed: u64,
    /// Transactions that ended without committing: explicit rollbacks,
    /// dropped handles, timeouts, and conflict aborts.
    pub aborted: u64,
    /// Serialization conflicts detected (eagerly at a statement or at
    /// commit validation).
    pub conflicts: u64,
    /// Prior row images garbage-collected because no active snapshot
    /// could still see them (see `Inner::gc_versions`).
    pub versions_pruned: u64,
}

/// Buffered writes of one transaction against one table.
#[derive(Debug, Default)]
pub(crate) struct TableWrites {
    /// Committed rids rewritten by this transaction, with their new
    /// contents. The rid keys double as the conflict-validation set.
    /// Ordered, so the positions the read view's synthetic rids address
    /// (and the order commit applies in) do not depend on a hasher.
    pub(crate) updated: BTreeMap<Rid, Row>,
    /// Committed rids deleted by this transaction. Ordered like `updated`,
    /// so nothing here depends on a seeded hasher: commit removes them, and
    /// logs their WAL records, in one fixed order, and two databases given
    /// the same statements log the same bytes and keep their prior images
    /// in the same order.
    pub(crate) deleted: BTreeSet<Rid>,
    /// Rows this transaction inserted. `None` marks an insert that a later
    /// statement in the same transaction deleted (indices must stay stable
    /// because statements refer to own-inserts by position).
    pub(crate) inserted: Vec<Option<Row>>,
}

impl TableWrites {
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows this write-set rewrites, removes or adds.
    pub(crate) fn len(&self) -> usize {
        self.updated.len() + self.deleted.len() + self.inserted.iter().flatten().count()
    }

    /// The images commit will write: updated rows, then inserted ones.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &Row> + Clone {
        self.updated.values().chain(self.inserted.iter().flatten())
    }

    /// Does this write-set rewrite or remove the committed row at `rid`?
    pub(crate) fn replaces(&self, rid: Rid) -> bool {
        self.deleted.contains(&rid) || self.updated.contains_key(&rid)
    }
}

/// A transaction's private, uncommitted writes, grouped by table id and
/// applied at commit in table-id order.
#[derive(Debug, Default)]
pub(crate) struct WriteSet {
    pub(crate) tables: BTreeMap<u32, TableWrites>,
}

impl WriteSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.tables.values().all(TableWrites::is_empty)
    }

    pub(crate) fn table(&self, table_id: u32) -> Option<&TableWrites> {
        self.tables.get(&table_id)
    }

    pub(crate) fn table_mut(&mut self, table_id: u32) -> &mut TableWrites {
        self.tables.entry(table_id).or_default()
    }
}

/// Everything the engine keeps for one open transaction.
pub(crate) struct TxnState {
    /// The pinned snapshot: rows are visible iff committed at or before it.
    pub(crate) snapshot: u64,
    pub(crate) writes: WriteSet,
    /// Set when a serialization conflict has already been detected: the
    /// transaction can only be rolled back (commit re-reports the
    /// conflict), mirroring "current transaction is aborted" semantics.
    pub(crate) doomed: Option<String>,
    pub(crate) started: Instant,
}

impl TxnState {
    /// A transaction with no writes yet, pinned at `snapshot`.
    pub(crate) fn new(snapshot: u64) -> Self {
        TxnState { snapshot, writes: WriteSet::default(), doomed: None, started: Instant::now() }
    }
}

/// Registry slot: `Busy` while a thread is executing a statement inside
/// the transaction (the snapshot stays pinned for GC either way).
enum Slot {
    Ready(Box<TxnState>),
    Busy { snapshot: u64 },
}

impl Slot {
    fn snapshot(&self) -> u64 {
        match self {
            Slot::Ready(s) => s.snapshot,
            Slot::Busy { snapshot } => *snapshot,
        }
    }
}

/// A transaction's state checked out of the registry for one statement.
/// Dropping it puts the state back — also when the statement unwinds (a
/// panicking UDF, contained further up by the server's admission layer): a
/// slot left `Busy` could never be committed, rolled back or reaped, and
/// its snapshot would pin version chains for the life of the process. The
/// statement's effect on the write-set is unknown then, so the transaction
/// comes back doomed and can only be rolled back.
pub(crate) struct CheckedOut<'a> {
    txns: &'a TxnManager,
    id: u64,
    /// `Some` until dropped.
    state: Option<Box<TxnState>>,
}

impl CheckedOut<'_> {
    pub(crate) fn state(&mut self) -> &mut TxnState {
        self.state.as_mut().expect("state held until drop")
    }
}

impl Drop for CheckedOut<'_> {
    fn drop(&mut self) {
        let Some(mut state) = self.state.take() else { return };
        if std::thread::panicking() && state.doomed.is_none() {
            state.doomed = Some("a statement panicked inside the transaction".into());
        }
        self.txns.registry.lock().insert(self.id, Slot::Ready(state));
    }
}

/// Hands out monotonically increasing transaction ids, tracks open
/// transactions and their snapshots, and owns the transaction counters.
/// Lives outside the engine `RwLock` so concurrent sessions can run
/// statements in different transactions at the same time.
pub(crate) struct TxnManager {
    next_id: AtomicU64,
    registry: Mutex<HashMap<u64, Slot>>,
    pub(crate) begun: AtomicU64,
    pub(crate) committed: AtomicU64,
    pub(crate) aborted: AtomicU64,
    pub(crate) conflicts: AtomicU64,
    pub(crate) versions_pruned: AtomicU64,
    pub(crate) duration: Histogram,
}

impl TxnManager {
    pub(crate) fn new() -> Self {
        TxnManager {
            next_id: AtomicU64::new(1),
            registry: Mutex::new(HashMap::new()),
            begun: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            versions_pruned: AtomicU64::new(0),
            duration: Histogram::default(),
        }
    }

    /// Register a fresh transaction pinned to `snapshot`. The caller must
    /// hold at least the engine read lock so no commit (and thus no
    /// version GC) can run between reading the timestamp and registering.
    fn register(&self, snapshot: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.registry.lock().insert(id, Slot::Ready(Box::new(TxnState::new(snapshot))));
        self.begun.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Check out the transaction's state for one statement (or for
    /// commit). While checked out, other threads see "busy".
    fn take(&self, id: u64) -> DbResult<Box<TxnState>> {
        let mut reg = self.registry.lock();
        match reg.get_mut(&id) {
            None => Err(DbError::Txn(format!(
                "no transaction {id}: it was never begun, or it already committed, \
                 rolled back, or timed out"
            ))),
            Some(slot @ Slot::Ready(_)) => {
                let snapshot = slot.snapshot();
                let Slot::Ready(state) = std::mem::replace(slot, Slot::Busy { snapshot }) else {
                    unreachable!("slot matched Ready");
                };
                Ok(state)
            }
            Some(Slot::Busy { .. }) => Err(DbError::Txn(format!(
                "transaction {id} is busy executing a statement on another thread"
            ))),
        }
    }

    /// [`TxnManager::take`] for the length of one statement: the state goes
    /// back into the registry when the guard drops.
    pub(crate) fn check_out(&self, id: u64) -> DbResult<CheckedOut<'_>> {
        Ok(CheckedOut { txns: self, id, state: Some(self.take(id)?) })
    }

    /// Deregister `id` (the state was already taken).
    fn finish(&self, id: u64) {
        self.registry.lock().remove(&id);
    }

    /// Number of open transactions (including busy ones).
    pub(crate) fn active(&self) -> usize {
        self.registry.lock().len()
    }

    /// Snapshots of every open transaction, sorted ascending — the
    /// version GC tests each prior image's visibility window against
    /// this list.
    pub(crate) fn active_snapshots(&self) -> Vec<u64> {
        let mut snaps: Vec<u64> = self.registry.lock().values().map(Slot::snapshot).collect();
        snaps.sort_unstable();
        snaps
    }

    pub(crate) fn stats(&self) -> TxnStats {
        TxnStats {
            begun: self.begun.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            versions_pruned: self.versions_pruned.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Database: the id-based transaction API the trait handles delegate to
// ---------------------------------------------------------------------------

impl Database {
    /// Open a transaction and return its id. The snapshot is pinned under
    /// the shared read lock, so it is consistent with every committed
    /// statement and concurrent with nothing.
    pub fn txn_begin(&self) -> u64 {
        let inner = self.inner.read();
        // Register while still holding the read lock: a commit's version
        // GC (which runs under the write lock) must see this snapshot.
        self.txns.register(inner.committed_ts)
    }

    /// Execute one statement inside transaction `id` as the default user.
    pub fn txn_execute(&self, id: u64, sql: &str) -> DbResult<ResultSet> {
        self.txn_execute_as(id, sql, &Role::User("user".into()))
    }

    /// Execute one statement inside transaction `id` with an explicit
    /// role. Reads see the transaction's snapshot plus its own writes;
    /// writes buffer in the write-set. DDL and transaction control are
    /// rejected with [`DbError::Txn`].
    pub fn txn_execute_as(&self, id: u64, sql: &str, role: &Role) -> DbResult<ResultSet> {
        self.run_stmt(Some(id), crate::sql::parse(sql)?, role)
    }

    /// Run `apply` under the exclusive lock, the way every commit point and
    /// every DDL statement does. `finishing`, a committing transaction,
    /// deregisters first: its own snapshot must not pin versions, and its
    /// stamps only matter to transactions that remain active. Row mutations
    /// then record version stamps and prior images iff a snapshot is still
    /// open, and afterwards the versions no open snapshot can see are
    /// collected.
    pub(crate) fn exclusive<T>(
        &self,
        finishing: Option<u64>,
        apply: impl FnOnce(&mut Inner) -> T,
    ) -> T {
        let mut inner = self.inner.write();
        if let Some(id) = finishing {
            self.txns.finish(id);
        }
        inner.track_versions = self.txns.active() > 0;
        let out = apply(&mut inner);
        let current = inner.committed_ts;
        let pruned = inner.gc_versions(&self.txns.active_snapshots(), current);
        self.txns.versions_pruned.fetch_add(pruned, Ordering::Relaxed);
        out
    }

    /// Commit transaction `id`: first-committer-wins validation, then the
    /// write-set applies atomically inside one WAL frame. Whatever the
    /// outcome, the transaction is finished afterwards.
    ///
    /// Errors: [`DbError::Conflict`] (retryable — a concurrent transaction
    /// committed first), [`DbError::Constraint`] (the write-set violates a
    /// unique index), [`DbError::Io`] (the commit applied in memory but
    /// the WAL sync failed; durability catches up on the next sync).
    pub fn txn_commit(&self, id: u64) -> DbResult<()> {
        let state = self.txns.take(id)?;
        let elapsed = state.started.elapsed();
        if let Some(reason) = &state.doomed {
            self.txns.finish(id);
            self.txns.aborted.fetch_add(1, Ordering::Relaxed);
            self.txns.duration.record(elapsed);
            return Err(DbError::Conflict(format!("transaction aborted: {reason}")));
        }
        if state.writes.is_empty() {
            // Read-only: nothing to validate, apply, or log.
            self.txns.finish(id);
            self.txns.committed.fetch_add(1, Ordering::Relaxed);
            self.txns.duration.record(elapsed);
            return Ok(());
        }
        let result = self.exclusive(Some(id), |inner| exec::validate_and_apply(inner, *state));
        self.txns.duration.record(elapsed);
        match &result {
            // An Io error means the WAL sync failed *after* the write-set
            // applied in memory: the transaction is committed for every
            // in-process reader, durability is retried on the next sync.
            Ok(()) | Err(DbError::Io(_)) => {
                self.txns.committed.fetch_add(1, Ordering::Relaxed);
            }
            Err(DbError::Conflict(_)) => {
                self.txns.conflicts.fetch_add(1, Ordering::Relaxed);
                self.txns.aborted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.txns.aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Roll back transaction `id`: the write-set is discarded without any
    /// heap or WAL IO.
    pub fn txn_rollback(&self, id: u64) -> DbResult<()> {
        let state = self.txns.take(id)?;
        self.txns.finish(id);
        self.txns.aborted.fetch_add(1, Ordering::Relaxed);
        self.txns.duration.record(state.started.elapsed());
        Ok(())
    }

    /// True while transaction `id` is open (idle or busy).
    pub fn txn_is_active(&self, id: u64) -> bool {
        self.txns.registry.lock().contains_key(&id)
    }

    /// Transaction counters since open.
    pub fn txn_stats(&self) -> TxnStats {
        self.txns.stats()
    }

    /// Latency distribution of finished transactions (begin → commit or
    /// rollback), for the server's `txn_duration` histogram.
    pub fn txn_duration(&self) -> HistogramSnapshot {
        self.txns.duration.snapshot()
    }
}
