//! Statement execution inside a transaction, and commit-time
//! validate-and-apply.
//!
//! Statements run under the shared engine read lock: reads plan and
//! execute against a [`ReadView`]; writes buffer row images in the
//! transaction's [`WriteSet`](super::WriteSet) without touching the heap.
//! `UPDATE` and `DELETE` find their rows through the row locator
//! ([`crate::locate`]) run against the same view, so they take the access
//! path a `SELECT` with that `WHERE` would — index probes included, on
//! clean and dirty tables alike — and learn where each match lives.
//! Serialization conflicts are detected eagerly where cheap (a write
//! matching a row some concurrent transaction already superseded, an
//! insert colliding with a key committed after the snapshot) and
//! re-validated at commit, where first-committer-wins is enforced under
//! the exclusive write lock.

use crate::catalog::{Role, TableDef};
use crate::db::{assign, insert_images, run_read, update_targets, Inner, ResultSet};
use crate::error::{DbError, DbResult};
use crate::locate::{locate_rows, table_bindings, Prov};
use crate::sql::ast::{Expr, Stmt};
use crate::storage::heap::Rid;
use crate::storage::wal::WalRecord;
use crate::tuple::Row;
use crate::txn::{ReadView, TableWrites, TxnState};

pub(crate) fn run_txn_stmt(
    inner: &Inner,
    state: &mut TxnState,
    stmt: Stmt,
    role: &Role,
) -> DbResult<ResultSet> {
    if let Some(reason) = &state.doomed {
        return Err(DbError::Conflict(format!("transaction must be rolled back: {reason}")));
    }
    match stmt {
        Stmt::Select(_) | Stmt::Explain { .. } => {
            let view = ReadView::new(inner, state.snapshot, Some(&state.writes));
            run_read(&view, inner.parallelism, stmt, role)
        }
        Stmt::Insert { table, columns, rows } => {
            txn_insert(inner, state, &table, columns, rows, role)
        }
        Stmt::Update { table, assignments, filter } => {
            txn_update(inner, state, &table, assignments, filter, role)
        }
        Stmt::Delete { table, filter } => txn_delete(inner, state, &table, filter, role),
        Stmt::CreateTable { .. }
        | Stmt::DropTable { .. }
        | Stmt::CreateIndex { .. }
        | Stmt::CreateSpace { .. } => Err(DbError::Txn(
            "DDL is not allowed inside a transaction; run it in auto-commit mode".into(),
        )),
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => {
            Err(DbError::Internal("transaction control reached the transaction executor".into()))
        }
    }
}

fn conflict_stale_row() -> DbError {
    DbError::Conflict(
        "row was modified by a concurrent transaction after this snapshot; retry the transaction"
            .into(),
    )
}

/// Everything a uniqueness check reads: engine state, the table, the
/// transaction's buffered writes, and its snapshot.
struct UniqueScope<'a> {
    inner: &'a Inner,
    def: &'a TableDef,
    tw: &'a TableWrites,
    snapshot: u64,
}

impl UniqueScope<'_> {
    /// Uniqueness check for a row this transaction is about to buffer.
    ///
    /// Checks, in precedence order, each unique index column whose key the
    /// write actually changes (`old_row` is the prior contents for an
    /// update; `self_rid`/`self_insert` identify the write-set entry being
    /// rewritten so it does not collide with itself):
    /// 1. committed heap rows still holding the key (excluding rows this
    ///    transaction deleted or rewrote, and the row being rewritten):
    ///    invisible holder (`born > snapshot`) → [`DbError::Conflict`]
    ///    (a concurrent transaction claimed the key first), visible holder →
    ///    [`DbError::Constraint`];
    /// 2. prior images visible to the snapshot → [`DbError::Constraint`]
    ///    (the duplicate is in the transaction's view even if since removed);
    /// 3. the transaction's own buffered rows → [`DbError::Constraint`].
    fn check(
        &self,
        new_row: &Row,
        old_row: Option<&Row>,
        self_rid: Option<Rid>,
        self_insert: Option<usize>,
    ) -> DbResult<()> {
        let Some(storage) = self.inner.tables.get(&self.def.id) else {
            return Err(DbError::Internal("missing table storage".into()));
        };
        let (tw, snapshot) = (self.tw, self.snapshot);
        for (col, idx) in &storage.btrees {
            if !idx.is_unique() {
                continue;
            }
            let pos = self.def.column_index(col).expect("index column exists");
            let key = &new_row[pos];
            if let Some(old) = old_row {
                if old[pos] == *key {
                    continue;
                }
            }
            for rid in idx.get(key) {
                // Born-after-snapshot comes first: heap slots are recycled,
                // so a rid this write-set claims may since have been
                // re-bestowed on a concurrent commit's row — the claim is
                // void and the key is taken.
                if storage.born.get(&rid).copied().unwrap_or(0) > snapshot {
                    return Err(DbError::Conflict(format!(
                        "unique key {key} for index on {col} was claimed by a concurrent \
                         transaction; retry the transaction"
                    )));
                }
                if tw.deleted.contains(&rid)
                    || tw.updated.contains_key(&rid)
                    || self_rid == Some(rid)
                {
                    continue;
                }
                return Err(DbError::Constraint(format!(
                    "duplicate key {key} for unique index on {col}"
                )));
            }
            for v in &storage.old_versions {
                if v.born <= snapshot && snapshot < v.died && v.row[pos] == *key {
                    return Err(DbError::Constraint(format!(
                        "duplicate key {key} for unique index on {col}"
                    )));
                }
            }
            let own_dup =
                tw.updated.iter().any(|(rid, row)| self_rid != Some(*rid) && row[pos] == *key)
                    || tw.inserted.iter().enumerate().any(|(i, slot)| {
                        self_insert != Some(i) && slot.as_ref().is_some_and(|row| row[pos] == *key)
                    });
            if own_dup {
                return Err(DbError::Constraint(format!(
                    "duplicate key {key} for unique index on {col}"
                )));
            }
        }
        Ok(())
    }
}

fn txn_insert(
    inner: &Inner,
    state: &mut TxnState,
    table: &str,
    columns: Option<Vec<String>>,
    rows: Vec<Vec<Expr>>,
    role: &Role,
) -> DbResult<ResultSet> {
    let def = inner.writable_table(table, role)?;
    let snapshot = state.snapshot;
    let mut n = 0u64;
    for row in insert_images(&def, columns.as_deref(), &rows, &inner.funcs)? {
        let row = row?;
        {
            let tw = state.writes.table_mut(def.id);
            UniqueScope { inner, def: &def, tw, snapshot }.check(&row, None, None, None)?;
        }
        state.writes.table_mut(def.id).inserted.push(Some(row));
        n += 1;
    }
    Ok(ResultSet::affected(n))
}

/// The rows of the transaction's view that pass `filter`, located through
/// the same access path a SELECT would take. A match that is a prior image
/// — in the view, but already committed over — is a write-write conflict.
fn txn_locate(
    inner: &Inner,
    state: &TxnState,
    def: &TableDef,
    filter: Option<&Expr>,
) -> DbResult<Vec<(Prov, Row)>> {
    let view = ReadView::new(inner, state.snapshot, Some(&state.writes));
    let matching = locate_rows(&view, def, &table_bindings(def), filter)?;
    if matching.iter().any(|(prov, _)| *prov == Prov::Stale) {
        return Err(conflict_stale_row());
    }
    Ok(matching)
}

fn txn_update(
    inner: &Inner,
    state: &mut TxnState,
    table: &str,
    assignments: Vec<(String, Expr)>,
    filter: Option<Expr>,
    role: &Role,
) -> DbResult<ResultSet> {
    let def = inner.writable_table(table, role)?;
    let targets = update_targets(&def, assignments)?;
    let bindings = table_bindings(&def);
    let matching = txn_locate(inner, state, &def, filter.as_ref())?;
    if matching.is_empty() {
        // No overlay entry for a statement that wrote nothing: the table
        // stays on the unversioned fast path.
        return Ok(ResultSet::affected(0));
    }
    let snapshot = state.snapshot;
    let tw = state.writes.table_mut(def.id);
    let mut n = 0u64;
    for (prov, row) in matching {
        let new_row = assign(&def, &bindings, &targets, &row, &inner.funcs)?;
        let (self_rid, self_insert) = match prov {
            Prov::Committed(rid) => (Some(rid), None),
            Prov::OwnInsert(i) => (None, Some(i)),
            Prov::Stale => unreachable!("stale rows rejected by txn_locate"),
        };
        UniqueScope { inner, def: &def, tw: &*tw, snapshot }.check(
            &new_row,
            Some(&row),
            self_rid,
            self_insert,
        )?;
        match prov {
            Prov::Committed(rid) => {
                tw.updated.insert(rid, new_row);
            }
            Prov::OwnInsert(i) => tw.inserted[i] = Some(new_row),
            Prov::Stale => unreachable!("stale rows rejected by txn_locate"),
        }
        n += 1;
    }
    Ok(ResultSet::affected(n))
}

fn txn_delete(
    inner: &Inner,
    state: &mut TxnState,
    table: &str,
    filter: Option<Expr>,
    role: &Role,
) -> DbResult<ResultSet> {
    let def = inner.writable_table(table, role)?;
    let matching = txn_locate(inner, state, &def, filter.as_ref())?;
    if matching.is_empty() {
        return Ok(ResultSet::affected(0));
    }
    let tw = state.writes.table_mut(def.id);
    let n = matching.len() as u64;
    for (prov, _) in matching {
        match prov {
            Prov::Committed(rid) => {
                tw.updated.remove(&rid);
                tw.deleted.insert(rid);
            }
            Prov::OwnInsert(i) => tw.inserted[i] = None,
            Prov::Stale => unreachable!("stale rows rejected by txn_locate"),
        }
    }
    Ok(ResultSet::affected(n))
}

// ---------------------------------------------------------------------------
// Commit: validate under the write lock, then apply inside one WAL frame
// ---------------------------------------------------------------------------

/// First-committer-wins validation followed by atomic application of the
/// write-set. Runs under the exclusive engine lock.
///
/// Validation is strictly ordered before any mutation: every check that
/// can fail runs first, so a conflicting or constraint-violating
/// transaction leaves the engine untouched. Application then frames the
/// row mutations between [`WalRecord::TxnBegin`] and
/// [`WalRecord::TxnCommit`] with one sync, so recovery replays the
/// transaction all-or-nothing.
pub(crate) fn validate_and_apply(inner: &mut Inner, state: &TxnState) -> DbResult<()> {
    let snapshot = state.snapshot;
    // -- validate ----------------------------------------------------------
    for (&table_id, tw) in &state.writes.tables {
        if tw.is_empty() {
            continue;
        }
        let def = inner
            .catalog
            .table_by_id(table_id)
            .ok_or_else(|| DbError::Conflict("table was dropped by a concurrent statement".into()))?
            .clone();
        let storage = inner.tables.get(&table_id).ok_or_else(|| {
            DbError::Conflict("table was dropped by a concurrent statement".into())
        })?;
        // Every written rid must still be the version the snapshot saw.
        for rid in tw.updated.keys().chain(tw.deleted.iter()) {
            if storage.born.get(rid).copied().unwrap_or(0) > snapshot
                || storage.heap.get(*rid)?.is_none()
            {
                return Err(conflict_stale_row());
            }
        }
        // Unique keys the transaction introduces must not collide — with
        // each other, or with committed rows that survive phase 1.
        for (col, idx) in &storage.btrees {
            if !idx.is_unique() {
                continue;
            }
            let pos = def.column_index(col).expect("index column exists");
            let new_rows = tw.updated.values().chain(tw.inserted.iter().flatten());
            let mut keys: Vec<&crate::datum::Datum> = Vec::new();
            for row in new_rows {
                let key = &row[pos];
                if keys.iter().any(|k| **k == *key) {
                    return Err(DbError::Constraint(format!(
                        "duplicate key {key} for unique index on {col}"
                    )));
                }
                for rid in idx.get(key) {
                    // Born check first: a recycled rid may carry a
                    // concurrent commit's row, voiding this write-set's
                    // claim on it (the rid loop above already conflicts in
                    // that case; this keeps the two checks aligned).
                    if storage.born.get(&rid).copied().unwrap_or(0) > snapshot {
                        return Err(DbError::Conflict(format!(
                            "unique key {key} for index on {col} was claimed by a \
                             concurrent transaction; retry the transaction"
                        )));
                    }
                    if tw.deleted.contains(&rid) || tw.updated.contains_key(&rid) {
                        continue;
                    }
                    return Err(DbError::Constraint(format!(
                        "duplicate key {key} for unique index on {col}"
                    )));
                }
                keys.push(key);
            }
        }
    }
    // -- apply -------------------------------------------------------------
    inner.log(WalRecord::TxnBegin)?;
    // Phase 1: clear out every rid whose row the transaction removes or
    // whose unique key it moves, so phase 2's inserts can never trip over
    // keys the transaction itself is freeing. An update that keeps every
    // unique key cannot collide with anything and is applied where it
    // stands, as one update (one WAL record, the rid kept when it fits).
    let mut moved: Vec<(u32, &Row)> = Vec::new();
    for (&table_id, tw) in &state.writes.tables {
        for &rid in &tw.deleted {
            let row = validated_row(inner, table_id, rid)?;
            inner.delete_row(table_id, rid, &row)?;
        }
        for (&rid, new_row) in &tw.updated {
            let old_row = validated_row(inner, table_id, rid)?;
            if keeps_unique_keys(inner, table_id, &old_row, new_row)? {
                inner.update_row(table_id, rid, &old_row, new_row.clone())?;
            } else {
                inner.delete_row(table_id, rid, &old_row)?;
                moved.push((table_id, new_row));
            }
        }
    }
    // Phase 2: write the moved and the new images (fresh rids).
    let inserted =
        state.writes.tables.iter().flat_map(|(&table_id, tw)| {
            tw.inserted.iter().flatten().map(move |row| (table_id, row))
        });
    for (table_id, row) in moved.into_iter().chain(inserted) {
        inner.insert_row(table_id, row.clone())?;
    }
    inner.log(WalRecord::TxnCommit)?;
    inner.committed_ts += 1;
    inner.pending_dirty = false;
    if let Some(wal) = inner.wal.as_mut() {
        wal.sync()?;
    }
    Ok(())
}

/// The current heap image of a rid that validation just found live.
fn validated_row(inner: &Inner, table_id: u32, rid: Rid) -> DbResult<Row> {
    inner
        .storage(table_id)?
        .fetch_rows(&[rid], |_, row| row)?
        .pop()
        .ok_or_else(|| DbError::Internal("validated rid vanished during apply".into()))
}

/// Does rewriting `old` as `new` leave every unique-indexed column of the
/// table unchanged?
fn keeps_unique_keys(inner: &Inner, table_id: u32, old: &Row, new: &Row) -> DbResult<bool> {
    let def = inner
        .catalog
        .table_by_id(table_id)
        .ok_or_else(|| DbError::Internal("unknown table id".into()))?;
    Ok(inner.storage(table_id)?.btrees.iter().filter(|(_, idx)| idx.is_unique()).all(|(col, _)| {
        let pos = def.column_index(col).expect("index column exists");
        old[pos] == new[pos]
    }))
}
