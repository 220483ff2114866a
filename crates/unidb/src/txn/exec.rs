//! The one statement path: statement execution against a transaction's
//! view and write-set, and commit-time validate-and-apply.
//!
//! Every `SELECT`, `EXPLAIN`, `INSERT`, `UPDATE` and `DELETE` runs here —
//! inside an explicit transaction under the shared engine read lock, or as
//! the one-statement transaction autocommit wraps around it
//! (`Database::run_stmt`: read lock for a read, write lock for DML). Reads
//! plan and execute against a [`ReadView`]; writes buffer row images in the
//! transaction's [`WriteSet`](super::WriteSet) without touching the heap. `UPDATE` and
//! `DELETE` find their rows through the row locator ([`crate::locate`]) run
//! against the same view, so they take the access path a `SELECT` with that
//! `WHERE` would — index probes included, on clean and dirty tables alike —
//! and learn where each match lives.
//!
//! **Statement atomicity.** A statement computes and checks every row image
//! before it buffers the first, so a statement that fails — on its first row
//! or its last — leaves the write-set exactly as it found it.
//!
//! Serialization conflicts are detected eagerly where cheap (a write
//! matching a row some concurrent transaction already superseded, an
//! insert colliding with a key committed after the snapshot) and
//! re-validated at commit, where first-committer-wins is enforced under
//! the exclusive write lock.

use crate::catalog::{Role, TableDef};
use crate::datum::Datum;
use crate::db::{
    assign, insert_images, run_read, update_targets, Inner, OldVersion, ResultSet, TableStorage,
};
use crate::error::{DbError, DbResult};
use crate::fxhash::hash_one;
use crate::locate::{locate_rows, table_bindings, Prov};
use crate::sql::ast::{Expr, Stmt};
use crate::storage::heap::Rid;
use crate::storage::wal::WalRecord;
use crate::tuple::Row;
use crate::txn::{ReadView, TableWrites, TxnState};
use std::collections::HashSet;

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
            run_read(&ReadView::new(inner, state.snapshot, Some(&state.writes)), stmt, role)
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

/// The unique-key check a batch of row images passes before it is written:
/// a statement's images before they enter the write-set, the whole
/// write-set before commit applies it. Each batch entry is `(old, new)` —
/// `old` the image an update replaces, so a key it keeps is not probed.
///
/// For each unique index column, in precedence order:
/// 1. committed heap rows still holding a key the batch introduces, other
///    than the ones `replaced` names (rows the transaction deleted or
///    rewrites — their new images are in `held` or in the batch):
///    invisible holder (`born > snapshot`) → [`DbError::Conflict`] (a
///    concurrent transaction claimed the key first), visible holder →
///    [`DbError::Constraint`];
/// 2. `prior_images` visible to the snapshot → [`DbError::Constraint`] (the
///    duplicate is in the transaction's view even if since removed). Commit
///    passes none: every statement checked them, and what a snapshot sees
///    never changes;
/// 3. the transaction's other buffered rows (`held`) and the batch's own
///    earlier rows → [`DbError::Constraint`]. One hashed key set per index,
///    so a batch costs time linear in its rows plus `held`.
fn check_unique<'r>(
    storage: &TableStorage,
    snapshot: u64,
    prior_images: &[OldVersion],
    replaced: impl Fn(Rid) -> bool,
    held: impl Iterator<Item = &'r Row> + Clone,
    batch: impl Iterator<Item = (Option<&'r Row>, &'r Row)> + Clone,
) -> DbResult<()> {
    for (index, idx) in storage.unique_btrees() {
        let (col, pos) = (&index.column, index.pos);
        let duplicate = |key: &Datum| {
            DbError::Constraint(format!("duplicate key {key} for unique index on {col}"))
        };
        let mut taken: HashSet<&Datum> = held.clone().map(|row| &row[pos]).collect();
        for (old, new) in batch.clone() {
            let key = &new[pos];
            if old.is_none_or(|old| old[pos] != *key) {
                for rid in idx.get(key) {
                    // Born-after-snapshot comes first: heap slots are
                    // recycled, so a rid this write-set claims may since have
                    // been re-bestowed on a concurrent commit's row — the
                    // claim is void and the key is taken.
                    if storage.born.get(&rid).copied().unwrap_or(0) > snapshot {
                        return Err(DbError::Conflict(format!(
                            "unique key {key} for index on {col} was claimed by a concurrent \
                             transaction; retry the transaction"
                        )));
                    }
                    if !replaced(rid) {
                        return Err(duplicate(key));
                    }
                }
                let visible = |v: &&OldVersion| v.born <= snapshot && snapshot < v.died;
                if prior_images.iter().filter(visible).any(|v| v.row[pos] == *key) {
                    return Err(duplicate(key));
                }
            }
            if !taken.insert(key) {
                return Err(duplicate(key));
            }
        }
    }
    Ok(())
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
    // Every image is computed and checked before the first is buffered: a
    // statement that fails on a later row leaves no earlier one behind.
    let images: Vec<Row> =
        insert_images(&def, columns.as_deref(), &rows, &inner.funcs)?.collect::<DbResult<_>>()?;
    let storage = inner.storage(def.id)?;
    let none = TableWrites::default();
    // Read, not `table_mut`: a statement that fails must not leave so much as
    // an empty entry behind (one would take the table off the fast path).
    let tw = state.writes.table(def.id).unwrap_or(&none);
    check_unique(
        storage,
        state.snapshot,
        &storage.old_versions,
        |rid| tw.replaces(rid),
        tw.rows(),
        images.iter().map(|row| (None, row)),
    )?;
    let n = images.len() as u64;
    state.writes.table_mut(def.id).inserted.extend(images.into_iter().map(Some));
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
    // Locate, compute every new image, check them as one batch, and only
    // then write: the statement never meets its own output, its uniqueness
    // outcome does not depend on the order rows were found in, and an error
    // on any row leaves the write-set untouched.
    let mut staged = Vec::new();
    for (prov, row) in txn_locate(inner, state, &def, filter.as_ref())? {
        let new_row = assign(&def, &bindings, &targets, &row, &inner.funcs)?;
        staged.push((prov, row, new_row));
    }
    if staged.is_empty() {
        // No overlay entry for a statement that wrote nothing: the table
        // stays on the unversioned fast path.
        return Ok(ResultSet::affected(0));
    }
    let storage = inner.storage(def.id)?;
    let none = TableWrites::default();
    let tw = state.writes.table(def.id).unwrap_or(&none);
    let rewritten: HashSet<Prov> = staged.iter().map(|(prov, ..)| *prov).collect();
    let updated = tw.updated.iter().filter(|(rid, _)| !rewritten.contains(&Prov::Committed(**rid)));
    let inserted =
        tw.inserted.iter().enumerate().filter(|(i, _)| !rewritten.contains(&Prov::OwnInsert(*i)));
    check_unique(
        storage,
        state.snapshot,
        &storage.old_versions,
        |rid| tw.replaces(rid) || rewritten.contains(&Prov::Committed(rid)),
        updated.map(|(_, row)| row).chain(inserted.filter_map(|(_, slot)| slot.as_ref())),
        staged.iter().map(|(_, old, new)| (Some(old), new)),
    )?;
    let n = staged.len() as u64;
    let tw = state.writes.table_mut(def.id);
    for (prov, _, new_row) in staged {
        match prov {
            Prov::Committed(rid) => {
                tw.updated.insert(rid, new_row);
            }
            Prov::OwnInsert(i) => tw.inserted[i] = Some(new_row),
            Prov::Stale => unreachable!("stale rows rejected by txn_locate"),
        }
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
// Commit: validate under the write lock, then apply atomically
// ---------------------------------------------------------------------------

/// First-committer-wins validation followed by atomic application of the
/// write-set. Runs under the exclusive engine lock; the commit point of
/// every `INSERT`/`UPDATE`/`DELETE`, autocommit or not.
///
/// Validation is strictly ordered before any mutation: every check that
/// can fail runs first, so a conflicting or constraint-violating
/// write-set leaves the engine untouched. Application then logs the row
/// mutations with one sync. A write-set of several rows is framed between
/// [`WalRecord::TxnBegin`] and [`WalRecord::TxnCommit`], so recovery
/// replays it all-or-nothing; a write-set of one row is applied as the one
/// record it is — a CRC'd record is already atomic, and two 9-byte markers
/// on a ~40-byte single-row update would grow the log by almost half.
pub(crate) fn validate_and_apply(inner: &mut Inner, state: TxnState) -> DbResult<()> {
    let snapshot = state.snapshot;
    let rows_written: usize = state.writes.tables.values().map(TableWrites::len).sum();
    if rows_written == 0 {
        return Ok(());
    }
    // -- validate ----------------------------------------------------------
    for (&table_id, tw) in &state.writes.tables {
        if tw.is_empty() {
            continue;
        }
        let dropped = || DbError::Conflict("table was dropped by a concurrent statement".into());
        let storage = inner.tables.get(&table_id).ok_or_else(dropped)?;
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
        check_unique(
            storage,
            snapshot,
            &[],
            |rid| tw.replaces(rid),
            std::iter::empty(),
            tw.rows().map(|row| (None, row)),
        )?;
    }
    // -- apply -------------------------------------------------------------
    let framed = rows_written > 1;
    if framed {
        inner.log(WalRecord::TxnBegin)?;
    }
    // Phase 1: clear out every rid whose row the transaction removes or
    // whose unique key it moves, so phase 2's inserts can never trip over
    // keys the transaction itself is freeing. An update that keeps every
    // unique key cannot collide with anything and is applied where it
    // stands, as one update (one WAL record, the rid kept when it fits);
    // so is an update that is the whole write-set, which has no sibling
    // write to trip over.
    let mut fresh: Vec<(u32, Row)> = Vec::new();
    for (table_id, tw) in state.writes.tables {
        // Deletes go in one fixed order, so twin databases log the same
        // bytes and keep their prior images in the same order — but not in
        // rid order: rows sit in a page in key order as often as not, and
        // removing each page's extremum in turn would rebuild its zone
        // once per row. The order of their Fx hashes is fixed and mixed.
        let mut deleted: Vec<Rid> = tw.deleted.into_iter().collect();
        deleted.sort_by_key(|rid| (hash_one(rid), *rid));
        for rid in deleted {
            let row = validated_row(inner, table_id, rid)?;
            inner.delete_row(table_id, rid, &row)?;
        }
        for (rid, new_row) in tw.updated {
            let old_row = validated_row(inner, table_id, rid)?;
            if !framed || keeps_unique_keys(inner, table_id, &old_row, &new_row)? {
                inner.update_row(table_id, rid, &old_row, new_row)?;
            } else {
                inner.delete_row(table_id, rid, &old_row)?;
                fresh.push((table_id, new_row));
            }
        }
        fresh.extend(tw.inserted.into_iter().flatten().map(|row| (table_id, row)));
    }
    // Phase 2: write the moved and the new images (fresh rids).
    for (table_id, row) in fresh {
        inner.insert_row(table_id, row)?;
    }
    if framed {
        inner.log(WalRecord::TxnCommit)?;
    }
    inner.committed_ts += 1;
    if let Some(wal) = inner.wal.as_mut() {
        wal.sync()?;
    }
    Ok(())
}

/// The current heap image of a rid that validation just found live.
fn validated_row(inner: &Inner, table_id: u32, rid: Rid) -> DbResult<Row> {
    let row = inner.storage(table_id)?.fetch_row(rid)?;
    row.ok_or_else(|| DbError::Internal("validated rid vanished during apply".into()))
}

/// Does rewriting `old` as `new` leave every unique-indexed column of the
/// table unchanged?
fn keeps_unique_keys(inner: &Inner, table_id: u32, old: &Row, new: &Row) -> DbResult<bool> {
    Ok(inner.storage(table_id)?.unique_btrees().all(|(index, _)| old[index.pos] == new[index.pos]))
}
