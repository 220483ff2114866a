//! Acceptance tests for the MVCC transaction subsystem: snapshot
//! isolation, first-committer-wins conflicts, concurrent disjoint
//! writers, and ambient (`BEGIN`/`COMMIT`/`ROLLBACK`) transaction
//! control.

use std::sync::{Arc, Barrier};
use unidb::{Database, Datum, DbError};

fn fresh_kv() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("CREATE UNIQUE INDEX ON t (k)").unwrap();
    db
}

fn ints(db: &Database, sql: &str) -> Vec<(i64, i64)> {
    let rs = db.execute(sql).unwrap();
    let mut out: Vec<(i64, i64)> =
        rs.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect();
    out.sort_unstable();
    out
}

fn txn_ints(db: &Database, id: u64, sql: &str) -> Vec<(i64, i64)> {
    let rs = db.txn_execute(id, sql).unwrap();
    let mut out: Vec<(i64, i64)> =
        rs.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect();
    out.sort_unstable();
    out
}

// -- disjoint writers ------------------------------------------------------

/// Two transactions writing different rows interleave their statements
/// while both are open (neither blocks the other on the global write
/// lock) and both commit.
#[test]
fn disjoint_writers_both_commit() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    let a = db.txn_begin();
    let b = db.txn_begin();
    // Interleaved statements with both transactions open: under a
    // lock-per-transaction design the second statement would deadlock or
    // block forever.
    db.txn_execute(a, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
    db.txn_execute(b, "UPDATE t SET v = 21 WHERE k = 2").unwrap();
    db.txn_execute(a, "INSERT INTO t VALUES (3, 30)").unwrap();
    db.txn_execute(b, "INSERT INTO t VALUES (4, 40)").unwrap();
    db.txn_commit(a).unwrap();
    db.txn_commit(b).unwrap();

    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 11), (2, 21), (3, 30), (4, 40)]);
}

/// The threaded variant: writers on disjoint keys running on real
/// threads all commit without a serialization failure.
#[test]
fn threaded_disjoint_writers_all_commit() {
    let db = Arc::new(fresh_kv());
    for k in 0..8 {
        db.execute(&format!("INSERT INTO t VALUES ({k}, 0)")).unwrap();
    }
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|w| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let id = db.txn_begin();
                db.txn_execute(id, &format!("UPDATE t SET v = {w} WHERE k = {}", 2 * w)).unwrap();
                db.txn_execute(id, &format!("UPDATE t SET v = {w} WHERE k = {}", 2 * w + 1))
                    .unwrap();
                db.txn_commit(id).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = db.txn_stats();
    assert_eq!(stats.committed, 4);
    assert_eq!(stats.conflicts, 0);
    assert_eq!(ints(&db, "SELECT k, v FROM t"), (0..8).map(|k| (k, k / 2)).collect::<Vec<_>>());
}

// -- write-write conflicts -------------------------------------------------

/// Same-row writers: the first committer wins, the second aborts with the
/// retryable [`DbError::Conflict`].
#[test]
fn same_row_conflict_aborts_exactly_one() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    let a = db.txn_begin();
    let b = db.txn_begin();
    db.txn_execute(a, "UPDATE t SET v = 100 WHERE k = 1").unwrap();
    db.txn_execute(b, "UPDATE t SET v = 200 WHERE k = 1").unwrap();
    db.txn_commit(a).unwrap();
    let err = db.txn_commit(b).unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "expected Conflict, got {err:?}");

    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 100)]);
    let stats = db.txn_stats();
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.conflicts, 1);
}

/// A statement that touches a row a concurrent transaction already
/// committed over conflicts eagerly; the transaction is doomed and its
/// commit re-reports the conflict.
#[test]
fn stale_row_statement_dooms_transaction() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    let a = db.txn_begin();
    // Concurrent auto-commit update supersedes the row after a's snapshot.
    db.execute("UPDATE t SET v = 99 WHERE k = 1").unwrap();
    let err = db.txn_execute(a, "UPDATE t SET v = 100 WHERE k = 1").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "expected Conflict, got {err:?}");
    // Doomed: further statements fail, commit reports the abort.
    let err = db.txn_execute(a, "SELECT k, v FROM t").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)));
    let err = db.txn_commit(a).unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)));
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 99)]);
    // Exactly one conflict counted even though it surfaced three times.
    assert_eq!(db.txn_stats().conflicts, 1);
}

/// Concurrent threads racing an increment on one row: conflicts abort
/// losers, retries converge, and the final value counts every committed
/// increment exactly once.
#[test]
fn contended_increment_with_retries_is_exact() {
    let db = Arc::new(fresh_kv());
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    let threads = 4;
    let per_thread = 5;
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let db = Arc::clone(&db);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    loop {
                        let id = db.txn_begin();
                        let step = db
                            .txn_execute(id, "UPDATE t SET v = v + 1 WHERE k = 1")
                            .and_then(|_| db.txn_commit(id));
                        match step {
                            Ok(()) => break,
                            Err(DbError::Conflict(_)) => {
                                // Doomed transactions must be cleaned up
                                // before retrying (commit already did).
                                if db.txn_is_active(id) {
                                    db.txn_rollback(id).unwrap();
                                }
                            }
                            Err(e) => panic!("unexpected error: {e:?}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, (threads * per_thread) as i64)]);
}

// -- snapshot isolation ----------------------------------------------------

/// A snapshot reader never sees rows a concurrent transaction commits
/// after the snapshot was pinned.
#[test]
fn snapshot_reader_never_sees_concurrent_commit() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    let reader = db.txn_begin();
    assert_eq!(txn_ints(&db, reader, "SELECT k, v FROM t"), vec![(1, 10), (2, 20)]);

    let writer = db.txn_begin();
    db.txn_execute(writer, "INSERT INTO t VALUES (3, 30)").unwrap();
    db.txn_execute(writer, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
    db.txn_execute(writer, "DELETE FROM t WHERE k = 2").unwrap();
    db.txn_commit(writer).unwrap();

    // Latest state moved; the reader's snapshot has not.
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 11), (3, 30)]);
    for _ in 0..3 {
        assert_eq!(
            txn_ints(&db, reader, "SELECT k, v FROM t"),
            vec![(1, 10), (2, 20)],
            "snapshot leaked"
        );
    }
    // Aggregates and filters see the same frozen state.
    let rs = db.txn_execute(reader, "SELECT count(*) FROM t").unwrap();
    assert_eq!(rs.scalar(), Some(&Datum::Int(2)));
    let rs = db.txn_execute(reader, "SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(rs.scalar(), Some(&Datum::Int(10)));
    db.txn_commit(reader).unwrap();

    // Snapshot released: a fresh transaction sees latest.
    let fresh = db.txn_begin();
    assert_eq!(txn_ints(&db, fresh, "SELECT k, v FROM t"), vec![(1, 11), (3, 30)]);
    db.txn_rollback(fresh).unwrap();
}

/// A transaction reads its own uncommitted writes; nobody else does until
/// commit.
#[test]
fn own_writes_visible_only_inside() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    let a = db.txn_begin();
    db.txn_execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
    db.txn_execute(a, "UPDATE t SET v = 15 WHERE k = 1").unwrap();
    assert_eq!(txn_ints(&db, a, "SELECT k, v FROM t"), vec![(1, 15), (2, 20)]);
    // Outside the transaction: nothing happened yet.
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10)]);
    db.txn_commit(a).unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 15), (2, 20)]);
}

/// Updating or deleting a row the same transaction inserted works and
/// leaves no residue after commit.
#[test]
fn own_insert_update_delete_chains() {
    let db = fresh_kv();
    let a = db.txn_begin();
    db.txn_execute(a, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").unwrap();
    db.txn_execute(a, "UPDATE t SET v = 21 WHERE k = 2").unwrap();
    db.txn_execute(a, "DELETE FROM t WHERE k = 3").unwrap();
    assert_eq!(txn_ints(&db, a, "SELECT k, v FROM t"), vec![(1, 10), (2, 21)]);
    db.txn_commit(a).unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10), (2, 21)]);
}

#[test]
fn rollback_discards_everything() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let a = db.txn_begin();
    db.txn_execute(a, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
    db.txn_execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
    db.txn_rollback(a).unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10)]);
    // The id is gone: further use reports a structured transaction error.
    let err = db.txn_execute(a, "SELECT k FROM t").unwrap_err();
    assert!(matches!(err, DbError::Txn(_)));
    let err = db.txn_commit(a).unwrap_err();
    assert!(matches!(err, DbError::Txn(_)));
}

// -- unique-index interaction ----------------------------------------------

/// Inserting a key that a concurrent transaction committed after the
/// snapshot is a serialization conflict; a key visible in the snapshot is
/// an ordinary constraint violation.
#[test]
fn unique_key_conflict_vs_constraint() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

    // Visible duplicate: plain constraint error, transaction stays usable.
    let a = db.txn_begin();
    let err = db.txn_execute(a, "INSERT INTO t VALUES (1, 99)").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "expected Constraint, got {err:?}");
    db.txn_execute(a, "INSERT INTO t VALUES (2, 20)").unwrap();
    db.txn_commit(a).unwrap();

    // Invisible duplicate (committed after the snapshot): conflict.
    let b = db.txn_begin();
    db.execute("INSERT INTO t VALUES (7, 70)").unwrap();
    let err = db.txn_execute(b, "INSERT INTO t VALUES (7, 71)").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "expected Conflict, got {err:?}");

    // Commit-time race: both transactions insert the same fresh key; the
    // second committer conflicts.
    let c = db.txn_begin();
    let d = db.txn_begin();
    db.txn_execute(c, "INSERT INTO t VALUES (9, 90)").unwrap();
    db.txn_execute(d, "INSERT INTO t VALUES (9, 91)").unwrap();
    db.txn_commit(c).unwrap();
    let err = db.txn_commit(d).unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "expected Conflict, got {err:?}");
    assert_eq!(ints(&db, "SELECT k, v FROM t WHERE k = 9"), vec![(9, 90)]);
}

/// A transaction can reuse a unique key it deleted itself, including the
/// delete-and-reinsert-in-one-transaction shape that stresses commit
/// apply ordering.
#[test]
fn unique_key_reuse_within_transaction() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
    let a = db.txn_begin();
    db.txn_execute(a, "DELETE FROM t WHERE k = 1").unwrap();
    db.txn_execute(a, "INSERT INTO t VALUES (1, 100)").unwrap();
    // Key swap across two rows via update.
    db.txn_execute(a, "UPDATE t SET k = 3 WHERE k = 2").unwrap();
    db.txn_execute(a, "INSERT INTO t VALUES (2, 200)").unwrap();
    db.txn_commit(a).unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 100), (2, 200), (3, 20)]);
}

// -- ambient transactions (BEGIN / COMMIT / ROLLBACK as SQL) ----------------

#[test]
fn ambient_begin_commit_rollback() {
    let db = fresh_kv();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    db.execute("COMMIT").unwrap();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10)]);
}

/// `COMMIT`/`ROLLBACK` without `BEGIN`, and nested `BEGIN`, are
/// structured transaction-state errors, not unsupported-statement errors.
#[test]
fn transaction_control_misuse_is_structured() {
    let db = fresh_kv();
    assert!(matches!(db.execute("COMMIT"), Err(DbError::Txn(_))));
    assert!(matches!(db.execute("ROLLBACK"), Err(DbError::Txn(_))));
    db.execute("BEGIN").unwrap();
    assert!(matches!(db.execute("BEGIN"), Err(DbError::Txn(_))));
    db.execute("ROLLBACK").unwrap();
    // The database remains fully usable after every misuse.
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 1)]);
}

#[test]
fn ddl_inside_transaction_is_rejected() {
    let db = fresh_kv();
    let a = db.txn_begin();
    let err = db.txn_execute(a, "CREATE TABLE u (x INT)").unwrap_err();
    assert!(matches!(err, DbError::Txn(_)), "expected Txn, got {err:?}");
    db.txn_rollback(a).unwrap();
}

// -- durability ------------------------------------------------------------

/// Committed transactions survive reopen; a transaction still open at
/// shutdown (its handle dropped, or simply never committed) leaves no
/// trace.
#[test]
fn committed_survives_reopen_uncommitted_does_not() {
    use unidb::Role;
    let m = Role::Maintainer;
    let dir = std::env::temp_dir().join(format!("unidb-txn-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = Database::open(&dir).unwrap();
        db.recover().unwrap();
        db.execute_as("CREATE TABLE t (k INT, v INT)", &m).unwrap();
        let a = db.txn_begin();
        db.txn_execute_as(a, "INSERT INTO t VALUES (1, 10)", &m).unwrap();
        db.txn_commit(a).unwrap();
        let b = db.txn_begin();
        db.txn_execute_as(b, "INSERT INTO t VALUES (2, 20)", &m).unwrap();
        // b is never committed: its writes must not reach disk.
    }
    {
        let db = Database::open(&dir).unwrap();
        db.recover().unwrap();
        assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10)]);
        // The reopened engine accepts new transactions.
        let c = db.txn_begin();
        db.txn_execute_as(c, "INSERT INTO t VALUES (3, 30)", &m).unwrap();
        db.txn_commit(c).unwrap();
        assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 10), (3, 30)]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// -- statement atomicity ---------------------------------------------------

/// Statements that fail on a row after their first: the earlier rows must
/// leave no trace, in autocommit and inside a transaction alike.
const FAIL_PART_WAY: [&str; 3] = [
    // The last row is NULL in a NOT NULL column.
    "INSERT INTO public.t VALUES (4, 40), (5, 50), (NULL, 60)",
    // The second row collides with the first on the unique key.
    "UPDATE public.t SET k = 7 WHERE k >= 2",
    // The SET expression divides by zero on the second row.
    "UPDATE public.t SET v = 100 / (v - 20) WHERE k >= 1",
];

/// A durable `t (k INT NOT NULL, v INT)`, unique on `k`, holding three rows.
fn atomicity_db(dir: &std::path::Path) -> Database {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::open(dir).unwrap();
    db.recover().unwrap();
    db.execute_script_as(
        "CREATE TABLE public.t (k INT NOT NULL, v INT);
         CREATE UNIQUE INDEX ON public.t (k);
         INSERT INTO public.t VALUES (1, 10), (2, 20), (3, 30);",
        &unidb::Role::Maintainer,
    )
    .unwrap();
    db
}

fn reopened(dir: &std::path::Path) -> Database {
    let db = Database::open(dir).unwrap();
    db.recover().unwrap();
    db
}

#[test]
fn failed_autocommit_statement_leaves_no_trace() {
    let m = unidb::Role::Maintainer;
    let dir = std::env::temp_dir().join(format!("unidb-atomic-auto-{}", std::process::id()));
    let db = atomicity_db(&dir);
    let before = ints(&db, "SELECT k, v FROM public.t");
    let (wal, stats) = (db.wal_stats(), db.stats_fingerprint("public.t").unwrap());
    for sql in FAIL_PART_WAY {
        let err = db.execute_as(sql, &m).unwrap_err();
        assert!(!matches!(err, DbError::Conflict(_)), "{sql}: autocommit never conflicts: {err}");
        assert_eq!(ints(&db, "SELECT k, v FROM public.t"), before, "{sql}");
        // Nothing reached the WAL, not even its buffer, nor the statistics.
        assert_eq!(db.wal_stats(), wal, "{sql}");
        assert_eq!(db.stats_fingerprint("public.t").unwrap(), stats, "{sql}");
        assert!(db.verify_zone_maps("public.t").unwrap(), "{sql}");
    }
    // Autocommit statements are not transactions the registry ever sees.
    assert_eq!(db.txn_stats(), unidb::TxnStats::default());
    drop(db);
    assert_eq!(ints(&reopened(&dir), "SELECT k, v FROM public.t"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_statement_in_a_transaction_leaves_no_trace() {
    let m = unidb::Role::Maintainer;
    let dir = std::env::temp_dir().join(format!("unidb-atomic-txn-{}", std::process::id()));
    let db = atomicity_db(&dir);
    let id = db.txn_begin();
    db.txn_execute_as(id, "UPDATE public.t SET v = 11 WHERE k = 1", &m).unwrap();
    let before = txn_ints(&db, id, "SELECT k, v FROM public.t");
    for sql in FAIL_PART_WAY {
        assert!(db.txn_execute_as(id, sql, &m).is_err(), "{sql}");
        // The write-set is as the statement found it: the transaction's
        // earlier write is still there, none of the failed statement's are.
        assert_eq!(txn_ints(&db, id, "SELECT k, v FROM public.t"), before, "{sql}");
    }
    db.txn_commit(id).unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM public.t"), before);
    drop(db);
    assert_eq!(ints(&reopened(&dir), "SELECT k, v FROM public.t"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A script that dies between its own `BEGIN` and `COMMIT` rolls its
/// transaction back: the database-wide ambient slot is free again, so later
/// statements commit on their own, and no snapshot stays pinned.
#[test]
fn failing_script_releases_the_ambient_transaction() {
    let db = fresh_kv();
    let err = db
        .execute_script(
            "BEGIN; INSERT INTO t VALUES (1, 10); INSERT INTO nosuch VALUES (1); COMMIT",
        )
        .unwrap_err();
    assert!(matches!(err, DbError::NotFound { .. }), "{err}");
    db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
    // Visible to a reader that begins now — it was committed, not buffered.
    let reader = db.txn_begin();
    assert_eq!(txn_ints(&db, reader, "SELECT k, v FROM t"), vec![(2, 20)]);
    db.txn_commit(reader).unwrap();
    let stats = db.txn_stats();
    assert_eq!(stats.begun, stats.committed + stats.aborted);
    // A script failing inside a transaction it did not open leaves it alone.
    db.execute("BEGIN").unwrap();
    assert!(db
        .execute_script("INSERT INTO t VALUES (3, 30); INSERT INTO nosuch VALUES (1)")
        .is_err());
    db.execute("COMMIT").unwrap();
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(2, 20), (3, 30)]);
}

// -- caches and metrics ----------------------------------------------------

/// Table version counters only move when a transaction *commits*, and
/// they move past every snapshot pinned before the commit — the property
/// the server's result cache relies on.
#[test]
fn table_versions_track_commits_not_statements() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    let prepared = db.prepare("SELECT k, v FROM t").unwrap();
    let ids = prepared.table_ids().to_vec();
    let before = db.table_versions(&ids);

    let a = db.txn_begin();
    db.txn_execute(a, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
    // Buffered writes are not commits: the version must not move.
    assert_eq!(db.table_versions(&ids), before);
    db.txn_commit(a).unwrap();
    assert!(db.table_versions(&ids) > before, "commit must advance the table version");

    let b = db.txn_begin();
    db.txn_execute(b, "UPDATE t SET v = 12 WHERE k = 1").unwrap();
    db.txn_rollback(b).unwrap();
    let after_rollback = db.table_versions(&ids);
    db.txn_commit(db.txn_begin()).unwrap(); // empty commit
    assert_eq!(db.table_versions(&ids), after_rollback, "rollbacks and empty commits are free");
}

#[test]
fn txn_counters_and_duration() {
    let db = fresh_kv();
    let a = db.txn_begin();
    db.txn_execute(a, "INSERT INTO t VALUES (1, 1)").unwrap();
    db.txn_commit(a).unwrap();
    let b = db.txn_begin();
    db.txn_rollback(b).unwrap();
    let stats = db.txn_stats();
    assert_eq!(stats.begun, 2);
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.aborted, 1);
    assert_eq!(stats.conflicts, 0);
    assert_eq!(db.txn_duration().count, 2);
}

// -- version-chain GC ------------------------------------------------------

/// Version chains are pruned even while a long-lived snapshot is open:
/// churn versions born *after* the snapshot can never become visible to
/// any active or future snapshot, so GC drops them instead of letting the
/// chain grow for the lifetime of the reader.
#[test]
fn version_gc_prunes_churn_under_long_lived_reader() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

    let reader = db.txn_begin();
    assert_eq!(txn_ints(&db, reader, "SELECT k, v FROM t"), vec![(1, 10), (2, 20)]);

    // Heavy churn on one row while the reader stays open. Every UPDATE
    // auto-commits and retires a version; all but the one alive at the
    // reader's snapshot are unreachable and must be pruned promptly.
    for i in 0..100 {
        db.execute(&format!("UPDATE t SET v = {} WHERE k = 1", 100 + i)).unwrap();
    }
    let pruned = db.txn_stats().versions_pruned;
    assert!(pruned >= 90, "churn should be pruned while the reader is open, got {pruned}");

    // The one version the snapshot *does* need survived the pruning.
    assert_eq!(txn_ints(&db, reader, "SELECT k, v FROM t"), vec![(1, 10), (2, 20)]);
    db.txn_commit(reader).unwrap();

    // Reader gone: the next commit collapses the remaining history too,
    // and latest state is what the churn left behind.
    db.execute("UPDATE t SET v = 0 WHERE k = 2").unwrap();
    assert!(db.txn_stats().versions_pruned > pruned, "post-reader GC should reclaim the rest");
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 199), (2, 0)]);
}

/// A statement that panics inside a transaction (a user-defined function
/// unwinding) must hand the transaction back: left checked out, it could
/// never be rolled back or reaped, and its snapshot would pin version chains
/// for the life of the process.
#[test]
fn a_panicking_statement_leaves_the_transaction_rollbackable() {
    let db = fresh_kv();
    db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
    db.register_scalar("boom", Arc::new(|_| panic!("boom() always panics"))).unwrap();

    let id = db.txn_begin();
    db.txn_execute(id, "UPDATE t SET v = 11 WHERE k = 1").unwrap();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.txn_execute(id, "SELECT boom() FROM t")
    }));
    assert!(unwound.is_err(), "boom() unwinds out of the statement");

    // What the statement did to the write-set is unknown: the transaction
    // can only be rolled back, and says so.
    let err = db.txn_execute(id, "SELECT k, v FROM t").unwrap_err();
    assert!(matches!(err, DbError::Conflict(_)), "got {err:?}");
    db.txn_rollback(id).expect("a transaction whose statement panicked rolls back");
    assert!(!db.txn_is_active(id));
    let stats = db.txn_stats();
    assert_eq!(stats.begun, stats.committed + stats.aborted);
    assert_eq!(stats.conflicts, 0, "a panic is not a serialization conflict");

    // No snapshot is left pinned: churn records no versions to prune, where
    // a wedged snapshot would have every UPDATE push (and GC prune) one.
    for i in 0..50 {
        db.execute(&format!("UPDATE t SET v = {i} WHERE k = 1")).unwrap();
    }
    assert_eq!(db.txn_stats().versions_pruned, stats.versions_pruned);
    assert_eq!(ints(&db, "SELECT k, v FROM t"), vec![(1, 49)]);
}

// -- index on == index off -------------------------------------------------

/// One step of a visibility shape, run after the transaction has begun.
#[derive(Clone, Copy)]
enum Step {
    /// A statement inside the transaction under test.
    Own(&'static str),
    /// An auto-committed statement from another session.
    Other(&'static str),
}
use Step::{Other, Own};

/// How the indexed column of a variant is indexed.
const INDEXES: [Option<&str>; 3] =
    [None, Some("CREATE INDEX ON t (k)"), Some("CREATE UNIQUE INDEX ON t (k)")];

/// Keys 1..=20 without 5 (so a shape can insert it), `v = 10 * k`.
fn shape_db(index: Option<&str>) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    if let Some(ddl) = index {
        db.execute(ddl).unwrap();
    }
    for k in (1..=20).filter(|k| *k != 5) {
        db.execute(&format!("INSERT INTO t VALUES ({k}, {})", 10 * k)).unwrap();
    }
    db
}

/// A statement's comparable outcome: sorted rows, the affected count, or
/// the *kind* of error.
fn outcome(res: Result<unidb::ResultSet, DbError>) -> String {
    match res {
        Ok(rs) if rs.columns.is_empty() => format!("affected {}", rs.affected),
        Ok(rs) => {
            let mut rows: Vec<String> = rs.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort_unstable();
            format!("rows {rows:?}")
        }
        Err(e) => error_kind(&e),
    }
}

fn error_kind(e: &DbError) -> String {
    match e {
        DbError::Conflict(_) => "conflict".into(),
        DbError::Constraint(_) => "constraint".into(),
        other => format!("error {other}"),
    }
}

/// Run `shape` then `probes` inside one transaction, commit, and return
/// everything observable: each own step's and probe's outcome, the
/// transaction's view after the probes, the commit result and the final
/// table.
fn run_shape(db: &Database, shape: &[Step], probes: &[&str]) -> Vec<String> {
    let mut log = Vec::new();
    let id = db.txn_begin();
    for step in shape {
        match *step {
            Own(sql) => log.push(format!("{sql} -> {}", outcome(db.txn_execute(id, sql)))),
            Other(sql) => {
                db.execute(sql).unwrap();
            }
        }
    }
    for sql in probes {
        log.push(format!("{sql} -> {}", outcome(db.txn_execute(id, sql))));
    }
    log.push(format!("view -> {}", outcome(db.txn_execute(id, "SELECT k, v FROM t"))));
    let committed = db.txn_commit(id);
    log.push(format!("commit -> {}", committed.map_or_else(|e| error_kind(&e), |()| "ok".into())));
    log.push(format!("final -> {}", outcome(db.execute("SELECT k, v FROM t"))));
    log
}

/// Point and range SELECT, UPDATE and DELETE return the same rows,
/// `affected` counts, conflicts and final contents whether `k` carries no
/// index, a B-tree or a unique B-tree — under every way a row can differ
/// between the snapshot, the latest heap and the write-set. The indexed runs are checked (via EXPLAIN inside
/// the transaction, after the shape dirtied the table) to have really
/// planned the index.
#[test]
fn index_on_equals_index_off_under_every_visibility_shape() {
    let shapes: &[(&str, &[Step])] = &[
        ("clean", &[]),
        ("updated by another session", &[Other("UPDATE t SET v = 999 WHERE k = 4")]),
        ("deleted by another session", &[Other("DELETE FROM t WHERE k = 4")]),
        ("inserted by another session", &[Other("INSERT INTO t VALUES (5, 555)")]),
        ("key moved out of range", &[Other("UPDATE t SET k = 50 WHERE k = 4")]),
        ("key moved into range", &[Other("UPDATE t SET k = 5 WHERE k = 10")]),
        (
            "slot recycled",
            &[Other("DELETE FROM t WHERE k = 4"), Other("INSERT INTO t VALUES (4, 444)")],
        ),
        ("own update", &[Own("UPDATE t SET v = 41 WHERE k = 4")]),
        ("own insert", &[Own("INSERT INTO t VALUES (5, 55)")]),
        ("own delete", &[Own("DELETE FROM t WHERE k = 4")]),
        (
            "second update of the same key",
            &[Own("UPDATE t SET v = 41 WHERE k = 4"), Own("UPDATE t SET v = 42 WHERE k = 4")],
        ),
        ("own key move", &[Own("UPDATE t SET k = 5 WHERE k = 4")]),
        (
            "own update, then committed over",
            &[Own("UPDATE t SET v = 41 WHERE k = 4"), Other("UPDATE t SET v = 999 WHERE k = 4")],
        ),
        (
            "own delete, then committed over",
            &[Own("DELETE FROM t WHERE k = 4"), Other("UPDATE t SET v = 999 WHERE k = 4")],
        ),
        (
            "own write on a table another session keeps dirtying",
            &[Own("UPDATE t SET v = 41 WHERE k = 4"), Other("UPDATE t SET v = 7 WHERE k = 18")],
        ),
    ];
    let probe_sets: &[&[&str]] = &[
        &[
            "SELECT k, v FROM t WHERE k = 4",
            "SELECT k, v FROM t WHERE k = 5",
            "SELECT k, v FROM t WHERE k BETWEEN 3 AND 6",
            "SELECT k, v FROM t WHERE k BETWEEN 3 AND 6 AND v > 40",
        ],
        &["UPDATE t SET v = v + 1 WHERE k = 4"],
        &["UPDATE t SET v = v + 1 WHERE k = 5"],
        &["UPDATE t SET v = v + 1 WHERE k BETWEEN 3 AND 6"],
        &["UPDATE t SET k = k + 100 WHERE k BETWEEN 3 AND 6"],
        &["DELETE FROM t WHERE k = 4"],
        &["DELETE FROM t WHERE k BETWEEN 3 AND 6"],
        &["DELETE FROM t WHERE k BETWEEN 3 AND 6 AND v > 40"],
    ];
    for (name, shape) in shapes {
        for probes in probe_sets {
            let reference = run_shape(&shape_db(None), shape, probes);
            for index in INDEXES {
                let got = run_shape(&shape_db(index), shape, probes);
                assert_eq!(got, reference, "shape {name:?}, probes {probes:?}, index {index:?}");
            }
        }
    }
}

/// The equivalence above compares real access paths: inside a transaction
/// on a table another session dirtied, and on one the transaction itself
/// wrote, EXPLAIN shows the B-tree for SELECT, UPDATE and DELETE when there
/// is one and the sequential scan when there is not.
#[test]
fn explain_shows_the_index_on_a_dirty_table() {
    for index in INDEXES {
        let db = shape_db(index);
        let id = db.txn_begin();
        db.execute("UPDATE t SET v = 999 WHERE k = 4").unwrap();
        db.txn_execute(id, "UPDATE t SET v = 1 WHERE k = 7").unwrap();
        for (sql, indexed) in [
            ("SELECT k, v FROM t WHERE k = 4", "IndexEqScan"),
            ("UPDATE t SET v = 0 WHERE k = 4", "IndexEqScan"),
            ("DELETE FROM t WHERE k = 4", "IndexEqScan"),
            ("SELECT k, v FROM t WHERE k BETWEEN 3 AND 6", "IndexRangeScan"),
            ("UPDATE t SET v = 0 WHERE k BETWEEN 3 AND 6", "IndexRangeScan"),
            ("DELETE FROM t WHERE k BETWEEN 3 AND 6", "IndexRangeScan"),
        ] {
            let plan = db.txn_execute(id, &format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            let expected = if index.is_some() { indexed } else { "SeqScan" };
            assert!(plan.contains(expected), "{sql} with {index:?} planned as:\n{plan}");
        }
        db.txn_rollback(id).unwrap();
    }
}

/// Commit applies a multi-row DELETE in one fixed order: two databases given
/// the same statements log byte-identical WALs, and a snapshot taken before
/// the delete — which reads the deleted rows as prior images, after the
/// heap — returns its SeqScan rows in the same order on both.
#[test]
fn a_multi_row_delete_applies_in_the_same_order_on_twins() {
    let m = unidb::Role::Maintainer;
    let (mut wals, mut racing) = (Vec::new(), Vec::new());
    for twin in 0..2 {
        let dir =
            std::env::temp_dir().join(format!("unidb-delete-order-{}-{twin}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.recover().unwrap();
            db.execute_as("CREATE TABLE t (k INT, v TEXT)", &m).unwrap();
            let values: Vec<String> = (0..400).map(|k| format!("({k}, 'v{k}')")).collect();
            db.execute_as(&format!("INSERT INTO t VALUES {}", values.join(", ")), &m).unwrap();
            let reader = db.txn_begin();
            db.txn_execute(reader, "SELECT count(*) FROM t").unwrap();
            db.execute_as("DELETE FROM t WHERE k % 3 = 0 OR k > 350", &m).unwrap();
            let plan = db.txn_execute(reader, "EXPLAIN SELECT k, v FROM t").unwrap().explain;
            assert!(plan.unwrap().contains("SeqScan"));
            racing.push(db.txn_execute(reader, "SELECT k, v FROM t").unwrap().rows);
            db.txn_commit(reader).unwrap();
        }
        wals.push(std::fs::read(dir.join("wal.db")).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(racing[0].len(), 400, "the snapshot still sees every row");
    assert_eq!(racing[0], racing[1], "prior images in another order");
    assert!(wals[0] == wals[1], "the twins logged different bytes");
}
