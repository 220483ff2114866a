//! Regression tests for the shared-read locking model: concurrent readers,
//! recovery of secondary + domain indexes, and prepared-statement
//! generation tracking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unidb::catalog::Role;
use unidb::{Database, Datum, DbError};

mod parity;
use parity::register_parity;

#[test]
fn concurrent_readers_and_a_writer_stay_consistent() {
    let db = Arc::new(Database::in_memory());
    db.execute_script_as(
        "CREATE TABLE public.log (id INT, tag TEXT);
         INSERT INTO public.log VALUES (0, 'seed');",
        &Role::Maintainer,
    )
    .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..6)
        .map(|_| {
            let db = Arc::clone(&db);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last = 0i64;
                let mut observations = 0u64;
                // Query-then-check so every reader observes at least once
                // even if the writer finishes before this thread starts.
                loop {
                    let rs = db.execute("SELECT count(*) FROM public.log").unwrap();
                    let n = rs.rows[0][0].as_int().unwrap();
                    // Rows are only ever inserted, so observed counts must
                    // be nondecreasing per reader.
                    assert!(n >= last, "count went backwards: {n} < {last}");
                    last = n;
                    observations += 1;
                    if done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                observations
            })
        })
        .collect();

    for i in 1..=100i64 {
        db.execute_as(&format!("INSERT INTO public.log VALUES ({i}, 'w')"), &Role::Maintainer)
            .unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0, "reader never got a query through");
    }
    let rs = db.execute("SELECT count(*) FROM public.log").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(101));
}

#[test]
fn wal_replay_restores_secondary_and_domain_indexes() {
    let dir = std::env::temp_dir().join(format!("unidb-idx-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Extensions are code, not data: the index kind is registered before
    // every recovery, and the index itself comes back from the log.
    let open = || {
        let db = Database::open(&dir).unwrap();
        register_parity(&db);
        db.recover().map(|()| db)
    };
    {
        let db = open().unwrap();
        db.execute_script_as(
            "CREATE TABLE t (id INT, name TEXT);
             CREATE UNIQUE INDEX ON t (id);
             INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), (4, 'four');
             CREATE INDEX ON t USING parity (id);
             DELETE FROM t WHERE id = 3;",
            &Role::Maintainer,
        )
        .unwrap();
    }
    // From the WAL alone, then from a snapshot plus a WAL tail.
    for round in 0..2 {
        let db = open().unwrap();
        // Secondary index: the planner uses it and its *content* is intact —
        // the unique constraint still sees replayed keys...
        let plan = db.execute("EXPLAIN SELECT name FROM t WHERE id = 2").unwrap();
        assert!(plan.explain.unwrap().contains("IndexEqScan"));
        let err = db.execute_as("INSERT INTO t VALUES (2, 'dup')", &Role::Maintainer).unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "got {err:?}");

        // Domain index: drives the plan and returns exactly the right rows.
        let plan = db.execute("EXPLAIN SELECT name FROM t WHERE same_parity(id, 2)").unwrap();
        assert!(plan.explain.unwrap().contains("UdiScan"), "round {round}");
        let rs = db.execute("SELECT name FROM t WHERE same_parity(id, 2) ORDER BY id").unwrap();
        let names: Vec<_> = rs.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect();
        assert_eq!(names, vec!["two", "four"], "round {round}");
        if round == 0 {
            db.checkpoint().unwrap();
            // The deleted key was removed from the index on replay; the
            // reinsert is the WAL tail the next round replays.
            db.execute_as("INSERT INTO t VALUES (3, 'resurrected')", &Role::Maintainer).unwrap();
            db.execute_as("DELETE FROM t WHERE id = 3", &Role::Maintainer).unwrap();
        }
    }
    // A kind nobody registered is an error that names it.
    let db = Database::open(&dir).unwrap();
    let err = db.recover().unwrap_err().to_string();
    assert!(err.contains("index kind") && err.contains("parity"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prepared_statements_track_generations() {
    let db = Database::in_memory();
    db.execute_script_as(
        "CREATE TABLE public.t (id INT, v INT);
         INSERT INTO public.t VALUES (1, 10), (2, 20);",
        &Role::Maintainer,
    )
    .unwrap();

    let prepared = db.prepare("SELECT v FROM public.t WHERE id = 1").unwrap();
    assert_eq!(prepared.columns(), ["v"]);
    assert_eq!(prepared.table_ids().len(), 1);

    // Repeated execution without re-planning.
    for _ in 0..3 {
        let rs = db.execute_prepared(&prepared).unwrap();
        assert_eq!(rs.rows, vec![vec![Datum::Int(10)]]);
    }

    // DML bumps the table version but the plan stays valid.
    let before = db.table_versions(prepared.table_ids());
    db.execute_as("UPDATE public.t SET v = 11 WHERE id = 1", &Role::Maintainer).unwrap();
    let after = db.table_versions(prepared.table_ids());
    assert!(after[0] > before[0], "DML must bump the table generation");
    let rs = db.execute_prepared(&prepared).unwrap();
    assert_eq!(rs.rows, vec![vec![Datum::Int(11)]]);

    // DDL moves the catalog generation and invalidates the plan.
    let gen_before = db.catalog_generation();
    db.execute_as("CREATE TABLE public.other (x INT)", &Role::Maintainer).unwrap();
    assert!(db.catalog_generation() > gen_before);
    let err = db.execute_prepared(&prepared).unwrap_err();
    assert!(matches!(err, DbError::Stale(_)), "got {err:?}");

    // Re-preparing picks up the new catalog and works again.
    let reprepared = db.prepare("SELECT v FROM public.t WHERE id = 1").unwrap();
    let rs = db.execute_prepared(&reprepared).unwrap();
    assert_eq!(rs.rows, vec![vec![Datum::Int(11)]]);

    // Only SELECT can be prepared.
    let err = db.prepare("INSERT INTO public.t VALUES (9, 9)").unwrap_err();
    assert!(matches!(err, DbError::Unsupported(_)), "got {err:?}");
}
