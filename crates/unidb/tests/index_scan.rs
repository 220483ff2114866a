//! One index scan serves B-tree equality, B-tree ranges and domain-index
//! calls: each renders the EXPLAIN line and the literal-elided shape it
//! always has, on a clean table and on one the reading transaction sees
//! dirty, and a range probe absorbs every other range on its column.

use std::hash::{Hash, Hasher};
use unidb::fxhash::FxHasher;
use unidb::{Database, Datum};

mod parity;
use parity::register_parity;

/// `t(k, v)` with a B-tree on `k` and a `parity` domain index on `v`.
fn indexed() -> Database {
    let db = Database::in_memory();
    register_parity(&db);
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    let rows: Vec<String> = (0..200).map(|k| format!("({k}, {})", k % 7)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
    db.execute("CREATE INDEX ON t (k)").unwrap();
    db.execute("CREATE INDEX ON t USING parity (v)").unwrap();
    db
}

/// One statement per probe kind: its full EXPLAIN text and its shape.
const PINNED: [(&str, &str, &str); 3] = [
    (
        "SELECT k, v FROM t WHERE k = 4 AND v > 1",
        "Project [k, v]\n  IndexEqScan user.t.k = 4 filter=(v > 1)\n",
        "Project [k, v]\n  IndexEqScan user.t.k = ? filter=(v > ?)\n",
    ),
    (
        "SELECT v FROM t WHERE k BETWEEN 3 AND 60 AND v <> 2",
        "Project [v]\n  IndexRangeScan user.t.k filter=(v <> 2)\n",
        "Project [v]\n  IndexRangeScan user.t.k filter=(v <> ?)\n",
    ),
    (
        "SELECT k FROM t WHERE same_parity(v, 2)",
        "Project [k]\n  UdiScan user.t.v via same_parity() recheck=same_parity(v, 2)\n",
        "Project [k]\n  UdiScan user.t.v via same_parity() recheck=same_parity(v, ?)\n",
    ),
];

fn shape_hash(shape: &str) -> u64 {
    let mut h = FxHasher::default();
    shape.hash(&mut h);
    h.finish()
}

#[test]
fn each_probe_kind_explains_as_pinned_on_clean_and_dirty_tables() {
    let db = indexed();
    for (sql, explain, shape) in PINNED {
        let text = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
        assert_eq!(text, explain, "{sql}");
        let prepared = db.prepare(sql).unwrap();
        assert_eq!(prepared.plan_hash(), shape_hash(shape), "{sql}:\n{shape}");
        assert_eq!(prepared.access_label(), shape.lines().last().unwrap().trim_start());
    }

    // Dirty for the reader twice over: a commit after its snapshot and its
    // own buffered write.
    let reader = db.txn_begin();
    db.txn_execute(reader, "SELECT count(*) FROM t").unwrap();
    db.execute("UPDATE t SET v = v + 1 WHERE k = 5").unwrap();
    db.txn_execute(reader, "UPDATE t SET v = 0 WHERE k = 6").unwrap();
    for (sql, explain, _) in PINNED {
        let text = db.txn_execute(reader, &format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
        assert_eq!(text, explain, "{sql} on a dirty table");
    }
    db.txn_rollback(reader).unwrap();
}

fn ints(db: &Database, sql: &str) -> Vec<i64> {
    let rows = db.execute(sql).unwrap().rows;
    rows.iter().map(|r| r[0].as_int().unwrap()).collect()
}

/// `k >= 50 AND k < 70` probes `[50, 70)` with no residual: the probe
/// fetches the 20 rows it keeps, not every row under one bound.
#[test]
fn two_ranges_on_one_column_make_one_probe() {
    let db = indexed();
    let sql = "SELECT count(*) FROM t WHERE k >= 50 AND k < 70";
    let text = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
    assert!(text.contains("IndexRangeScan user.t.k\n"), "{text}");
    assert!(!text.contains("filter="), "{text}");
    let (rs, stats) = db.explain_analyze(sql).unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(20));
    let mut scan = &stats;
    while !scan.label.starts_with("IndexRangeScan") {
        scan = &scan.children[0];
    }
    assert_eq!(scan.rows_out, 20, "{}", stats.render_counters());

    // A bound on another column stays behind as the residual, and an
    // empty intersection reads nothing.
    assert_eq!(ints(&db, "SELECT k FROM t WHERE k > 10 AND v = 3 AND k <= 24"), vec![17, 24]);
    assert_eq!(ints(&db, "SELECT count(*) FROM t WHERE k > 60 AND k < 50"), vec![0]);
    assert_eq!(ints(&db, "SELECT count(*) FROM t WHERE k >= 60 AND k < 60"), vec![0]);
    assert_eq!(ints(&db, "SELECT k FROM t WHERE k >= 60 AND 60 >= k"), vec![60]);
}

/// Every pair of range conjuncts on the indexed column — either operand
/// order, BETWEEN, equal bounds of mixed inclusivity, NULL literals —
/// returns what the unindexed twin returns.
#[test]
fn merged_ranges_answer_as_the_scan_does() {
    let twins: Vec<Database> = [false, true]
        .into_iter()
        .map(|indexed| {
            let db = Database::in_memory();
            db.execute("CREATE TABLE t (k INT)").unwrap();
            let rows: Vec<String> = (0..200).map(|k| format!("({k})")).collect();
            db.execute(&format!("INSERT INTO t VALUES {}, (NULL), (NULL)", rows.join(", ")))
                .unwrap();
            if indexed {
                db.execute("CREATE INDEX ON t (k)").unwrap();
            }
            db
        })
        .collect();
    let forms =
        ["k < {}", "k <= {}", "k > {}", "k >= {}", "{} < k", "{} >= k", "k BETWEEN {} AND 190"];
    let (mut probed, mut merged) = (0, 0);
    for a in ["180", "185", "NULL"] {
        for b in ["180", "185", "NULL"] {
            for fa in forms {
                for fb in forms {
                    let sql = format!(
                        "SELECT k FROM t WHERE {} AND {} ORDER BY k",
                        fa.replace("{}", a),
                        fb.replace("{}", b)
                    );
                    let plain = twins[0].execute(&sql).unwrap().rows;
                    assert_eq!(twins[1].execute(&sql).unwrap().rows, plain, "{sql}");
                    let plan = twins[1].execute(&format!("EXPLAIN {sql}")).unwrap().explain;
                    let plan = plan.unwrap();
                    probed += usize::from(plan.contains("IndexRangeScan"));
                    merged += usize::from(plan.contains("IndexRangeScan user.t.k\n"));
                }
            }
        }
    }
    assert!(probed > 100 && merged > 50, "{probed} probed, {merged} merged");
}
