//! End-to-end engine tests: SQL in, rows out.

use std::sync::Arc;
use unidb::catalog::Role;
use unidb::{Database, Datum, DbError};

mod parity;
use parity::register_parity;

fn db() -> Database {
    Database::in_memory()
}

fn ints(rs: &unidb::ResultSet) -> Vec<i64> {
    rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect()
}

fn texts(rs: &unidb::ResultSet) -> Vec<String> {
    rs.rows.iter().map(|r| r[0].as_text().unwrap().to_string()).collect()
}

fn seeded() -> Database {
    let d = db();
    d.execute_script(
        "CREATE TABLE genes (id INT NOT NULL, symbol TEXT, len INT, gc FLOAT);
         INSERT INTO genes VALUES
            (1, 'tp53', 1200, 0.46),
            (2, 'brca1', 5600, 0.41),
            (3, 'kras', 900, 0.38),
            (4, 'egfr', 2800, 0.51),
            (5, 'myc', 700, 0.55);",
    )
    .unwrap();
    d
}

#[test]
fn basic_crud_cycle() {
    let d = seeded();
    let rs = d.execute("SELECT symbol FROM genes WHERE id = 3").unwrap();
    assert_eq!(texts(&rs), vec!["kras"]);

    let rs = d.execute("UPDATE genes SET len = len + 100 WHERE symbol = 'myc'").unwrap();
    assert_eq!(rs.affected, 1);
    let rs = d.execute("SELECT len FROM genes WHERE symbol = 'myc'").unwrap();
    assert_eq!(ints(&rs), vec![800]);

    let rs = d.execute("DELETE FROM genes WHERE len < 1000").unwrap();
    assert_eq!(rs.affected, 2);
    let rs = d.execute("SELECT count(*) FROM genes").unwrap();
    assert_eq!(ints(&rs), vec![3]);
}

#[test]
fn ordering_limits_distinct() {
    let d = seeded();
    let rs = d.execute("SELECT symbol FROM genes ORDER BY len DESC LIMIT 2").unwrap();
    assert_eq!(texts(&rs), vec!["brca1", "egfr"]);

    d.execute("INSERT INTO genes VALUES (6, 'tp53', 999, 0.4)").unwrap();
    let rs = d.execute("SELECT DISTINCT symbol FROM genes ORDER BY symbol").unwrap();
    assert_eq!(rs.len(), 5);
}

#[test]
fn aggregation_group_having() {
    let d = db();
    d.execute_script(
        "CREATE TABLE obs (organism TEXT, reading FLOAT);
         INSERT INTO obs VALUES
           ('ecoli', 1.0), ('ecoli', 3.0), ('yeast', 10.0),
           ('yeast', 20.0), ('yeast', 30.0), ('human', 5.0);",
    )
    .unwrap();
    let rs = d
        .execute(
            "SELECT organism, count(*) AS n, avg(reading) AS mean \
             FROM obs GROUP BY organism HAVING count(*) >= 2 ORDER BY n DESC",
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["organism", "n", "mean"]);
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0], Datum::Text("yeast".into()));
    assert_eq!(rs.rows[0][2], Datum::Float(20.0));
    assert_eq!(rs.rows[1][2], Datum::Float(2.0));

    // Global aggregate over empty input yields one row.
    let rs = d.execute("SELECT count(*), sum(reading) FROM obs WHERE reading > 99").unwrap();
    assert_eq!(rs.rows, vec![vec![Datum::Int(0), Datum::Null]]);

    // min/max/sum with DISTINCT.
    let rs =
        d.execute("SELECT min(reading), max(reading), count(DISTINCT organism) FROM obs").unwrap();
    assert_eq!(rs.rows[0], vec![Datum::Float(1.0), Datum::Float(30.0), Datum::Int(3)]);
}

#[test]
fn group_by_strictness() {
    let d = seeded();
    let err = d.execute("SELECT symbol, count(*) FROM genes GROUP BY len").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "{err}");
}

#[test]
fn joins_inner_left_cross() {
    let d = db();
    d.execute_script(
        "CREATE TABLE g (id INT, name TEXT);
         CREATE TABLE p (gene_id INT, protein TEXT);
         INSERT INTO g VALUES (1, 'tp53'), (2, 'brca1'), (3, 'orphan');
         INSERT INTO p VALUES (1, 'P04637'), (2, 'P38398'), (2, 'ISOFORM2'), (9, 'dangling');",
    )
    .unwrap();

    let rs = d
        .execute(
            "SELECT g.name, p.protein FROM g INNER JOIN p ON g.id = p.gene_id ORDER BY p.protein",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);

    let rs = d
        .execute(
            "SELECT g.name, p.protein FROM g LEFT JOIN p ON g.id = p.gene_id \
             WHERE p.protein IS NULL",
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Datum::Text("orphan".into()));

    let rs = d.execute("SELECT count(*) FROM g CROSS JOIN p").unwrap();
    assert_eq!(ints(&rs), vec![12]);

    // Comma join is a cross join.
    let rs = d.execute("SELECT count(*) FROM g, p WHERE g.id = p.gene_id").unwrap();
    assert_eq!(ints(&rs), vec![3]);
}

#[test]
fn hash_join_is_planned_for_equi_joins() {
    let d = db();
    d.execute_script(
        "CREATE TABLE a (x INT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (1); INSERT INTO b VALUES (1);",
    )
    .unwrap();
    let rs = d.execute("EXPLAIN SELECT * FROM a JOIN b ON a.x = b.y").unwrap();
    let plan = rs.explain.unwrap();
    assert!(plan.contains("HashJoin"), "{plan}");

    let rs = d.execute("EXPLAIN SELECT * FROM a JOIN b ON a.x < b.y").unwrap();
    let plan = rs.explain.unwrap();
    assert!(plan.contains("NestedLoopJoin"), "{plan}");
}

/// NULL join keys never match — `NULL = NULL` is UNKNOWN under
/// three-valued logic, so the hash table must not treat NULL as an
/// ordinary key value on either side.
#[test]
fn hash_join_null_keys_never_match() {
    let d = db();
    d.execute_script(
        "CREATE TABLE l (k INT, tag TEXT);
         CREATE TABLE r (k INT, val TEXT);
         INSERT INTO l VALUES (1, 'a'), (NULL, 'b'), (2, 'c'), (NULL, 'd');
         INSERT INTO r VALUES (1, 'x'), (NULL, 'y'), (3, 'z');",
    )
    .unwrap();
    // INNER: the two NULL keys on the left must not pair with the NULL
    // key on the right.
    let rs = d.execute("SELECT l.tag, r.val FROM l JOIN r ON l.k = r.k").unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Datum::Text("a".into()));
    // LEFT: NULL-keyed left rows survive NULL-padded instead of matching
    // the right side's NULL key.
    let rs =
        d.execute("SELECT l.tag, r.val FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.tag").unwrap();
    assert_eq!(rs.len(), 4);
    let padded: Vec<String> = rs
        .rows
        .iter()
        .filter(|row| row[1] == Datum::Null)
        .map(|row| row[0].as_text().unwrap().to_string())
        .collect();
    assert_eq!(padded, vec!["b", "c", "d"]);
}

/// The planner's stats-driven build-side choice is a physical detail: it
/// must never leak into output column order or LEFT-join semantics.
#[test]
fn build_side_choice_follows_stats_and_preserves_output() {
    let d = db();
    d.execute_script("CREATE TABLE big (k INT, n INT); CREATE TABLE small (k INT, tag TEXT);")
        .unwrap();
    d.execute("INSERT INTO small VALUES (0, 'z'), (1, 'o'), (2, 't')").unwrap();
    let mut batch = String::from("INSERT INTO big VALUES ");
    for i in 0..200 {
        if i > 0 {
            batch.push(',');
        }
        batch.push_str(&format!("({}, {i})", i % 3));
    }
    d.execute(&batch).unwrap();

    // The smaller input builds, whichever side of the JOIN it sits on.
    let plan = d
        .execute("EXPLAIN SELECT * FROM small JOIN big ON small.k = big.k")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("build=left"), "small left side should build:\n{plan}");
    let plan = d
        .execute("EXPLAIN SELECT * FROM big JOIN small ON big.k = small.k")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("build=right"), "small right side should build:\n{plan}");

    // LEFT join must keep building the preserved (right) side even though
    // the left input is far smaller.
    let plan = d
        .execute("EXPLAIN SELECT * FROM small LEFT JOIN big ON small.k = big.k")
        .unwrap()
        .explain
        .unwrap();
    assert!(
        plan.contains("HashJoin Left") && plan.contains("build=right"),
        "LEFT join pins the build side:\n{plan}"
    );

    // Output schema and rows stay in declared left-then-right order even
    // when the build side is the left input.
    let rs = d.execute("SELECT * FROM small JOIN big ON small.k = big.k WHERE big.n = 7 ").unwrap();
    assert_eq!(rs.columns, vec!["k", "tag", "k", "n"]);
    assert_eq!(
        rs.rows,
        vec![vec![Datum::Int(1), Datum::Text("o".into()), Datum::Int(1), Datum::Int(7),]]
    );
    // Same query spelled with the big table first: same data, swapped
    // column order, and counts agree with the NDV estimate (200/3 rows
    // share each key).
    let rs = d.execute("SELECT count(*) FROM big JOIN small ON big.k = small.k").unwrap();
    assert_eq!(ints(&rs), vec![200]);
}

#[test]
fn btree_index_planning_and_results_match_scan() {
    let d = seeded();
    for i in 6..2000 {
        d.execute(&format!("INSERT INTO genes VALUES ({i}, 'g{i}', {}, 0.5)", i * 3)).unwrap();
    }
    let scan = d.execute("SELECT symbol FROM genes WHERE id = 1500").unwrap();
    d.execute("CREATE UNIQUE INDEX ON genes (id)").unwrap();
    let plan =
        d.execute("EXPLAIN SELECT symbol FROM genes WHERE id = 1500").unwrap().explain.unwrap();
    assert!(plan.contains("IndexEqScan"), "{plan}");
    let indexed = d.execute("SELECT symbol FROM genes WHERE id = 1500").unwrap();
    assert_eq!(scan.rows, indexed.rows);

    // Range scans use the index too.
    let plan = d
        .execute("EXPLAIN SELECT count(*) FROM genes WHERE id BETWEEN 10 AND 20")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("IndexRangeScan"), "{plan}");
    let rs = d.execute("SELECT count(*) FROM genes WHERE id BETWEEN 10 AND 20").unwrap();
    assert_eq!(ints(&rs), vec![11]);

    let rs = d.execute("SELECT count(*) FROM genes WHERE id < 10").unwrap();
    assert_eq!(ints(&rs), vec![9]);
    let rs = d.execute("SELECT count(*) FROM genes WHERE 1990 <= id").unwrap();
    assert_eq!(ints(&rs), vec![10]);
}

/// Found by qdiff (seed 4, shrunk): NULL keys sort first in the B-tree, so
/// an index range scan with an open low end (`col <= k`, `col < k`) used to
/// sweep them in — but `NULL <= k` is never true under three-valued logic.
/// NULL literals in the predicate are the dual trap: `col = NULL` and
/// `col BETWEEN NULL AND k` match nothing, yet an index probe keyed on NULL
/// would find the NULL entries.
#[test]
fn index_range_scan_excludes_null_keys() {
    let d = db();
    d.execute("CREATE TABLE t (v INT)").unwrap();
    d.execute("CREATE INDEX ON t (v)").unwrap();
    d.execute("INSERT INTO t VALUES (NULL), (3), (NULL), (8), (12)").unwrap();

    let plan = d.execute("EXPLAIN SELECT count(*) FROM t WHERE v <= 8").unwrap().explain.unwrap();
    assert!(plan.contains("IndexRangeScan"), "{plan}");
    let rs = d.execute("SELECT count(*) FROM t WHERE v <= 8").unwrap();
    assert_eq!(ints(&rs), vec![2]);
    let rs = d.execute("SELECT count(*) FROM t WHERE v < 9").unwrap();
    assert_eq!(ints(&rs), vec![2]);
    // The closed-low-end direction never included NULLs; keep it pinned.
    let rs = d.execute("SELECT count(*) FROM t WHERE v >= 3").unwrap();
    assert_eq!(ints(&rs), vec![3]);

    // NULL literals: unsatisfiable predicates must yield nothing even with
    // an index available.
    let rs = d.execute("SELECT count(*) FROM t WHERE v = NULL").unwrap();
    assert_eq!(ints(&rs), vec![0]);
    let rs = d.execute("SELECT count(*) FROM t WHERE v BETWEEN NULL AND 8").unwrap();
    assert_eq!(ints(&rs), vec![0]);
    let rs = d.execute("SELECT count(*) FROM t WHERE v <= NULL").unwrap();
    assert_eq!(ints(&rs), vec![0]);
}

#[test]
fn unique_index_enforced() {
    let d = seeded();
    d.execute("CREATE UNIQUE INDEX ON genes (id)").unwrap();
    let err = d.execute("INSERT INTO genes VALUES (3, 'dup', 1, 0.1)").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    // The failed insert left nothing behind.
    let rs = d.execute("SELECT count(*) FROM genes").unwrap();
    assert_eq!(ints(&rs), vec![5]);
    // Updates respect it too.
    let err = d.execute("UPDATE genes SET id = 1 WHERE id = 2").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
}

#[test]
fn not_null_and_type_checking() {
    let d = seeded();
    let err = d.execute("INSERT INTO genes VALUES (NULL, 'x', 1, 0.1)").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)));
    let err = d.execute("INSERT INTO genes VALUES ('oops', 'x', 1, 0.1)").unwrap_err();
    assert!(matches!(err, DbError::TypeMismatch(_)));
    // INT literals widen into FLOAT columns.
    d.execute("INSERT INTO genes (id, gc) VALUES (99, 1)").unwrap();
    let rs = d.execute("SELECT gc FROM genes WHERE id = 99").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Float(1.0));
    // Unmentioned columns become NULL.
    let rs = d.execute("SELECT symbol FROM genes WHERE id = 99").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Null);
}

#[test]
fn access_control_public_vs_user_space() {
    let d = db();
    let maintainer = Role::Maintainer;
    let alice = Role::User("alice".into());
    let bob = Role::User("bob".into());

    d.execute_as("CREATE TABLE warehouse (id INT)", &maintainer).unwrap();
    d.execute_as("INSERT INTO warehouse VALUES (1)", &maintainer).unwrap();

    // Alice can read public data but not write it.
    let rs = d.execute_as("SELECT * FROM warehouse", &alice).unwrap();
    assert_eq!(rs.len(), 1);
    let err = d.execute_as("INSERT INTO warehouse VALUES (2)", &alice).unwrap_err();
    assert!(matches!(err, DbError::AccessDenied(_)));
    let err = d.execute_as("DROP TABLE warehouse", &alice).unwrap_err();
    assert!(matches!(err, DbError::AccessDenied(_)));

    // Alice gets her own space implicitly.
    d.execute_as("CREATE TABLE notes (txt TEXT)", &alice).unwrap();
    d.execute_as("INSERT INTO notes VALUES ('mine')", &alice).unwrap();
    // Bob cannot write into alice's space.
    let err = d.execute_as("INSERT INTO alice.notes VALUES ('intruder')", &bob).unwrap_err();
    assert!(matches!(err, DbError::AccessDenied(_)));
    // But unqualified reads resolve to each user's own space first.
    let rs = d.execute_as("SELECT * FROM alice.notes", &bob).unwrap();
    assert_eq!(rs.len(), 1);
}

#[test]
fn transactions_commit_and_rollback() {
    let d = seeded();
    d.execute("BEGIN").unwrap();
    d.execute("INSERT INTO genes VALUES (100, 'tmp', 1, 0.1)").unwrap();
    d.execute("UPDATE genes SET symbol = 'changed' WHERE id = 1").unwrap();
    d.execute("DELETE FROM genes WHERE id = 2").unwrap();
    // Mid-transaction state is visible to the session.
    assert_eq!(ints(&d.execute("SELECT count(*) FROM genes").unwrap()), vec![5]);
    d.execute("ROLLBACK").unwrap();
    // All three mutations reverted.
    assert_eq!(ints(&d.execute("SELECT count(*) FROM genes").unwrap()), vec![5]);
    assert_eq!(texts(&d.execute("SELECT symbol FROM genes WHERE id = 1").unwrap()), vec!["tp53"]);
    assert_eq!(ints(&d.execute("SELECT count(*) FROM genes WHERE id = 2").unwrap()), vec![1]);

    d.execute("BEGIN").unwrap();
    d.execute("INSERT INTO genes VALUES (100, 'kept', 1, 0.1)").unwrap();
    d.execute("COMMIT").unwrap();
    assert_eq!(ints(&d.execute("SELECT count(*) FROM genes").unwrap()), vec![6]);

    assert!(d.execute("COMMIT").is_err());
    assert!(d.execute("ROLLBACK").is_err());
    d.execute("BEGIN").unwrap();
    assert!(d.execute("BEGIN").is_err());
    d.execute("ROLLBACK").unwrap();
}

#[test]
fn rollback_restores_index_consistency() {
    let d = seeded();
    d.execute("CREATE UNIQUE INDEX ON genes (id)").unwrap();
    d.execute("BEGIN").unwrap();
    d.execute("DELETE FROM genes WHERE id = 1").unwrap();
    d.execute("ROLLBACK").unwrap();
    // id 1 is findable through the index again.
    let plan = d.execute("EXPLAIN SELECT symbol FROM genes WHERE id = 1").unwrap();
    assert!(plan.explain.unwrap().contains("IndexEqScan"));
    assert_eq!(texts(&d.execute("SELECT symbol FROM genes WHERE id = 1").unwrap()), vec!["tp53"]);
    // And re-inserting it violates uniqueness (the index entry is back).
    assert!(d.execute("INSERT INTO genes VALUES (1, 'dup', 1, 0.1)").is_err());
}

#[test]
fn user_defined_scalar_functions_everywhere() {
    let d = seeded();
    d.register_scalar(
        "double_it",
        Arc::new(|args| {
            Ok(match args[0].as_int() {
                Some(i) => Datum::Int(i * 2),
                None => Datum::Null,
            })
        }),
    )
    .unwrap();
    // SELECT list.
    let rs = d.execute("SELECT double_it(len) FROM genes WHERE id = 1").unwrap();
    assert_eq!(ints(&rs), vec![2400]);
    // WHERE.
    let rs = d.execute("SELECT count(*) FROM genes WHERE double_it(len) > 5000").unwrap();
    assert_eq!(ints(&rs), vec![2]);
    // ORDER BY.
    let rs = d.execute("SELECT symbol FROM genes ORDER BY double_it(len) LIMIT 1").unwrap();
    assert_eq!(texts(&rs), vec!["myc"]);
    // GROUP BY.
    let rs = d
        .execute("SELECT double_it(id % 2), count(*) FROM genes GROUP BY double_it(id % 2) ORDER BY 1 DESC")
        .unwrap();
    assert_eq!(rs.len(), 2);
}

#[test]
fn user_defined_aggregate() {
    let d = seeded();
    struct Product(f64);
    impl unidb::expr::func::Accumulator for Product {
        fn update(&mut self, v: &Datum) -> Result<(), DbError> {
            if let Some(f) = v.as_float() {
                self.0 *= f;
            }
            Ok(())
        }
        fn finish(&self) -> Datum {
            Datum::Float(self.0)
        }
    }
    d.register_aggregate("product", Arc::new(|| Box::new(Product(1.0)))).unwrap();
    let rs = d.execute("SELECT product(gc) FROM genes WHERE id IN (1, 3)").unwrap();
    let v = rs.rows[0][0].as_float().unwrap();
    assert!((v - 0.46 * 0.38).abs() < 1e-9);
}

#[test]
fn opaque_types_store_and_render() {
    let d = db();
    let ty = d
        .register_opaque_type("dna", Some(Arc::new(|b: &[u8]| format!("<dna {} bytes>", b.len()))))
        .unwrap();
    d.execute("CREATE TABLE frags (id INT, seq dna)").unwrap();
    // Opaque values cannot come from SQL literals; they arrive through the
    // API (the adapter path) — simulate that here.
    d.register_scalar(
        "mk_payload",
        Arc::new(move |args| {
            let n = args[0].as_int().unwrap_or(0) as usize;
            Ok(Datum::opaque(1, vec![7u8; n]))
        }),
    )
    .unwrap();
    assert_eq!(ty, 1);
    d.execute("INSERT INTO frags VALUES (1, mk_payload(10))").unwrap();
    let rs = d.execute("SELECT id, seq FROM frags").unwrap();
    assert!(matches!(rs.rows[0][1], Datum::Opaque(1, _)));
    let rendered = d.render(&rs);
    assert!(rendered.contains("<dna 10 bytes>"), "{rendered}");
    // Type mismatch against a different opaque id is caught.
    d.register_opaque_type("protein", None).unwrap();
    d.register_scalar("mk_protein", Arc::new(|_| Ok(Datum::opaque(2, vec![])))).unwrap();
    assert!(d.execute("INSERT INTO frags VALUES (2, mk_protein(0))").is_err());
}

#[test]
fn user_defined_index_drives_the_plan() {
    let d = seeded();
    register_parity(&d);
    // Without the index: sequential scan.
    let plan = d
        .execute("EXPLAIN SELECT symbol FROM genes WHERE same_parity(id, 2)")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("SeqScan"), "{plan}");

    d.execute("CREATE INDEX ON genes USING parity (id)").unwrap();
    let plan = d
        .execute("EXPLAIN SELECT symbol FROM genes WHERE same_parity(id, 2)")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("UdiScan"), "{plan}");
    assert!(plan.contains("recheck"), "UDI scans must re-check the predicate: {plan}");

    let rs = d.execute("SELECT symbol FROM genes WHERE same_parity(id, 2) ORDER BY id").unwrap();
    assert_eq!(texts(&rs), vec!["brca1", "egfr"]);

    // Index stays correct through mutations.
    d.execute("DELETE FROM genes WHERE id = 2").unwrap();
    d.execute("INSERT INTO genes VALUES (6, 'new_even', 10, 0.5)").unwrap();
    let rs = d.execute("SELECT symbol FROM genes WHERE same_parity(id, 2) ORDER BY id").unwrap();
    assert_eq!(texts(&rs), vec!["egfr", "new_even"]);
}

/// An access method that expects to return most of the table loses to the
/// sequential scan, exactly as a B-tree path with such a histogram does.
#[test]
fn unselective_user_defined_index_loses_to_the_scan() {
    let d = seeded();
    register_parity(&d);
    d.execute("CREATE INDEX ON genes USING parity (id) WITH (selectivity = 0.4)").unwrap();
    let plan = d
        .execute("EXPLAIN SELECT symbol FROM genes WHERE same_parity(id, 2)")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("SeqScan") && !plan.contains("UdiScan"), "{plan}");
}

#[test]
fn durability_recovery_roundtrip() {
    let dir = std::env::temp_dir().join(format!("unidb-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let d = Database::open(&dir).unwrap();
        d.recover().unwrap();
        d.execute_script_as(
            "CREATE TABLE t (id INT, name TEXT);
             CREATE UNIQUE INDEX ON t (id);
             INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
             UPDATE t SET name = 'TWO' WHERE id = 2;
             DELETE FROM t WHERE id = 3;",
            &Role::Maintainer,
        )
        .unwrap();
    }
    // Reopen: WAL replay restores everything, including the index.
    {
        let d = Database::open(&dir).unwrap();
        d.recover().unwrap();
        let rs = d.execute("SELECT name FROM t ORDER BY id").unwrap();
        assert_eq!(texts(&rs), vec!["one", "TWO"]);
        let plan = d.execute("EXPLAIN SELECT name FROM t WHERE id = 1").unwrap();
        assert!(plan.explain.unwrap().contains("IndexEqScan"));
        // Checkpoint compacts, and the database still reopens correctly.
        d.checkpoint().unwrap();
        d.execute_as("INSERT INTO t VALUES (4, 'four')", &Role::Maintainer).unwrap();
    }
    {
        let d = Database::open(&dir).unwrap();
        d.recover().unwrap();
        let rs = d.execute("SELECT name FROM t ORDER BY id").unwrap();
        assert_eq!(texts(&rs), vec!["one", "TWO", "four"]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A log written before indexes had kinds holds `CreateIndex` as op 8:
/// table, column and the unique flag. Such a log, byte for byte, recovers
/// both indexes as B-trees — the unique one still rejecting a duplicate,
/// the other accepting one.
#[test]
fn create_index_records_of_old_logs_replay_as_btrees() {
    use unidb::storage::wal::{crc32, WalRecord};
    let dir = std::env::temp_dir().join(format!("unidb-old-index-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let old_create_index = |column: &str, unique: bool| {
        let mut bytes = vec![8, 8];
        bytes.extend_from_slice(b"public.t");
        bytes.push(column.len() as u8);
        bytes.extend_from_slice(column.as_bytes());
        bytes.push(u8::from(unique));
        bytes
    };
    let mut payloads = vec![WalRecord::CreateTable {
        space: "public".into(),
        name: "t".into(),
        columns: vec![
            ("id".into(), unidb::DataType::Int, true),
            ("v".into(), unidb::DataType::Int, true),
        ],
    }
    .encode()];
    for i in 0..3 {
        let row = vec![Datum::Int(i), Datum::Int(i % 2)];
        payloads.push(WalRecord::Insert { table: "public.t".into(), row }.encode());
    }
    payloads.push(old_create_index("id", true));
    payloads.push(old_create_index("v", false));
    let mut log = Vec::new();
    for payload in &payloads {
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32(payload).to_le_bytes());
        log.extend_from_slice(payload);
    }
    std::fs::write(dir.join("wal.db"), log).unwrap();

    let d = Database::open(&dir).unwrap();
    d.recover().unwrap();
    for (sql, scan) in [
        ("SELECT v FROM public.t WHERE id = 1", "IndexEqScan public.t.id"),
        ("SELECT id FROM public.t WHERE v = 1", "IndexEqScan public.t.v"),
    ] {
        let plan = d.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
        assert!(plan.contains(scan), "{plan}");
    }
    let dup = d.execute_as("INSERT INTO public.t VALUES (1, 5)", &Role::Maintainer);
    assert!(matches!(dup, Err(DbError::Constraint(_))), "{dup:?}");
    d.execute_as("INSERT INTO public.t VALUES (3, 1)", &Role::Maintainer).unwrap();
    let rs = d.execute("SELECT id FROM public.t WHERE v = 1 ORDER BY id").unwrap();
    assert_eq!(ints(&rs), vec![1, 3]);
    drop(d);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A user's own space is made, unlogged, by the first table they create in
/// it; replaying that table's creation from the WAL alone makes it again.
#[test]
fn a_table_in_a_users_own_space_recovers_from_the_wal_alone() {
    let dir = std::env::temp_dir().join(format!("unidb-user-space-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let d = Database::open(&dir).unwrap();
        d.recover().unwrap();
        d.execute("CREATE TABLE notes (id INT, body TEXT)").unwrap();
        d.execute("INSERT INTO notes VALUES (1, 'kept')").unwrap();
    }
    let d = Database::open(&dir).unwrap();
    d.recover().unwrap();
    assert_eq!(texts(&d.execute("SELECT body FROM notes").unwrap()), vec!["kept"]);
    d.execute("INSERT INTO notes VALUES (2, 'still writable')").unwrap();
    drop(d);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Creating a domain index is DDL: it moves the catalog generation, so a
/// plan prepared before it is refused as stale instead of keeping its scan.
#[test]
fn creating_a_domain_index_invalidates_prepared_plans() {
    let d = seeded();
    register_parity(&d);
    let sql = "SELECT symbol FROM genes WHERE same_parity(id, 2)";
    let before = d.prepare(sql).unwrap();
    assert!(before.access_label().starts_with("SeqScan"), "{}", before.access_label());
    d.execute("CREATE INDEX ON genes USING parity (id)").unwrap();
    assert!(matches!(d.execute_prepared(&before), Err(DbError::Stale(_))));
    let after = d.prepare(sql).unwrap();
    assert!(after.access_label().starts_with("UdiScan"), "{}", after.access_label());
    let again = d.execute("CREATE INDEX ON genes USING parity (id)").unwrap_err();
    assert!(matches!(again, DbError::AlreadyExists { .. }), "{again}");
    let unknown = d.execute("CREATE INDEX ON genes USING nosuch (id)").unwrap_err();
    assert!(unknown.to_string().contains("nosuch"), "{unknown}");
}

#[test]
fn select_without_from_and_scalar_math() {
    let d = db();
    let rs = d.execute("SELECT 2 + 3 * 4 AS v, upper('ok')").unwrap();
    assert_eq!(rs.rows[0], vec![Datum::Int(14), Datum::Text("OK".into())]);
    assert_eq!(rs.columns, vec!["v", "upper"]);
}

#[test]
fn predicate_pushdown_visible_in_plan() {
    let d = db();
    d.execute_script(
        "CREATE TABLE a (x INT, note TEXT); CREATE TABLE b (y INT);
         INSERT INTO a VALUES (1, 'keep'), (2, 'drop');
         INSERT INTO b VALUES (1), (2);",
    )
    .unwrap();
    let plan = d
        .execute("EXPLAIN SELECT * FROM a JOIN b ON a.x = b.y WHERE a.note = 'keep' AND b.y > 0")
        .unwrap()
        .explain
        .unwrap();
    // Both single-table conjuncts are pushed into their scans.
    let scan_lines: Vec<&str> = plan.lines().filter(|l| l.contains("SeqScan")).collect();
    assert!(scan_lines.iter().any(|l| l.contains("user.a") && l.contains("keep")), "{plan}");
    assert!(scan_lines.iter().any(|l| l.contains("user.b") && l.contains("y")), "{plan}");

    // But never into the null-padded side of a LEFT JOIN.
    let plan = d
        .execute("EXPLAIN SELECT * FROM a LEFT JOIN b ON a.x = b.y WHERE b.y = 1")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("Filter"), "{plan}");
}

#[test]
fn errors_are_informative() {
    let d = seeded();
    assert!(matches!(d.execute("SELECT * FROM missing").unwrap_err(), DbError::NotFound { .. }));
    assert!(matches!(d.execute("SELECT nope FROM genes").unwrap_err(), DbError::NotFound { .. }));
    assert!(matches!(
        d.execute("SELECT no_such_fn(id) FROM genes").unwrap_err(),
        DbError::NotFound { .. }
    ));
    assert!(d.execute("CREATE TABLE genes (x INT)").is_err());
    assert!(d.execute("INSERT INTO genes VALUES (1)").is_err(), "arity mismatch");
}

#[test]
fn big_table_with_overflow_rows() {
    let d = db();
    d.execute("CREATE TABLE blobs (id INT, data TEXT)").unwrap();
    // Rows bigger than a page exercise the heap overflow path through SQL.
    let big = "X".repeat(50_000);
    for i in 0..20 {
        d.execute(&format!("INSERT INTO blobs VALUES ({i}, '{big}')")).unwrap();
    }
    let rs = d.execute("SELECT count(*), min(length(data)) FROM blobs").unwrap();
    assert_eq!(rs.rows[0], vec![Datum::Int(20), Datum::Int(50_000)]);
}

#[test]
fn null_semantics_in_queries() {
    let d = db();
    d.execute_script(
        "CREATE TABLE t (id INT, v INT);
         INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30);",
    )
    .unwrap();
    // NULLs never match comparisons.
    let rs = d.execute("SELECT id FROM t WHERE v > 5").unwrap();
    assert_eq!(rs.len(), 2);
    let rs = d.execute("SELECT id FROM t WHERE v IS NULL").unwrap();
    assert_eq!(ints(&rs), vec![2]);
    // ORDER BY puts NULLs LAST under ASC and FIRST under DESC (the
    // reversal), matching PostgreSQL defaults.
    let rs = d.execute("SELECT id FROM t ORDER BY v").unwrap();
    assert_eq!(ints(&rs), vec![1, 3, 2]);
    let rs = d.execute("SELECT id FROM t ORDER BY v DESC").unwrap();
    assert_eq!(ints(&rs), vec![2, 3, 1]);
    // Aggregates skip NULLs; count(*) does not.
    let rs = d.execute("SELECT count(v), count(*), sum(v) FROM t").unwrap();
    assert_eq!(rs.rows[0], vec![Datum::Int(2), Datum::Int(3), Datum::Int(40)]);
    // coalesce patches them.
    let rs = d.execute("SELECT sum(coalesce(v, 0) + 1) FROM t").unwrap();
    assert_eq!(ints(&rs), vec![43]);
}

/// Multi-key ORDER BY is a stable sort: rows tied on every key keep the
/// order the input produced them in, and secondary keys only reorder
/// within primary-key groups. This is a documented guarantee, not an
/// implementation accident.
#[test]
fn order_by_multi_key_stability() {
    let d = db();
    d.execute_script(
        "CREATE TABLE t (id INT, a INT, b INT);
         INSERT INTO t VALUES (1, 2, 9), (2, 1, 5), (3, 2, 9), (4, 1, 7), (5, 2, 3);",
    )
    .unwrap();
    // Ties on (a, b) — ids 1 and 3 — keep insertion order.
    let rs = d.execute("SELECT id FROM t ORDER BY a, b").unwrap();
    assert_eq!(ints(&rs), vec![2, 4, 5, 1, 3]);
    // Same with the secondary key descending: ties still keep order.
    let rs = d.execute("SELECT id FROM t ORDER BY a, b DESC").unwrap();
    assert_eq!(ints(&rs), vec![4, 2, 1, 3, 5]);
    // NULL keys: last under ASC, and ties among NULLs are stable too.
    d.execute("INSERT INTO t VALUES (6, NULL, 1), (7, NULL, 1)").unwrap();
    let rs = d.execute("SELECT id FROM t ORDER BY a, b").unwrap();
    assert_eq!(ints(&rs), vec![2, 4, 5, 1, 3, 6, 7]);
}

/// An INT and a FLOAT equal as f64 sort by exact value, so ORDER BY does
/// not depend on the input order: near -2^63, `sum` stays INT in two
/// groups and widens to FLOAT in the third, and all three round to the
/// same f64.
#[test]
fn order_by_is_total_across_int_and_float() {
    for groups in [[1, 2, 3], [3, 2, 1], [2, 3, 1]] {
        let d = db();
        d.execute("CREATE TABLE t (g INT, v INT)").unwrap();
        for g in groups {
            let values = match g {
                1 => "(1, -9223372036854775807)",
                2 => "(2, -9223372036854775807), (2, -2)",
                _ => "(3, -9223372036854775794)",
            };
            d.execute(&format!("INSERT INTO t VALUES {values}")).unwrap();
        }
        let rs = d.execute("SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY s").unwrap();
        assert_eq!(ints(&rs), vec![2, 1, 3], "insert order {groups:?}");
        assert!(matches!(rs.rows[0][1], Datum::Float(_)), "{:?}", rs.rows[0]);
        let rs = d.execute("SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY s DESC").unwrap();
        assert_eq!(ints(&rs), vec![3, 1, 2], "insert order {groups:?}");
        let top = "SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY s LIMIT 1 OFFSET 1";
        assert_eq!(ints(&d.execute(top).unwrap()), vec![1], "insert order {groups:?}");
    }
}

#[test]
fn limit_offset_pagination() {
    let d = db();
    d.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 1..=10 {
        d.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let rs = d.execute("SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 4").unwrap();
    assert_eq!(ints(&rs), vec![5, 6, 7]);
    // OFFSET past the end yields nothing; OFFSET without LIMIT skips only.
    let rs = d.execute("SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 100").unwrap();
    assert!(rs.rows.is_empty());
    let rs = d.execute("SELECT id FROM t ORDER BY id OFFSET 8").unwrap();
    assert_eq!(ints(&rs), vec![9, 10]);
    let rs = d.execute("SELECT id FROM t ORDER BY id LIMIT 0 OFFSET 2").unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn distinct_interacts_with_order_and_limit() {
    let d = db();
    d.execute_script(
        "CREATE TABLE t (grp TEXT, v INT);
         INSERT INTO t VALUES ('b', 2), ('a', 1), ('b', 2), ('c', 3), ('a', 1);",
    )
    .unwrap();
    let rs = d.execute("SELECT DISTINCT grp, v FROM t ORDER BY v DESC LIMIT 2").unwrap();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.rows[0][0], Datum::Text("c".into()));
    assert_eq!(rs.rows[1][0], Datum::Text("b".into()));
}

#[test]
fn left_join_feeds_aggregation() {
    let d = db();
    d.execute_script(
        "CREATE TABLE g (id INT, name TEXT);
         CREATE TABLE hits (gene_id INT);
         INSERT INTO g VALUES (1, 'a'), (2, 'b'), (3, 'c');
         INSERT INTO hits VALUES (1), (1), (3);",
    )
    .unwrap();
    // count(h.gene_id) counts only matched rows: null-padded rows add 0.
    let rs = d
        .execute(
            "SELECT g.name, count(hits.gene_id) AS n FROM g              LEFT JOIN hits ON g.id = hits.gene_id              GROUP BY g.name ORDER BY g.name",
        )
        .unwrap();
    assert_eq!(
        rs.rows,
        vec![
            vec![Datum::Text("a".into()), Datum::Int(2)],
            vec![Datum::Text("b".into()), Datum::Int(0)],
            vec![Datum::Text("c".into()), Datum::Int(1)],
        ]
    );
}

#[test]
fn in_list_and_between_with_index() {
    let d = db();
    d.execute("CREATE TABLE t (id INT, tag TEXT)").unwrap();
    for i in 0..200 {
        d.execute(&format!("INSERT INTO t VALUES ({i}, 'x{}')", i % 7)).unwrap();
    }
    d.execute("CREATE UNIQUE INDEX ON t (id)").unwrap();
    let rs = d.execute("SELECT count(*) FROM t WHERE id IN (3, 77, 199, 500)").unwrap();
    assert_eq!(ints(&rs), vec![3]);
    // BETWEEN uses the range path and composes with another predicate.
    let rs = d.execute("SELECT count(*) FROM t WHERE id BETWEEN 50 AND 90 AND tag = 'x1'").unwrap();
    let brute =
        d.execute("SELECT count(*) FROM t WHERE id >= 50 AND id <= 90 AND tag = 'x1'").unwrap();
    assert_eq!(rs.rows, brute.rows);
}

#[test]
fn text_ops_and_like_in_queries() {
    let d = db();
    d.execute_script(
        "CREATE TABLE p (name TEXT);
         INSERT INTO p VALUES ('alpha kinase'), ('beta kinase'), ('gamma phosphatase');",
    )
    .unwrap();
    let rs = d.execute("SELECT count(*) FROM p WHERE name LIKE '%kinase'").unwrap();
    assert_eq!(ints(&rs), vec![2]);
    let rs = d
        .execute("SELECT upper(substr(name, 0, 5)) FROM p WHERE name NOT LIKE '%kinase' ")
        .unwrap();
    assert_eq!(rs.rows[0][0], Datum::Text("GAMMA".into()));
    // Text concatenation via +.
    let rs = d.execute("SELECT name + '!' FROM p LIMIT 1").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Text("alpha kinase!".into()));
}

#[test]
fn update_through_expressions_and_self_reference() {
    let d = db();
    d.execute_script(
        "CREATE TABLE acc (id INT, balance FLOAT);
         INSERT INTO acc VALUES (1, 10.0), (2, 20.0);",
    )
    .unwrap();
    d.execute("UPDATE acc SET balance = balance * 2 + id").unwrap();
    let rs = d.execute("SELECT balance FROM acc ORDER BY id").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Float(21.0));
    assert_eq!(rs.rows[1][0], Datum::Float(42.0));
}

#[test]
fn medium_scale_consistency() {
    let d = db();
    d.execute("CREATE TABLE n (v INT)").unwrap();
    d.execute("BEGIN").unwrap();
    for i in 0..5000 {
        d.execute(&format!("INSERT INTO n VALUES ({i})")).unwrap();
    }
    d.execute("COMMIT").unwrap();
    let rs = d.execute("SELECT count(*), sum(v), min(v), max(v) FROM n").unwrap();
    assert_eq!(
        rs.rows[0],
        vec![Datum::Int(5000), Datum::Int(4999 * 5000 / 2), Datum::Int(0), Datum::Int(4999)]
    );
    let rs = d.execute("SELECT count(*) FROM n WHERE v % 7 = 0").unwrap();
    assert_eq!(ints(&rs), vec![715]);
}

// ---------------------------------------------------------------------------
// Vectorized / parallel execution (PR 4)
// ---------------------------------------------------------------------------

/// `ORDER BY + LIMIT` plans as a fused, bounded `TopN` operator — the
/// golden EXPLAIN shape — and produces exactly the stable-sort window.
#[test]
fn explain_shows_fused_top_n() {
    let d = seeded();
    let plan = d
        .execute("EXPLAIN SELECT symbol FROM genes ORDER BY len DESC LIMIT 2")
        .unwrap()
        .explain
        .unwrap();
    assert_eq!(plan, "Project [symbol]\n  TopN [len DESC] limit 2\n    SeqScan user.genes\n");
    assert!(!plan.contains("Sort"), "Sort should be fused away:\n{plan}");

    // OFFSET rides along inside the heap bound.
    let plan = d
        .execute("EXPLAIN SELECT symbol FROM genes ORDER BY len LIMIT 2 OFFSET 1")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("TopN [len] limit 2 offset 1"), "plan:\n{plan}");

    // DISTINCT between Sort and Limit blocks the fusion (it changes which
    // rows the window sees), so the plan keeps the unfused pair.
    let plan = d
        .execute("EXPLAIN SELECT DISTINCT symbol FROM genes ORDER BY symbol LIMIT 2")
        .unwrap()
        .explain
        .unwrap();
    assert!(plan.contains("Limit") && plan.contains("Sort") && !plan.contains("TopN"));
}

/// Top-N reproduces stable-sort-then-window semantics exactly, ties and
/// OFFSET included.
#[test]
fn top_n_matches_sort_limit_semantics() {
    let d = db();
    d.execute("CREATE TABLE t (id INT, v INT)").unwrap();
    // Many ties on v: stability means lowest insertion order wins.
    for i in 0..500 {
        d.execute(&format!("INSERT INTO t VALUES ({i}, {})", i % 7)).unwrap();
    }
    let rs = d.execute("SELECT id FROM t ORDER BY v LIMIT 5").unwrap();
    assert_eq!(ints(&rs), vec![0, 7, 14, 21, 28]);
    let rs = d.execute("SELECT id FROM t ORDER BY v LIMIT 4 OFFSET 3").unwrap();
    assert_eq!(ints(&rs), vec![21, 28, 35, 42]);
    let rs = d.execute("SELECT id FROM t ORDER BY v DESC, id DESC LIMIT 3").unwrap();
    assert_eq!(ints(&rs), vec![496, 489, 482]);
    // Window larger than the table degrades to a full sort.
    let rs = d.execute("SELECT id FROM t ORDER BY v, id LIMIT 10000").unwrap();
    assert_eq!(rs.len(), 500);
}

/// A bare LIMIT stops pulling from the scan once satisfied: the engine's
/// page counter must move by far fewer pages than the table holds.
#[test]
fn limit_short_circuits_the_scan() {
    let d = db();
    d.execute("CREATE TABLE big (id INT, v INT)").unwrap();
    for chunk in (0..100_000).collect::<Vec<i64>>().chunks(1000) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i * 3)).collect();
        d.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
    }
    let before_full = d.scan_pages_read();
    d.execute("SELECT count(*) FROM big").unwrap();
    let full_scan_pages = d.scan_pages_read() - before_full;
    assert!(full_scan_pages > 100, "table should span many pages, got {full_scan_pages}");

    let before = d.scan_pages_read();
    let rs = d.execute("SELECT id FROM big LIMIT 10").unwrap();
    assert_eq!(rs.len(), 10);
    let limited_pages = d.scan_pages_read() - before;
    assert!(
        limited_pages < full_scan_pages / 4,
        "LIMIT 10 read {limited_pages} pages; full scan reads {full_scan_pages}"
    );
}

/// Every operator type returns exactly its reference rows, in order, and
/// the same rows on every run.
#[test]
fn parallel_execution_is_deterministic() {
    let d = db();
    d.execute_script(
        "CREATE TABLE t (a INT, b INT, g INT);
         CREATE TABLE dim (id INT, name TEXT);",
    )
    .unwrap();
    d.execute("BEGIN").unwrap();
    for i in 0..10_000 {
        d.execute(&format!("INSERT INTO t VALUES ({i}, {}, {})", (i * 37) % 1000, i % 13)).unwrap();
    }
    for i in 0..13 {
        d.execute(&format!("INSERT INTO dim VALUES ({i}, 'g{i}')")).unwrap();
    }
    d.execute("COMMIT").unwrap();

    let a: Vec<i64> = (0..10_000).collect();
    let b = |i: i64| (i * 37) % 1000;
    let int = Datum::Int;
    let mut by_b = a.clone();
    by_b.sort_by_key(|&i| (b(i), i));
    let cases: [(&str, Vec<Vec<Datum>>); 5] = [
        (
            "SELECT a, a + b FROM t WHERE b < 300",
            a.iter().filter(|&&i| b(i) < 300).map(|&i| vec![int(i), int(i + b(i))]).collect(),
        ),
        (
            "SELECT g, count(*), sum(b) FROM t GROUP BY g ORDER BY g",
            (0..13)
                .map(|g| {
                    let rows: Vec<i64> = a.iter().copied().filter(|i| i % 13 == g).collect();
                    vec![int(g), int(rows.len() as i64), int(rows.iter().map(|&i| b(i)).sum())]
                })
                .collect(),
        ),
        (
            "SELECT a FROM t ORDER BY b, a LIMIT 50",
            by_b[..50].iter().map(|&i| vec![int(i)]).collect(),
        ),
        (
            "SELECT t.a, dim.name FROM t JOIN dim ON t.g = dim.id WHERE t.a < 100 ORDER BY t.a",
            (0..100).map(|i| vec![int(i), Datum::Text(format!("g{}", i % 13))]).collect(),
        ),
        ("SELECT DISTINCT g FROM t ORDER BY g", (0..13).map(|g| vec![int(g)]).collect()),
    ];
    for (q, expect) in cases {
        assert_eq!(d.execute(q).unwrap().rows, expect, "{q}");
        assert_eq!(d.execute(q).unwrap().rows, expect, "{q}: second run");
    }
}

/// A statement runs entirely on the thread that issues it: a UDF in a
/// filter fused into a scan of many morsels, and one in the key of a sort
/// over thousands of rows, are only ever called from the caller's thread.
#[test]
fn a_statement_runs_on_the_calling_thread() {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    let d = db();
    d.execute("CREATE TABLE t (id INT, pad TEXT)").unwrap();
    let pad = "x".repeat(100);
    for chunk in 0..10 {
        let values: Vec<String> =
            (0..1000).map(|i| format!("({}, '{pad}')", chunk * 1000 + i)).collect();
        d.execute(&format!("INSERT INTO t VALUES {}", values.join(","))).unwrap();
    }
    let threads: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
    let seen = Arc::clone(&threads);
    d.register_scalar(
        "thread_tag",
        Arc::new(move |args| {
            seen.lock().unwrap().insert(std::thread::current().id());
            Ok(args[0].clone())
        }),
    )
    .unwrap();

    let fused = "SELECT id FROM t WHERE thread_tag(id) >= 0";
    let plan = d.execute(&format!("EXPLAIN {fused}")).unwrap().explain.unwrap();
    assert!(plan.contains("SeqScan") && !plan.contains("Filter"), "filter fuses:\n{plan}");
    let (rs, stats) = d.explain_analyze(fused).unwrap();
    assert_eq!(rs.rows.len(), 10_000);
    fn scan(s: &unidb::exec::stats::OpStatsSnapshot) -> &unidb::exec::stats::OpStatsSnapshot {
        if s.is_scan {
            return s;
        }
        s.children.iter().map(scan).next().expect("the plan scans")
    }
    let pages = scan(&stats).pages_read;
    assert!(pages > 4 * u64::from(unidb::exec::MORSEL_PAGES), "several morsels: {pages} pages");
    let caller = HashSet::from([std::thread::current().id()]);
    assert_eq!(std::mem::take(&mut *threads.lock().unwrap()), caller, "fused filter");

    let sorted = d.execute("SELECT id FROM t ORDER BY thread_tag(id) DESC").unwrap();
    assert_eq!(sorted.rows.len(), 10_000);
    assert_eq!(sorted.rows[0], vec![Datum::Int(9_999)]);
    let plan = d.execute("EXPLAIN SELECT id FROM t ORDER BY thread_tag(id) DESC").unwrap();
    assert!(plan.explain.unwrap().contains("Sort"), "an unbounded ORDER BY sorts");
    assert_eq!(*threads.lock().unwrap(), caller, "sort keys");
}

/// An unqualified column matching two join sides is its own error kind,
/// raised at plan time — not a type error, and not a per-row surprise.
#[test]
fn ambiguous_columns_error_at_plan_time() {
    let d = db();
    d.execute_script(
        "CREATE TABLE a (id INT, x INT);
         CREATE TABLE b (id INT, y INT);
         INSERT INTO a VALUES (1, 10);
         INSERT INTO b VALUES (1, 20);",
    )
    .unwrap();
    let err = d.execute("SELECT id FROM a JOIN b ON a.id = b.id").unwrap_err();
    assert!(matches!(err, DbError::AmbiguousColumn(ref c) if c == "id"), "got {err:?}");
    // Qualified references still work.
    let rs = d.execute("SELECT a.id, b.y FROM a JOIN b ON a.id = b.id").unwrap();
    assert_eq!(rs.rows, vec![vec![Datum::Int(1), Datum::Int(20)]]);
}

/// Delete-heavy tables recompute their statistics instead of drifting:
/// once deletes dominate the observed rows, the catalog rebuilds from
/// the surviving heap, zone maps stay exact, pruned scans stay correct,
/// and the planner's row estimate tracks the shrunken table.
#[test]
fn delete_heavy_table_rebuilds_statistics() {
    let d = db();
    d.execute("CREATE TABLE ledger (id INT NOT NULL, grp INT)").unwrap();
    let mut batch = String::from("INSERT INTO ledger VALUES ");
    for i in 0..200 {
        if i > 0 {
            batch.push(',');
        }
        batch.push_str(&format!("({i}, {})", i % 10));
    }
    d.execute(&batch).unwrap();
    assert_eq!(d.stats_rebuilt(), 0, "inserts alone never force a rebuild");
    let before = d.stats_fingerprint("ledger").unwrap();

    d.execute("DELETE FROM ledger WHERE id < 150").unwrap();
    assert!(d.stats_rebuilt() > 0, "a delete-heavy table must recompute its statistics");
    assert_ne!(d.stats_fingerprint("ledger").unwrap(), before, "stats reflect the survivors");
    assert!(d.verify_zone_maps("ledger").unwrap(), "zone maps stay exact through deletes");

    // Pruned scans over the survivors still answer correctly.
    let rs = d.execute("SELECT id FROM ledger WHERE id >= 180").unwrap();
    let mut got = ints(&rs);
    got.sort_unstable();
    assert_eq!(got, (180..200).collect::<Vec<i64>>());

    // The planner sees the post-delete cardinality, not the stale one.
    let (est, upper) = d.plan_estimate("SELECT id FROM ledger").unwrap();
    assert!(est <= upper + 1e-9, "estimate {est} must respect its upper bound {upper}");
    assert!((est - 50.0).abs() < 1.0, "estimate should see ~50 surviving rows, got {est}");
}

#[test]
fn plan_hash_ignores_literals_but_sees_structure() {
    // The plan-change audit keys on plan *shape*: two preparations of the
    // same statement shape with different bound constants must hash (and
    // label) identically, while a genuine access-path change must not.
    let d = db();
    d.execute("CREATE TABLE seqs (id INT, name TEXT)").unwrap();
    d.execute("INSERT INTO seqs VALUES (1, 'a'), (2, 'b'), (3, 'c')").unwrap();

    let a = d.prepare("SELECT name FROM seqs WHERE id = 1").unwrap();
    let b = d.prepare("SELECT name FROM seqs WHERE id = 2").unwrap();
    assert_eq!(a.plan_hash(), b.plan_hash(), "literal-only difference flipped the plan hash");
    assert_eq!(a.access_label(), b.access_label());
    assert!(a.access_label().contains('?'), "access label leaks literals: {}", a.access_label());

    d.execute("CREATE INDEX ON seqs (id)").unwrap();
    let c = d.prepare("SELECT name FROM seqs WHERE id = 2").unwrap();
    assert_ne!(b.plan_hash(), c.plan_hash(), "index swap must change the plan hash");
    assert!(c.access_label().starts_with("IndexEqScan"), "got {}", c.access_label());
    assert!(c.access_label().ends_with("= ?"), "index key must be elided: {}", c.access_label());

    // LIMIT/OFFSET counts are bound constants too.
    let l10 = d.prepare("SELECT name FROM seqs LIMIT 10").unwrap();
    let l20 = d.prepare("SELECT name FROM seqs LIMIT 20").unwrap();
    assert_eq!(l10.plan_hash(), l20.plan_hash(), "LIMIT count flipped the plan hash");
}

// ---------------------------------------------------------------------------
// UPDATE and DELETE locate their rows through the planner's access path
// ---------------------------------------------------------------------------

/// Keys 1..=20, `v = 10 * k`, except `v = 0` at k = 9; `index` (if any)
/// is created before the rows arrive.
fn dml_db(index: Option<&str>) -> Database {
    let d = db();
    d.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    if let Some(ddl) = index {
        d.execute(ddl).unwrap();
    }
    for k in 1..=20 {
        let v = if k == 9 { 0 } else { 10 * k };
        d.execute(&format!("INSERT INTO t VALUES ({k}, {v})")).unwrap();
    }
    d
}

/// Autocommit UPDATE and DELETE do the same thing — affected counts,
/// errors, final contents — whether the filtered column has no index, a
/// B-tree or a unique B-tree, and EXPLAIN names the access path taken. And
/// since autocommit *is* a one-statement transaction, each does exactly what
/// `BEGIN; <statement>; COMMIT` does on a twin database, error text included.
#[test]
fn autocommit_dml_is_the_same_with_and_without_an_index() {
    // (statement, access path EXPLAIN must show when `k` is indexed)
    let statements = [
        ("UPDATE t SET v = v + 1 WHERE k = 4", "IndexEqScan"),
        ("UPDATE t SET v = v + 1 WHERE k = 44", "IndexEqScan"),
        ("UPDATE t SET v = v + 1 WHERE k BETWEEN 3 AND 6", "IndexRangeScan"),
        ("UPDATE t SET v = v + 1 WHERE k BETWEEN 3 AND 6 AND v > 40", "IndexRangeScan"),
        // A residual conjunct that can error: it does on the row the index
        // finds (k = 9 has v = 0), and the table is left untouched …
        ("UPDATE t SET v = 1 WHERE k = 9 AND 100 / v > 1", "IndexEqScan"),
        // … and does not when the indexed conjunct short-circuits it away
        // on the rows it would have failed on.
        ("UPDATE t SET v = 1 WHERE k = 8 AND 100 / v > 1", "IndexEqScan"),
        // A SET expression that errors part-way through the matches leaves
        // the table untouched as well.
        ("UPDATE t SET v = 100 / v WHERE k BETWEEN 7 AND 10", "IndexRangeScan"),
        // An UPDATE that moves the indexed key of the rows it is iterating,
        // to values its own filter still matches: each row moves once.
        ("UPDATE t SET k = k + 100 WHERE k >= 15", "IndexRangeScan"),
        ("UPDATE t SET k = k + 100 WHERE k = 4", "IndexEqScan"),
        // Keys that move onto each other: uniqueness is judged on the
        // statement's outcome, not on the order its rows were found in.
        ("UPDATE t SET k = k + 1 WHERE k >= 18", "IndexRangeScan"),
        ("UPDATE t SET k = 39 - k WHERE k >= 19", "IndexRangeScan"),
        ("DELETE FROM t WHERE k = 4", "IndexEqScan"),
        ("DELETE FROM t WHERE k BETWEEN 3 AND 6", "IndexRangeScan"),
        ("DELETE FROM t WHERE k = 9 AND 100 / v > 1", "IndexEqScan"),
        ("DELETE FROM t WHERE v = 70", "SeqScan"),
        ("DELETE FROM t WHERE t.k = 4", "IndexEqScan"),
    ];
    // What a unique index forbids (no index-free reference for these): the
    // two modes must still agree on the error and on leaving no trace.
    let unique_violations = [
        "INSERT INTO t VALUES (21, 1), (22, 2), (21, 3)",
        "INSERT INTO t VALUES (30, 1), (4, 2)",
        "UPDATE t SET k = 5 WHERE k BETWEEN 3 AND 4",
        "UPDATE t SET k = 30 WHERE k >= 19",
    ];
    let run = |d: &Database, sql: &str, in_txn: bool| -> (String, Vec<(i64, i64)>) {
        if in_txn {
            d.execute("BEGIN").unwrap();
        }
        let outcome = match d.execute(sql) {
            Ok(rs) => format!("affected {}", rs.affected),
            Err(e) => format!("error {e}"),
        };
        if in_txn {
            d.execute("COMMIT").unwrap();
        }
        let rs = d.execute("SELECT k, v FROM t ORDER BY k").unwrap();
        let rows = rs.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()));
        (outcome, rows.collect())
    };
    let explain = |d: &Database, sql: &str, in_txn: bool| -> String {
        if in_txn {
            d.execute("BEGIN").unwrap();
        }
        let plan = d.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
        if in_txn {
            d.execute("ROLLBACK").unwrap();
        }
        plan
    };
    for (sql, path) in statements {
        let reference = run(&dml_db(None), sql, false);
        for index in ["CREATE INDEX ON t (k)", "CREATE UNIQUE INDEX ON t (k)"] {
            for in_txn in [false, true] {
                let d = dml_db(Some(index));
                let plan = explain(&d, sql, in_txn);
                assert!(plan.contains(path), "{sql} with {index} planned as:\n{plan}");
                assert_eq!(run(&d, sql, in_txn), reference, "{sql} with {index}, txn {in_txn}");
            }
        }
        for in_txn in [false, true] {
            let d = dml_db(None);
            let plan = explain(&d, sql, in_txn);
            assert!(plan.contains("SeqScan"), "{sql} without an index planned as:\n{plan}");
            assert_eq!(run(&d, sql, in_txn), reference, "{sql} without an index, txn {in_txn}");
        }
    }
    for sql in unique_violations {
        let untouched = run(&dml_db(None), "DELETE FROM t WHERE k = 0", false).1;
        let auto = run(&dml_db(Some("CREATE UNIQUE INDEX ON t (k)")), sql, false);
        assert!(auto.0.starts_with("error constraint violation: duplicate key"), "{sql}: {auto:?}");
        assert_eq!(auto.1, untouched, "{sql}");
        assert_eq!(run(&dml_db(Some("CREATE UNIQUE INDEX ON t (k)")), sql, true), auto, "{sql}");
    }
    // Names resolve the same on either path, in the statement and its EXPLAIN.
    for index in [None, Some("CREATE UNIQUE INDEX ON t (k)")] {
        let d = dml_db(index);
        for sql in ["UPDATE t SET v = 1 WHERE bogus.k = 4", "DELETE FROM t WHERE nope = 4"] {
            assert!(d.execute(sql).is_err(), "{sql} with {index:?}");
            assert!(d.execute(&format!("EXPLAIN {sql}")).is_err(), "EXPLAIN {sql} with {index:?}");
        }
    }
    // The statements above did something: spot-check three references.
    let d = dml_db(None);
    assert!(d.execute("UPDATE t SET v = 1 WHERE k = 9 AND 100 / v > 1").is_err());
    assert!(d.execute("UPDATE t SET v = 100 / v WHERE k BETWEEN 7 AND 10").is_err());
    assert_eq!(ints(&d.execute("SELECT v FROM t WHERE k = 7").unwrap()), vec![70]);
    assert_eq!(d.execute("UPDATE t SET k = k + 100 WHERE k >= 15").unwrap().affected, 6);
    assert_eq!(ints(&d.execute("SELECT max(k) FROM t").unwrap()), vec![120]);
}

/// WAL replay finds the row each logged UPDATE/DELETE names through
/// whatever B-tree the table has (or a walk when it has none), and on
/// tables with duplicate rows touches exactly as many copies as the
/// original did.
#[test]
fn replay_locates_rows_with_and_without_indexes_and_with_duplicates() {
    let dir = std::env::temp_dir().join(format!("unidb-replay-locate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let contents = |d: &Database| -> Vec<Vec<(i64, i64)>> {
        ["uniq", "dups", "bare"]
            .iter()
            .map(|t| {
                let rs = d.execute(&format!("SELECT k, v FROM public.{t} ORDER BY k, v")).unwrap();
                rs.rows.iter().map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap())).collect()
            })
            .collect()
    };
    let before = {
        let d = Database::open(&dir).unwrap();
        d.recover().unwrap();
        d.execute_script_as(
            "CREATE TABLE uniq (k INT, v INT);
             CREATE UNIQUE INDEX ON uniq (k);
             CREATE INDEX ON uniq (v);
             CREATE TABLE dups (k INT, v INT);
             CREATE INDEX ON dups (k);
             CREATE TABLE bare (k INT, v INT);
             INSERT INTO uniq VALUES (1, 10), (2, 10), (3, 30), (4, 40);
             INSERT INTO dups VALUES (1, 10), (1, 10), (1, 10), (2, 20), (2, 20);
             INSERT INTO bare VALUES (1, 10), (1, 10), (2, 20), (2, 20), (3, 30);
             UPDATE uniq SET v = 11 WHERE k = 1;
             UPDATE uniq SET k = 9 WHERE k = 3;
             DELETE FROM uniq WHERE k = 2;
             DELETE FROM dups WHERE k = 2;
             UPDATE dups SET v = v + 1 WHERE k = 1;
             UPDATE bare SET v = 21 WHERE k = 2;
             DELETE FROM bare WHERE k = 1;
             BEGIN;
             UPDATE uniq SET v = 41 WHERE k = 4;
             UPDATE uniq SET k = 5 WHERE k = 9;
             DELETE FROM dups WHERE v = 11;
             INSERT INTO dups VALUES (3, 30), (3, 30);
             UPDATE bare SET v = v + 1 WHERE k = 2;
             COMMIT;",
            &Role::Maintainer,
        )
        .unwrap();
        contents(&d)
    };
    assert_eq!(
        before,
        vec![
            vec![(1, 11), (4, 41), (5, 30)],
            vec![(3, 30), (3, 30)],
            vec![(2, 22), (2, 22), (3, 30)]
        ]
    );
    let d = Database::open(&dir).unwrap();
    d.recover().unwrap();
    assert_eq!(contents(&d), before);
    for t in ["public.uniq", "public.dups", "public.bare"] {
        assert!(d.verify_zone_maps(t).unwrap(), "zone maps of {t} diverged in replay");
    }
    let plan = d.execute("EXPLAIN SELECT v FROM public.uniq WHERE k = 4").unwrap();
    assert!(plan.explain.unwrap().contains("IndexEqScan"));
    drop(d);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `sql` and returns its outcome: the rows, or the error's text.
fn outcome(d: &Database, sql: &str) -> Result<Vec<Vec<Datum>>, String> {
    d.execute(sql).map(|rs| rs.rows).map_err(|e| e.to_string())
}

/// Four rows of interest — a NULL in each operand column, Int/Float pairs
/// that tie and that differ — ahead of enough filler that a scan runs
/// several morsels and serves the leading pages from column images
/// (`pad` is never read, so every plan's column mask is sparse).
fn operand_fixture() -> Database {
    let d = db();
    d.execute_script(
        "CREATE TABLE t (id INT, pad INT, i INT, f FLOAT, s TEXT);
         INSERT INTO t VALUES (1, 0, 3, 3.0, 'x'), (2, 0, NULL, 2.5, NULL),
                              (3, 0, 0, NULL, 'y'), (4, 0, 5, 4.5, 'é');",
    )
    .unwrap();
    let filler: Vec<String> =
        (100..FILLER_ROWS + 100).map(|id| format!("({id}, 0, 1000, 1000.5, 'zz')")).collect();
    for chunk in filler.chunks(1000) {
        d.execute(&format!("INSERT INTO t VALUES {}", chunk.join(","))).unwrap();
    }
    d
}

const FILLER_ROWS: i64 = 12_000;

fn count_where(d: &Database, pred: &str) -> i64 {
    let rows = outcome(d, &format!("SELECT count(*) FROM t WHERE {pred}")).unwrap();
    rows[0][0].as_int().unwrap()
}

/// The value of `expr` on rows 1–4, in row order.
fn values_of(d: &Database, expr: &str) -> Vec<Datum> {
    let rows = outcome(d, &format!("SELECT id, {expr} FROM t WHERE id < 10")).unwrap();
    assert_eq!(
        rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        (1..=4).map(Datum::Int).collect::<Vec<_>>()
    );
    rows.into_iter().map(|r| r[1].clone()).collect()
}

#[test]
fn comparisons_with_a_null_operand_are_unknown_at_every_width() {
    let d = operand_fixture();
    let (t, f, n) = (Datum::Bool(true), Datum::Bool(false), Datum::Null);
    for (op, holds) in [
        ("=", (|a, b| a == b) as fn(i64, i64) -> bool),
        ("<>", |a, b| a != b),
        ("<", |a, b| a < b),
        ("<=", |a, b| a <= b),
        (">", |a, b| a > b),
        (">=", |a, b| a >= b),
    ] {
        // A NULL literal on either side, against every column type: unknown
        // for every row, so neither the predicate nor its negation passes.
        for pred in [
            format!("i {op} NULL"),
            format!("NULL {op} i"),
            format!("f {op} NULL"),
            format!("NULL {op} s"),
        ] {
            assert_eq!(count_where(&d, &pred), 0, "{pred}");
            assert_eq!(count_where(&d, &format!("NOT ({pred})")), 0, "NOT ({pred})");
            assert_eq!(values_of(&d, &pred), vec![n.clone(); 4], "{pred}");
        }
        // A NULL column on either side: unknown on row 2 only.
        let expect = |swap: bool| -> Vec<Datum> {
            [Some(3), None, Some(0), Some(5)]
                .map(|i| {
                    i.map_or(n.clone(), |i| {
                        Datum::Bool(if swap { holds(3, i) } else { holds(i, 3) })
                    })
                })
                .to_vec()
        };
        assert_eq!(values_of(&d, &format!("i {op} 3")), expect(false), "i {op} 3");
        assert_eq!(values_of(&d, &format!("3 {op} i")), expect(true), "3 {op} i");
        let passing = expect(false).iter().filter(|v| **v == t).count() as i64;
        let filler = if holds(1000, 3) { FILLER_ROWS } else { 0 };
        assert_eq!(count_where(&d, &format!("i {op} 3")), passing + filler, "i {op} 3");
    }
    // BETWEEN is `v >= lo AND v <= hi`, IN an OR of equalities, both
    // three-valued: a NULL bound or list item leaves the row unknown unless
    // the other side already decides it.
    for (expr, expect) in [
        ("i BETWEEN NULL AND 4", [n.clone(), n.clone(), n.clone(), f.clone()]),
        ("i NOT BETWEEN NULL AND 4", [n.clone(), n.clone(), n.clone(), t.clone()]),
        ("i BETWEEN 1 AND NULL", [n.clone(), n.clone(), f.clone(), n.clone()]),
        ("NULL BETWEEN 1 AND 5", [n.clone(), n.clone(), n.clone(), n.clone()]),
        ("f BETWEEN 2.5 AND 4", [t.clone(), t.clone(), n.clone(), f.clone()]),
        ("i IN (3, NULL)", [t.clone(), n.clone(), n.clone(), n.clone()]),
        ("i NOT IN (3, NULL)", [f.clone(), n.clone(), n.clone(), n.clone()]),
        ("NULL IN (1, 2)", [n.clone(), n.clone(), n.clone(), n.clone()]),
        ("i IN (0, 5)", [f.clone(), n.clone(), t.clone(), t.clone()]),
        ("s IN ('é', NULL)", [n.clone(), n.clone(), n.clone(), t.clone()]),
        ("i IS NULL", [f.clone(), t.clone(), f.clone(), f.clone()]),
    ] {
        assert_eq!(values_of(&d, expr), expect.to_vec(), "{expr}");
        let passing = expect.iter().filter(|v| **v == t).count() as i64;
        let filler = count_where(&d, &format!("({expr}) AND id >= 100"));
        assert_eq!(count_where(&d, expr), passing + filler, "{expr}");
    }
}

#[test]
fn int_and_float_compare_by_value_at_every_width() {
    let d = operand_fixture();
    // Row 1 ties (3 = 3.0), row 4 differs (5 > 4.5), filler has i < f.
    assert_eq!(count_where(&d, "i = f"), 1);
    assert_eq!(count_where(&d, "f = i"), 1);
    assert_eq!(count_where(&d, "i <> f"), 1 + FILLER_ROWS);
    assert_eq!(count_where(&d, "i > f"), 1);
    assert_eq!(count_where(&d, "i < f"), FILLER_ROWS);
    assert_eq!(count_where(&d, "i <= f"), 1 + FILLER_ROWS);
    assert_eq!(count_where(&d, "f >= 3"), 2 + FILLER_ROWS);
    assert_eq!(count_where(&d, "f = 3"), 1);
    assert_eq!(count_where(&d, "i = 3.0"), 1);
    assert_eq!(count_where(&d, "i BETWEEN 2.5 AND 3.5"), 1);
    assert_eq!(count_where(&d, "i IN (2.5, 5.0)"), 1);
    assert_eq!(count_where(&d, "f IN (3, 4)"), 1);
    assert_eq!(
        values_of(&d, "i = f"),
        vec![Datum::Bool(true), Datum::Null, Datum::Null, Datum::Bool(false)]
    );
}

#[test]
fn a_where_clause_that_is_not_bool_keeps_its_outcome_at_every_width() {
    let d = operand_fixture();
    // A non-BOOL value is not TRUE: every row is rejected, silently.
    for pred in ["i", "f", "s", "1", "'a'", "NULL", "i + 1"] {
        assert_eq!(count_where(&d, pred), 0, "WHERE {pred}");
    }
    // An operator that needs a BOOL rejects the statement instead.
    assert_eq!(
        outcome(&d, "SELECT id FROM t WHERE NOT i"),
        Err("type mismatch: NOT expects BOOL, got 3".to_string())
    );
    assert_eq!(
        outcome(&d, "SELECT id FROM t WHERE i = 3 OR s"),
        Err("type mismatch: expected BOOL, got y".to_string())
    );
}

#[test]
fn an_argument_error_and_an_accumulator_error_report_the_same_text_at_every_width() {
    let d = operand_fixture();
    // Row 1 makes `sum(s)` reject its value; row 3 makes `10 / i` fail to
    // evaluate. Rows fold in order, each call's argument evaluated just
    // before its accumulator takes it, so the earlier row's error wins
    // however wide the scan feeding the aggregate is.
    let sum_error = Err("type mismatch: sum(): sum() expects numbers, got x".to_string());
    let div_error = Err("type mismatch: division by zero".to_string());
    assert_eq!(outcome(&d, "SELECT sum(s), sum(10 / i) FROM t"), sum_error);
    assert_eq!(outcome(&d, "SELECT pad, sum(s), sum(10 / i) FROM t GROUP BY pad"), sum_error);
    assert_eq!(outcome(&d, "SELECT sum(10 / i), sum(s) FROM t WHERE id >= 3"), div_error);
    assert_eq!(outcome(&d, "SELECT sum(10 / i), sum(s) FROM t"), sum_error);
}

/// Five build rows — a duplicated key, a NULL key, `1.0` against the probe's
/// `1`, a key (2.5) no probe row has — and a probe table of five rows of
/// interest (a NULL key, a key (2) no build row has) ahead of enough
/// unmatched filler that a scan runs several morsels. `pad` and
/// `note` are never needed by some statements, so the scans under them
/// emit narrower rows than the table.
fn join_fixture() -> Database {
    let d = db();
    d.execute_script(
        "CREATE TABLE build (k FLOAT, tag TEXT, w INT);
         CREATE TABLE probe (id INT, k INT, pad INT, note TEXT);
         INSERT INTO build VALUES (1.0, 'b1', 10), (2.5, 'b2', 20), (NULL, 'bn', 30),
                                  (1.0, 'b3', 40), (3.0, 'b4', 50);
         INSERT INTO probe VALUES (1, 1, 0, 'p1'), (2, NULL, 0, 'p2'), (3, 3, 0, 'p3'),
                                  (4, 2, 0, 'p4'), (5, 1, 0, 'p5');",
    )
    .unwrap();
    let filler: Vec<String> =
        (100..FILLER_ROWS + 100).map(|id| format!("({id}, {id}, 0, 'f')")).collect();
    for chunk in filler.chunks(1000) {
        d.execute(&format!("INSERT INTO probe VALUES {}", chunk.join(","))).unwrap();
    }
    d
}

/// Rows from a compact spelling: integers, floats, text, and `None` as NULL.
fn rows_of(rows: &[&[Option<&str>]]) -> Vec<Vec<Datum>> {
    let datum = |v: &Option<&str>| match v {
        None => Datum::Null,
        Some(v) if v.contains('.') => Datum::Float(v.parse().unwrap()),
        Some(v) => v.parse().map(Datum::Int).unwrap_or_else(|_| Datum::Text(v.to_string())),
    };
    rows.iter().map(|r| r.iter().map(datum).collect()).collect()
}

#[test]
fn inner_hash_joins_match_in_build_order_at_every_width() {
    let d = join_fixture();
    let plan = |sql: &str| d.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
    let small_right = "FROM probe JOIN build ON probe.k = build.k";
    let small_left = "FROM build JOIN probe ON build.k = probe.k";
    assert!(plan(&format!("SELECT * {small_right}")).contains("build=right"));
    assert!(plan(&format!("SELECT * {small_left}")).contains("build=left"));
    // Probe rows in scan order; each one's matches in build order (b1 before
    // b3); `1` joins `1.0`; NULL joins nothing, not even NULL.
    let o = Some;
    let (b1, b3, b4) = (["1.0", "b1", "10"], ["1.0", "b3", "40"], ["3.0", "b4", "50"]);
    let (p1, p3, p5) = (["1", "1", "0", "p1"], ["3", "3", "0", "p3"], ["5", "1", "0", "p5"]);
    let pairs = [(p1, b1), (p1, b3), (p3, b4), (p5, b1), (p5, b3)];
    let star = |build_first: bool| -> Vec<Vec<Datum>> {
        let rows: Vec<Vec<Option<&str>>> = pairs
            .iter()
            .map(|(p, b)| {
                let (p, b) = (p.map(o), b.map(o));
                if build_first {
                    [&b[..], &p[..]].concat()
                } else {
                    [&p[..], &b[..]].concat()
                }
            })
            .collect();
        rows_of(&rows.iter().map(Vec::as_slice).collect::<Vec<_>>())
    };
    for (sql, expect) in [
        (format!("SELECT * {small_right}"), star(false)),
        (format!("SELECT * {small_left}"), star(true)),
        (format!("SELECT count(*) {small_right}"), rows_of(&[&[o("5")]])),
        (format!("SELECT count(*) {small_left}"), rows_of(&[&[o("5")]])),
        (
            format!("SELECT build.tag {small_right}"),
            rows_of(&[&[o("b1")], &[o("b3")], &[o("b4")], &[o("b1")], &[o("b3")]]),
        ),
        (
            format!("SELECT probe.note {small_left}"),
            rows_of(&[&[o("p1")], &[o("p1")], &[o("p3")], &[o("p5")], &[o("p5")]]),
        ),
        (
            format!("SELECT build.w, probe.id {small_left}"),
            rows_of(&[
                &[o("10"), o("1")],
                &[o("40"), o("1")],
                &[o("50"), o("3")],
                &[o("10"), o("5")],
                &[o("40"), o("5")],
            ]),
        ),
        (
            format!("SELECT probe.id, build.w {small_right} WHERE probe.id + build.w > 40"),
            rows_of(&[&[o("1"), o("40")], &[o("3"), o("50")], &[o("5"), o("40")]]),
        ),
    ] {
        assert_eq!(outcome(&d, &sql), Ok(expect), "{sql}");
    }
}

#[test]
fn left_hash_joins_pad_the_build_side_at_every_width() {
    let d = join_fixture();
    let (o, n) = (Some, None);
    // The small table preserved: the big probe table builds, its duplicate
    // key 1 matching p1 then p5; 2.5 and NULL are padded.
    let small = "FROM build LEFT JOIN probe ON build.k = probe.k";
    let plan = d.execute(&format!("EXPLAIN SELECT * {small}")).unwrap().explain.unwrap();
    assert!(plan.contains("build=right"), "{plan}");
    // The big table preserved, read only below id 10.
    let big = "FROM probe LEFT JOIN build ON probe.k = build.k WHERE probe.id < 10";
    for (sql, expect) in [
        (
            format!("SELECT build.tag, probe.id {small}"),
            rows_of(&[
                &[o("b1"), o("1")],
                &[o("b1"), o("5")],
                &[o("b2"), n],
                &[o("bn"), n],
                &[o("b3"), o("1")],
                &[o("b3"), o("5")],
                &[o("b4"), o("3")],
            ]),
        ),
        (format!("SELECT count(*) {small}"), rows_of(&[&[o("7")]])),
        (
            format!("SELECT * {big}"),
            rows_of(&[
                &[o("1"), o("1"), o("0"), o("p1"), o("1.0"), o("b1"), o("10")],
                &[o("1"), o("1"), o("0"), o("p1"), o("1.0"), o("b3"), o("40")],
                &[o("2"), n, o("0"), o("p2"), n, n, n],
                &[o("3"), o("3"), o("0"), o("p3"), o("3.0"), o("b4"), o("50")],
                &[o("4"), o("2"), o("0"), o("p4"), n, n, n],
                &[o("5"), o("1"), o("0"), o("p5"), o("1.0"), o("b1"), o("10")],
                &[o("5"), o("1"), o("0"), o("p5"), o("1.0"), o("b3"), o("40")],
            ]),
        ),
        (
            format!("SELECT probe.id, build.tag {big}"),
            rows_of(&[
                &[o("1"), o("b1")],
                &[o("1"), o("b3")],
                &[o("2"), n],
                &[o("3"), o("b4")],
                &[o("4"), n],
                &[o("5"), o("b1")],
                &[o("5"), o("b3")],
            ]),
        ),
        (
            format!("SELECT build.w {big}"),
            rows_of(&[&[o("10")], &[o("40")], &[n], &[o("50")], &[n], &[o("10")], &[o("40")]]),
        ),
        (format!("SELECT count(*) {big}"), rows_of(&[&[o("7")]])),
        (
            "SELECT count(*) FROM probe LEFT JOIN build ON probe.k = build.k".to_string(),
            vec![vec![Datum::Int(7 + FILLER_ROWS)]],
        ),
    ] {
        assert_eq!(outcome(&d, &sql), Ok(expect), "{sql}");
    }
}

/// Six fact rows (a NULL key among them) and four dimension rows, so a
/// join builds on the dimension and probes facts in insert order.
fn operand_paths_fixture() -> Database {
    let d = db();
    d.execute_script(
        "CREATE TABLE f (id INT, a INT, b TEXT);
         CREATE TABLE dm (id INT, name TEXT);
         INSERT INTO f VALUES (1, 0, 'x'), (2, 1, 'y'), (3, 2, 'x'), (4, NULL, 'y'),
                              (5, 4, 'x'), (6, 1, NULL);
         INSERT INTO dm VALUES (1, 'one'), (2, 'two'), (3, 'three'), (5, 'five');",
    )
    .unwrap();
    d
}

#[test]
fn join_keys_are_read_in_place_or_computed() {
    let d = operand_paths_fixture();
    let (o, n) = (Some, None);
    let computed = "FROM f JOIN dm ON f.a + 1 = dm.id";
    let plan = d.execute(&format!("EXPLAIN SELECT * {computed}")).unwrap().explain.unwrap();
    assert!(plan.contains("build=right"), "{plan}");
    for (sql, expect) in [
        // A computed probe key: NULL + 1 joins nothing.
        (
            format!("SELECT f.id, dm.name {computed}"),
            rows_of(&[
                &[o("1"), o("one")],
                &[o("2"), o("two")],
                &[o("3"), o("three")],
                &[o("5"), o("five")],
                &[o("6"), o("two")],
            ]),
        ),
        (format!("SELECT count(*) {computed}"), rows_of(&[&[o("5")]])),
        // Key columns read by the join and by nothing above it.
        (
            "SELECT f.b, dm.name FROM f JOIN dm ON f.a = dm.id".to_string(),
            rows_of(&[&[o("y"), o("one")], &[o("x"), o("two")], &[n, o("one")]]),
        ),
        (
            "SELECT dm.name, f.b FROM f LEFT JOIN dm ON f.a = dm.id".to_string(),
            rows_of(&[
                &[n, o("x")],
                &[o("one"), o("y")],
                &[o("two"), o("x")],
                &[n, o("y")],
                &[n, o("x")],
                &[o("one"), n],
            ]),
        ),
    ] {
        assert_eq!(outcome(&d, &sql), Ok(expect), "{sql}");
    }
}

#[test]
fn group_keys_are_read_in_place_or_computed() {
    let d = operand_paths_fixture();
    let (o, n) = (Some, None);
    for (sql, expect) in [
        // Groups in first-seen order; NULL is a group of its own.
        (
            "SELECT a % 3, count(*), sum(id) FROM f GROUP BY a % 3",
            rows_of(&[
                &[o("0"), o("1"), o("1")],
                &[o("1"), o("3"), o("13")],
                &[o("2"), o("1"), o("3")],
                &[n, o("1"), o("4")],
            ]),
        ),
        (
            "SELECT b, a % 2, count(*), max(id) FROM f GROUP BY b, a % 2",
            rows_of(&[
                &[o("x"), o("0"), o("3"), o("5")],
                &[o("y"), o("1"), o("1"), o("2")],
                &[o("y"), n, o("1"), o("4")],
                &[n, o("1"), o("1"), o("6")],
            ]),
        ),
        (
            "SELECT b, a, count(*) FROM f WHERE a < 2 OR b = 'y' GROUP BY b, a",
            rows_of(&[
                &[o("x"), o("0"), o("1")],
                &[o("y"), o("1"), o("1")],
                &[o("y"), n, o("1")],
                &[n, o("1"), o("1")],
            ]),
        ),
    ] {
        assert_eq!(outcome(&d, sql), Ok(expect), "{sql}");
    }
}
