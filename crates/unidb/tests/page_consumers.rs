//! A SeqScan under a hash join's probe side or a Top-N hands its column
//! image pages over whole, and the operator reads keys where they lie in
//! the image. Both must return what the row path returns: the join the
//! rows and order of a nested-loop model over the tables' rows, the Top-N
//! the rows, order and error of the unfused Sort (which takes rows) cut to
//! the same window. The probe table spans seven pages, since its tail
//! page is never an image, and is checked clean, dirty inside a
//! transaction, and after that transaction commits.

use unidb::{Database, Datum, DbResult, ResultSet};

/// `f (id, a INT, x FLOAT, s TEXT)`: 2400 rows. `a` repeats (ties) and
/// holds NULL and 0; `x` holds NULL; `s` is a dictionary column.
/// `d (id INT, w INT)`: ids 0..40, each twice (duplicate build keys).
/// `e (id FLOAT, w INT)`: FLOAT ids, whole and not.
fn tables() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE f (id INT, a INT, x FLOAT, s TEXT)").unwrap();
    db.execute("CREATE TABLE d (id INT, w INT)").unwrap();
    db.execute("CREATE TABLE e (id FLOAT, w INT)").unwrap();
    let rows: Vec<String> = (0..2400)
        .map(|i| {
            let a = if i % 17 == 4 { "NULL".to_string() } else { ((i * 7) % 45).to_string() };
            let x = if i % 10 == 3 { "NULL".to_string() } else { format!("{}.5", (i * 13) % 97) };
            let s = ["'ant'", "'bee'", "NULL", "'cat'"][i % 4];
            format!("({i}, {a}, {x}, {s})")
        })
        .collect();
    for chunk in rows.chunks(300) {
        db.execute(&format!("INSERT INTO f VALUES {}", chunk.join(", "))).unwrap();
    }
    let d: Vec<String> = (0..80).map(|i| format!("({}, {i})", i % 40)).collect();
    db.execute(&format!("INSERT INTO d VALUES {}", d.join(", "))).unwrap();
    let e: Vec<String> = (0..30).map(|i| format!("({}, {i})", f64::from(i) * 1.5)).collect();
    db.execute(&format!("INSERT INTO e VALUES {}", e.join(", "))).unwrap();
    db
}

/// A join statement, the side `EXPLAIN` must build, and its model.
struct Join {
    sql: &'static str,
    build: &'static str,
    /// The rows of `f` the statement's filter keeps: a kernel leaf, so the
    /// scan serves image pages.
    f_where: &'static str,
    /// The build side's table.
    other: &'static str,
    probe_key: fn(&[Datum]) -> Datum,
    left_outer: bool,
    /// An output row from the `f` row and its build-side match.
    out: fn(&[Datum], Option<&[Datum]>) -> Vec<Datum>,
}

fn a(f: &[Datum]) -> Datum {
    f[1].clone()
}

fn a_plus_1(f: &[Datum]) -> Datum {
    match f[1] {
        Datum::Int(v) => Datum::Int(v + 1),
        _ => Datum::Null,
    }
}

/// `b`'s column `c`, NULL for a padded row.
fn col(b: Option<&[Datum]>, c: usize) -> Datum {
    b.map_or(Datum::Null, |b| b[c].clone())
}

const JOINS: [Join; 7] = [
    Join {
        sql: "SELECT f.id, d.w FROM f JOIN d ON f.a = d.id WHERE f.id >= 3",
        build: "build=right",
        f_where: "id >= 3",
        other: "d",
        probe_key: a,
        left_outer: false,
        out: |f, d| vec![f[0].clone(), col(d, 1)],
    },
    Join {
        sql: "SELECT d.w, f.s, f.id FROM d JOIN f ON d.id = f.a WHERE f.x < 80.0",
        build: "build=left",
        f_where: "x < 80.0",
        other: "d",
        probe_key: a,
        left_outer: false,
        out: |f, d| vec![col(d, 1), f[3].clone(), f[0].clone()],
    },
    Join {
        sql: "SELECT f.id, f.x, d.w FROM f LEFT JOIN d ON f.a = d.id WHERE f.s <> 'bee'",
        build: "build=right",
        f_where: "s <> 'bee'",
        other: "d",
        probe_key: a,
        left_outer: true,
        out: |f, d| vec![f[0].clone(), f[2].clone(), col(d, 1)],
    },
    // An INT probe key against FLOAT build keys: 3 = 3.0 joins.
    Join {
        sql: "SELECT f.id, e.id, e.w FROM f JOIN e ON f.a = e.id WHERE f.id < 2300",
        build: "build=right",
        f_where: "id < 2300",
        other: "e",
        probe_key: a,
        left_outer: false,
        out: |f, e| vec![f[0].clone(), col(e, 0), col(e, 1)],
    },
    Join {
        sql: "SELECT f.id, d.w FROM f JOIN d ON f.a + 1 = d.id WHERE f.id >= 3",
        build: "build=right",
        f_where: "id >= 3",
        other: "d",
        probe_key: a_plus_1,
        left_outer: false,
        out: |f, d| vec![f[0].clone(), col(d, 1)],
    },
    Join {
        sql: "SELECT f.a, d.w FROM f LEFT JOIN d ON f.a + 1 = d.id WHERE f.id >= 3",
        build: "build=right",
        f_where: "id >= 3",
        other: "d",
        probe_key: a_plus_1,
        left_outer: true,
        out: |f, d| vec![f[1].clone(), col(d, 1)],
    },
    Join {
        sql: "SELECT * FROM f JOIN d ON f.a = d.id WHERE f.id >= 3",
        build: "build=right",
        f_where: "id >= 3",
        other: "d",
        probe_key: a,
        left_outer: false,
        out: |f, d| f.iter().cloned().chain(d.unwrap().iter().cloned()).collect(),
    },
];

/// The nested-loop model of `j`: `f`'s rows in heap order, each followed
/// by its matches in the build side's order; NULL matches nothing.
fn join_model(j: &Join, f: &[Vec<Datum>], other: &[Vec<Datum>]) -> Vec<Vec<Datum>> {
    let mut out = Vec::new();
    for p in f {
        let key = (j.probe_key)(p);
        let matches: Vec<&Vec<Datum>> =
            other.iter().filter(|b| !key.is_null() && !b[0].is_null() && b[0] == key).collect();
        for b in &matches {
            out.push((j.out)(p, Some(b)));
        }
        if matches.is_empty() && j.left_outer {
            out.push((j.out)(p, None));
        }
    }
    out
}

/// A Top-N statement: `ORDER BY … {window}` after the unfused `sort`.
/// Each filter is a kernel leaf, so the scan serves image pages.
const TOP_NS: [(&str, &str); 6] = [
    // Ties on `a`: stable, in heap order.
    ("SELECT id, a FROM f WHERE id >= 2 ORDER BY a", "LIMIT 25"),
    ("SELECT id, a FROM f WHERE id >= 2 ORDER BY a DESC", "LIMIT 10 OFFSET 7"),
    ("SELECT id, x, s FROM f WHERE id > 100 ORDER BY x, id DESC", "LIMIT 20 OFFSET 3"),
    ("SELECT s, id FROM f WHERE x < 90.0 ORDER BY s DESC, a", "LIMIT 12"),
    ("SELECT id FROM f WHERE s <> 'ant' ORDER BY a + x DESC", "LIMIT 9 OFFSET 40"),
    // `a` holds 0: the key raises, and the Top-N must raise the same.
    ("SELECT id FROM f WHERE id >= 2 ORDER BY 10 / a", "LIMIT 5"),
];

fn show(r: DbResult<ResultSet>) -> String {
    match r {
        Ok(rs) => format!("{:?}", rs.rows),
        Err(e) => format!("error: {e}"),
    }
}

/// Every join and Top-N through `run` against its reference; returns how
/// many statements raised.
fn check(entry: &str, db: &Database, run: &dyn Fn(&str) -> DbResult<ResultSet>) -> usize {
    let rows = |t: &str| run(&format!("SELECT * FROM {t}")).unwrap().rows;
    for j in &JOINS {
        let f = rows(&format!("f WHERE {}", j.f_where));
        let plan = db.execute(&format!("EXPLAIN {}", j.sql)).unwrap().explain.unwrap();
        assert!(plan.contains("HashJoin") && plan.contains(j.build), "{}:\n{plan}", j.sql);
        let want = join_model(j, &f, &rows(j.other));
        assert_eq!(run(j.sql).unwrap().rows, want, "{entry}: {}", j.sql);
    }
    let mut errors = 0;
    for (sort, window) in TOP_NS {
        let sql = format!("{sort} {window}");
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
        assert!(plan.contains("TopN"), "{sql}:\n{plan}");
        let (limit, offset) = match window.split(' ').collect::<Vec<_>>()[..] {
            [_, n] => (n.parse().unwrap(), 0),
            [_, n, _, k] => (n.parse().unwrap(), k.parse().unwrap()),
            _ => unreachable!("LIMIT n [OFFSET k]"),
        };
        let want = run(sort).map(|mut rs| {
            rs.rows = rs.rows.into_iter().skip(offset).take(limit).collect();
            rs
        });
        errors += usize::from(want.is_err());
        assert_eq!(show(run(&sql)), show(want), "{entry}: {sql}");
    }
    errors
}

#[test]
fn joins_and_top_n_over_image_pages_equal_the_row_path() {
    let db = tables();
    assert_eq!(check("clean", &db, &|sql| db.execute(sql)), 1);
    let txn = db.txn_begin();
    db.txn_execute(txn, "SELECT count(*) FROM f").unwrap();
    for write in [
        "INSERT INTO f VALUES (5000, 3, 1.5, 'bee'), (5001, NULL, NULL, NULL), (5002, 3, 0.5, 'ant')",
        "UPDATE f SET a = 39, s = 'dog' WHERE id % 9 = 4",
        "DELETE FROM f WHERE id % 10 = 7",
        "INSERT INTO d VALUES (3, 100), (44, 101)",
    ] {
        db.txn_execute(txn, write).unwrap();
    }
    assert_eq!(check("dirty transaction", &db, &|sql| db.txn_execute(txn, sql)), 1);
    db.txn_commit(txn).unwrap();
    assert_eq!(check("after the commit", &db, &|sql| db.execute(sql)), 1);
}
