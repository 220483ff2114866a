//! A scan's filter returns the same rows in the same order whichever way
//! it is evaluated: kernel leaves a column at a time over a column image,
//! per row on a dirty table's heap pages, per row on the virtual page, and
//! the whole predicate per row as written. And a filter that can raise an
//! error is never split, so it raises the error it always did.

use std::sync::Arc;
use unidb::{Database, DbError};

/// Rows in the table: several pages, so every page but the tail is served
/// from a column image.
const ROWS: usize = 900;

/// INT values around the edges a kernel could get wrong: 2^53 and 2^53 + 1
/// (equal as `f64`), the extremes, and small values literals meet.
const INTS: [&str; 9] = [
    "-3",
    "0",
    "1",
    "3",
    "9007199254740992",
    "9007199254740993",
    "9223372036854775807",
    "-9223372036854775807",
    "2",
];
/// FLOAT values: both zeros (`-0.0 < 0.0` under `total_cmp`), a value every
/// INT misses, 2^53 and the extremes.
const FLOATS: [&str; 8] =
    ["-0.0", "0.0", "0.5", "-1.5", "3.0", "9007199254740992.0", "1.5e300", "-1.5e300"];
/// Literals the predicates compare against: INT and FLOAT forms of the same
/// values, and NULL.
const LITERALS: [&str; 12] = [
    "0",
    "3",
    "9007199254740992",
    "9007199254740993",
    "-3",
    "0.0",
    "0.5",
    "3.0",
    "9007199254740992.0",
    "1.5e300",
    "9223372036854775807",
    "NULL",
];
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// `k (id, i INT, f FLOAT, j INT, g FLOAT)`, about a third of each value
/// column NULL, values drawn from the pools by a fixed generator.
fn table() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE k (id INT NOT NULL, i INT, f FLOAT, j INT, g FLOAT)").unwrap();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |n: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize % n
    };
    let mut pick = |pool: &[&str]| match next(3) {
        0 => "NULL".to_string(),
        _ => pool[next(pool.len())].to_string(),
    };
    let rows: Vec<String> = (0..ROWS)
        .map(|id| {
            let (i, f, j, g) = (pick(&INTS), pick(&FLOATS), pick(&INTS), pick(&FLOATS));
            format!("({id}, {i}, {f}, {j}, {g})")
        })
        .collect();
    for chunk in rows.chunks(100) {
        db.execute(&format!("INSERT INTO k VALUES {}", chunk.join(", "))).unwrap();
    }
    db
}

/// Every predicate shape a kernel serves — each operator both ways round
/// against INT, FLOAT and NULL literals, `BETWEEN`, `IN`, `IS [NOT] NULL`
/// — on INT and FLOAT columns, alone and ANDed with a residual.
fn predicates() -> Vec<String> {
    let mut out = Vec::new();
    for col in ["i", "f", "j", "g"] {
        for op in OPS {
            for lit in LITERALS {
                out.push(format!("{col} {op} {lit}"));
                out.push(format!("{lit} {op} {col}"));
            }
        }
        out.push(format!("{col} IS NULL"));
        out.push(format!("{col} IS NOT NULL"));
        out.push(format!("{col} BETWEEN 0 AND 3"));
        out.push(format!("{col} BETWEEN -0.0 AND 0.0"));
        out.push(format!("{col} BETWEEN 0.0 AND 9007199254740992.0"));
        out.push(format!("{col} BETWEEN NULL AND 3"));
        out.push(format!("{col} IN (0, 3.0, 9007199254740993, NULL)"));
        out.push(format!("{col} IN (0.5, -1.5)"));
    }
    out.extend(
        [
            "i >= 0 AND f < 1.0",
            "i = 9007199254740992.0 AND g IS NOT NULL",
            "i > 0 AND (f < 1.0 OR j IS NULL)",
            "f = 0.0 AND j <> 3 AND g BETWEEN -1.5e300 AND 0.5",
            "NOT (i > 0) AND 0.0 <= f",
            "i = j AND f > -1.5",
            "i IS NULL AND f IS NULL AND j IS NOT NULL",
        ]
        .map(String::from),
    );
    out
}

fn ids(db: &Database, txn: Option<u64>, sql: &str) -> Vec<i64> {
    let rs = match txn {
        Some(t) => db.txn_execute(t, sql),
        None => db.execute(sql),
    };
    let rs = rs.unwrap_or_else(|e| panic!("{sql}: {e}"));
    rs.rows.iter().map(|r| r[0].as_int().expect("id")).collect()
}

#[test]
fn kernels_return_the_rows_per_row_evaluation_does_in_the_same_order() {
    let db = table();
    let preds = predicates();
    let query = |p: &str| format!("SELECT id FROM k WHERE {p}");
    // The whole predicate per row as written: `1 / 1 = 1` can raise, so the
    // filter is not error-free and is never split.
    let per_row: Vec<Vec<i64>> =
        preds.iter().map(|p| ids(&db, None, &query(&format!("({p}) AND 1 / 1 = 1")))).collect();
    assert!(per_row.iter().any(|r| r.len() > ROWS / 10), "some predicate keeps many rows");
    assert!(per_row.iter().filter(|r| r.is_empty()).count() < preds.len() / 2);

    // Clean table: leaves run over the column images.
    for (p, expected) in preds.iter().zip(&per_row) {
        assert_eq!(&ids(&db, None, &query(p)), expected, "images: {p}");
    }

    // Every row rewritten inside a transaction: all of them are served,
    // filtered per row, from the virtual page in rid order.
    let txn = db.txn_begin();
    db.txn_execute(txn, "UPDATE k SET id = id").unwrap();
    for (p, expected) in preds.iter().zip(&per_row) {
        assert_eq!(&ids(&db, Some(txn), &query(p)), expected, "virtual page: {p}");
    }
    db.txn_rollback(txn).unwrap();

    // A commit after the snapshot makes the table dirty: heap pages are
    // read row by row, checked for visibility and filtered per row.
    let txn = db.txn_begin();
    db.execute("INSERT INTO k VALUES (-1, 0, 0.0, 0, 0.0)").unwrap();
    for (p, expected) in preds.iter().zip(&per_row) {
        assert_eq!(&ids(&db, Some(txn), &query(p)), expected, "row path: {p}");
    }
    db.txn_rollback(txn).unwrap();
}

/// A filter that can raise is evaluated whole, per row, in its written
/// order, on every page, images included: the division errors on the
/// first row it reaches, and a guard written before it still protects it.
#[test]
fn a_filter_that_can_raise_is_never_split() {
    let db = table();
    let err = |sql: &str| db.execute(sql).expect_err(sql).to_string();
    // Sparse masks, so clean pages are served from images.
    assert_eq!(
        err("SELECT id FROM k WHERE j / 0 = 1 AND id > 5"),
        "type mismatch: division by zero"
    );
    assert_eq!(
        err("SELECT g FROM k WHERE id > 5 AND id / 0 = 1"),
        "type mismatch: division by zero"
    );
    // Written first, the leaf shields the division from every row.
    let none = db.execute("SELECT g FROM k WHERE id < 0 AND id / 0 = 1").unwrap();
    assert!(none.rows.is_empty());
    // `id - 7` is zero on row 7 only: `id > 5` written after the division
    // does not save that row, `id <> 7` written before it does (and the
    // quotient is 0 on every row but 6, 7 and 8).
    assert!(db.execute("SELECT j FROM k WHERE 1 / (id - 7) = 0 AND id > 5").is_err());
    let rows = db.execute("SELECT j FROM k WHERE id <> 7 AND 1 / (id - 7) = 0").unwrap();
    assert_eq!(rows.rows.len(), ROWS - 3);

    // A UDF that rejects row 400: raised unless a conjunct written before
    // it has already rejected that row.
    db.register_scalar(
        "checked",
        Arc::new(|args| match args[0].as_int() {
            Some(400) => Err(DbError::TypeMismatch("checked(): row 400".into())),
            _ => Ok(unidb::Datum::Bool(true)),
        }),
    )
    .unwrap();
    assert_eq!(
        err("SELECT j FROM k WHERE checked(id) AND id > 500"),
        "type mismatch: checked(): row 400"
    );
    let rows = db.execute("SELECT j FROM k WHERE id > 500 AND checked(id)").unwrap();
    assert_eq!(rows.rows.len(), ROWS - 501);
}
