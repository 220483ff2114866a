//! The unique-key check hashes a statement's keys once, so it stays linear
//! in the statement's rows: a 20 000-row `INSERT` into a table with a unique
//! B-tree costs at most twice the same `INSERT` under a plain B-tree. A
//! per-row rescan of the batch is quadratic and costs far more.
//!
//! A same-process timing ratio, so the test has this binary to itself: no
//! other test's threads run beside the timed statements.

use std::time::Instant;
use unidb::Database;

const ROWS: u64 = 20_000;

/// Milliseconds of one `ROWS`-row autocommit `INSERT` into an empty table
/// indexed by `index_ddl`.
fn insert_ms(insert: &str, index_ddl: &str) -> f64 {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute(index_ddl).unwrap();
    let start = Instant::now();
    let rs = db.execute(insert).unwrap();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rs.affected, ROWS);
    ms
}

#[test]
fn a_bulk_insert_pays_linear_time_for_uniqueness() {
    let tuples: Vec<String> = (0..ROWS).map(|k| format!("({k}, 0)")).collect();
    let insert = format!("INSERT INTO t VALUES {}", tuples.join(","));
    // Best of three each, the two kinds alternating so a slow phase of the
    // machine lands on both.
    let (mut plain, mut unique) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        plain = plain.min(insert_ms(&insert, "CREATE INDEX ON t (k)"));
        unique = unique.min(insert_ms(&insert, "CREATE UNIQUE INDEX ON t (k)"));
    }
    assert!(
        unique <= 2.0 * plain,
        "a {ROWS}-row INSERT costs {unique:.1} ms with a unique B-tree, {plain:.1} ms with a \
         plain one: the uniqueness check is no longer linear in the statement"
    );
}
