//! Executor throughput: rows/sec through the shapes that dominate
//! analytical load — scan-filter-project, a zone-map-pruned selective
//! scan, a narrow projection over a wide table, hash join, grouped
//! aggregation, and ORDER BY + LIMIT (Top-N) — at each requested table
//! size.
//!
//! Emits one JSON document on stdout:
//!
//! ```json
//! {"bench":"exec","results":[
//!   {"query":"scan_filter_project","rows":100000,
//!    "elapsed_ms":120.0,"rows_per_sec":833333.3,"pages_skipped":0}]}
//! ```
//!
//! `pages_skipped` is the per-execution count of heap pages the fused
//! scan refuted via zone maps — the CI smoke gate asserts it is non-zero
//! for `scan_selective` (pruning must actually engage, not just exist).
//!
//! Environment:
//!
//! * `BENCH_EXEC_ROWS` — comma-separated table sizes (default
//!   `100000,1000000`); CI smoke uses a small value to catch bit-rot.
//!
//! Run with `cargo bench -p genalg-bench --bench exec`.

use std::time::Instant;
use unidb::Database;

const DIM_ROWS: u64 = 10_000;
/// Column count of the wide table `w` (its rows are `rows / 5`).
const WIDE_COLS: u64 = 12;

fn env_list(name: &str, default: &str) -> Vec<u64> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    raw.split(',').filter_map(|s| s.trim().parse().ok()).collect()
}

/// Deterministic but well-shuffled value in `0..m`.
fn scramble(i: u64, m: u64) -> u64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)) % m
}

fn build_db(rows: u64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a INT, b INT, g INT, k INT)").unwrap();
    db.execute("CREATE TABLE d (id INT, name TEXT)").unwrap();
    let mut batch = String::new();
    for i in 0..rows {
        if batch.is_empty() {
            batch.push_str("INSERT INTO t VALUES ");
        } else {
            batch.push(',');
        }
        let b = scramble(i, rows.max(1));
        batch.push_str(&format!("({i}, {b}, {}, {})", i % 100, scramble(i, DIM_ROWS)));
        if (i + 1) % 1000 == 0 || i + 1 == rows {
            db.execute(&batch).unwrap();
            batch.clear();
        }
    }
    for i in 0..DIM_ROWS {
        if batch.is_empty() {
            batch.push_str("INSERT INTO d VALUES ");
        } else {
            batch.push(',');
        }
        batch.push_str(&format!("({i}, 'dim{i}')"));
        if (i + 1) % 1000 == 0 || i + 1 == DIM_ROWS {
            db.execute(&batch).unwrap();
            batch.clear();
        }
    }
    // Wide table: WIDE_COLS int columns at a fifth of the fact rows —
    // a narrow projection should decode only the referenced segments.
    let wide_rows = (rows / 5).max(1);
    let cols: Vec<String> = (0..WIDE_COLS).map(|c| format!("c{c} INT")).collect();
    db.execute(&format!("CREATE TABLE w ({})", cols.join(", "))).unwrap();
    for i in 0..wide_rows {
        if batch.is_empty() {
            batch.push_str("INSERT INTO w VALUES ");
        } else {
            batch.push(',');
        }
        batch.push('(');
        for c in 0..WIDE_COLS {
            if c > 0 {
                batch.push(',');
            }
            batch.push_str(&(i.wrapping_mul(c + 1) % 10_000).to_string());
        }
        batch.push(')');
        if (i + 1) % 1000 == 0 || i + 1 == wide_rows {
            db.execute(&batch).unwrap();
            batch.clear();
        }
    }
    db
}

/// Best-of-`iters` wall time for one query, in milliseconds.
fn time_query(db: &Database, sql: &str, iters: u32) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let rs = db.execute(sql).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(rs);
        best = best.min(ms);
    }
    best
}

fn main() {
    let sizes = env_list("BENCH_EXEC_ROWS", "100000,1000000");
    let mut results = Vec::new();
    for &rows in &sizes {
        let db = build_db(rows);
        let half = rows / 2;
        // `a` increases in insert order, so per-page [min,max] zones are
        // disjoint and this 1% cutoff lets zone maps refute ~99% of pages.
        let hi = rows - rows / 100;
        let wide_rows = (rows / 5).max(1);
        let queries = [
            ("scan_filter_project", format!("SELECT a, a + b FROM t WHERE b < {half}"), rows),
            ("scan_selective", format!("SELECT a, b FROM t WHERE a >= {hi}"), rows),
            ("scan_wide_projection", format!("SELECT c{} FROM w", WIDE_COLS - 1), wide_rows),
            ("hash_join", "SELECT count(*) FROM t JOIN d ON t.k = d.id".to_string(), rows),
            ("group_agg", "SELECT g, count(*), sum(b) FROM t GROUP BY g".to_string(), rows),
            ("order_by_limit", "SELECT a, b FROM t ORDER BY b LIMIT 100".to_string(), rows),
        ];
        for (name, sql, table_rows) in &queries {
            const ITERS: u32 = 3;
            let skipped_before = db.scan_pages_skipped();
            let ms = time_query(&db, sql, ITERS);
            let skipped = (db.scan_pages_skipped() - skipped_before) / u64::from(ITERS);
            results.push(format!(
                concat!(
                    "{{\"query\":\"{}\",\"rows\":{},",
                    "\"elapsed_ms\":{:.1},\"rows_per_sec\":{:.0},\"pages_skipped\":{}}}"
                ),
                name,
                table_rows,
                ms,
                *table_rows as f64 / (ms / 1e3),
                skipped,
            ));
        }
    }
    println!("{{\"bench\":\"exec\",\"results\":[{}]}}", results.join(","));
}
