//! Transaction engine throughput: committed transactions/sec for N
//! concurrent writers in three contention regimes — disjoint key ranges
//! (no conflicts possible, measures commit-path serialization), a hot
//! 8-key set (first-committer-wins aborts, measures retry cost), and
//! snapshot readers scanning while writers churn (measures reader
//! isolation from the write path).
//!
//! A second section times single statements, commit excluded, on a
//! 10 000-row table with a unique index: the indexed point `SELECT` and the
//! indexed point `UPDATE` in autocommit, as the first statement of a
//! transaction on a clean table, and as the first statement of a transaction
//! whose table another session committed to after the snapshot. The
//! `update_vs_select` ratios are same-run and are what to read: an `UPDATE`
//! that finds its row through the index costs a small multiple of the
//! `SELECT`, in every context; one that walks the heap costs 30–50×.
//!
//! A third section times one 20 000-row `INSERT` into a table with a plain
//! B-tree and into one with a unique B-tree, and fails the run if uniqueness
//! costs more than 2× (same run, best of three): the unique-key check is
//! hashed per statement, so it must stay linear in the statement's rows.
//!
//! Emits one JSON document on stdout:
//!
//! ```json
//! {"bench":"txn","results":[
//!   {"mode":"disjoint","writers":4,"committed":8000,"conflict_retries":0,
//!    "elapsed_ms":420.0,"commits_per_sec":19047.6}],
//!  "statements":[
//!   {"context":"autocommit","select_us":20.1,"update_us":31.0,"update_vs_select":1.5}],
//!  "bulk_insert":{"rows":20000,"plain_ms":41.0,"unique_ms":52.3,"unique_vs_plain":1.28}}
//! ```
//!
//! Environment:
//!
//! * `BENCH_TXN_WRITERS` — comma-separated writer-thread counts
//!   (default `1,2,4`); CI smoke uses `1,2`.
//! * `BENCH_TXN_OPS` — committed transactions per writer, and timed
//!   statements per cell of the statement section (default `2000`).
//!
//! Run with `cargo bench -p genalg-bench --bench txn`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use unidb::{Database, DbError};

/// Seeded rows: enough that snapshot scans do real work, small enough
/// that setup stays out of the measured window.
const SEED_ROWS: i64 = 1024;
/// Contended mode hammers this many keys from every writer.
const HOT_KEYS: i64 = 8;

fn env_list(name: &str, default: &str) -> Vec<u64> {
    let raw = std::env::var(name).unwrap_or_else(|_| default.to_string());
    raw.split(',').filter_map(|s| s.trim().parse().ok()).collect()
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

fn build_db() -> Arc<Database> {
    build_db_with(SEED_ROWS)
}

fn build_db_with(rows: i64) -> Arc<Database> {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("CREATE UNIQUE INDEX ON t (k)").unwrap();
    let mut batch = String::new();
    for k in 0..rows {
        if batch.is_empty() {
            batch.push_str("INSERT INTO t VALUES ");
        } else {
            batch.push(',');
        }
        batch.push_str(&format!("({k}, 0)"));
        if (k + 1) % 256 == 0 || k + 1 == rows {
            db.execute(&batch).unwrap();
            batch.clear();
        }
    }
    Arc::new(db)
}

/// Run one committed single-UPDATE transaction against `key`, retrying on
/// serialization conflicts. Returns the number of retries it took.
fn commit_update(db: &Database, key: i64, val: i64) -> u64 {
    let mut retries = 0;
    loop {
        let id = db.txn_begin();
        let staged = db.txn_execute(id, &format!("UPDATE t SET v = {val} WHERE k = {key}"));
        let outcome = match staged {
            Ok(_) => db.txn_commit(id),
            Err(e) => {
                let _ = db.txn_rollback(id);
                Err(e)
            }
        };
        match outcome {
            Ok(()) => return retries,
            Err(DbError::Conflict(_)) => retries += 1,
            Err(e) => panic!("unexpected transaction failure: {e}"),
        }
    }
}

/// `writers` threads each committing `ops` transactions; `key_of` maps
/// (writer, op) to the key that transaction updates. Returns
/// (elapsed_ms, total conflict retries).
fn run_writers(
    db: &Arc<Database>,
    writers: u64,
    ops: u64,
    key_of: impl Fn(u64, u64) -> i64 + Copy + Send,
) -> (f64, u64) {
    let retries = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = Arc::clone(db);
            let retries = &retries;
            s.spawn(move || {
                for i in 0..ops {
                    let r = commit_update(&db, key_of(w, i), (w * ops + i) as i64);
                    if r > 0 {
                        retries.fetch_add(r, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    (t.elapsed().as_secs_f64() * 1e3, retries.load(Ordering::Relaxed))
}

/// Disjoint writers racing `writers` snapshot readers; each reader runs
/// full-table aggregate scans inside read-only transactions until the
/// writers finish. Returns (elapsed_ms, conflict retries, reader scans).
fn run_read_while_write(db: &Arc<Database>, writers: u64, ops: u64) -> (f64, u64, u64) {
    let retries = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let t = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = Arc::clone(db);
            let retries = &retries;
            let done = &done;
            s.spawn(move || {
                for i in 0..ops {
                    let key = (w as i64) * (SEED_ROWS / writers.max(1) as i64) + (i as i64 % 4);
                    let r = commit_update(&db, key, i as i64);
                    if r > 0 {
                        retries.fetch_add(r, Ordering::Relaxed);
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
        }
        for _ in 0..writers {
            let db = Arc::clone(db);
            let scans = &scans;
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let id = db.txn_begin();
                    let rs = db.txn_execute(id, "SELECT count(*), sum(v) FROM t").unwrap();
                    std::hint::black_box(rs);
                    db.txn_commit(id).unwrap();
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    (
        t.elapsed().as_secs_f64() * 1e3,
        retries.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
    )
}

/// Rows of the statement-timing table.
const STATEMENT_ROWS: i64 = 10_000;

/// Where a timed statement runs.
#[derive(Clone, Copy)]
enum Context {
    Autocommit,
    /// First statement of a transaction nothing has committed under.
    CleanTxn,
    /// First statement of a transaction whose table another session
    /// committed to after the snapshot.
    DirtyTxn,
}

/// Mean microseconds of `n` executions of `stmt(key)` in `context`, keys
/// striding over the table; begin, the other session's commit and the
/// rollback are outside the timed region.
fn time_statement(db: &Database, context: Context, n: u64, stmt: impl Fn(i64) -> String) -> f64 {
    let mut total = std::time::Duration::ZERO;
    for i in 0..n as i64 {
        let sql = stmt(i * 7919 % STATEMENT_ROWS);
        let txn = match context {
            Context::Autocommit => None,
            Context::CleanTxn => Some(db.txn_begin()),
            Context::DirtyTxn => {
                let id = db.txn_begin();
                let other = (i * 7919 + 1) % STATEMENT_ROWS;
                db.execute(&format!("UPDATE t SET v = v + 1 WHERE k = {other}")).unwrap();
                Some(id)
            }
        };
        let start = Instant::now();
        let rs = match txn {
            None => db.execute(&sql),
            Some(id) => db.txn_execute(id, &sql),
        };
        total += start.elapsed();
        std::hint::black_box(rs.unwrap());
        if let Some(id) = txn {
            db.txn_rollback(id).unwrap();
        }
    }
    total.as_secs_f64() * 1e6 / n as f64
}

fn statement_section(n: u64) -> Vec<String> {
    let db = build_db_with(STATEMENT_ROWS);
    [
        ("autocommit", Context::Autocommit),
        ("clean_txn", Context::CleanTxn),
        ("dirty_txn", Context::DirtyTxn),
    ]
    .iter()
    .map(|&(name, context)| {
        let select = time_statement(&db, context, n, |k| format!("SELECT v FROM t WHERE k = {k}"));
        let update =
            time_statement(&db, context, n, |k| format!("UPDATE t SET v = v + 1 WHERE k = {k}"));
        format!(
            concat!(
                "{{\"context\":\"{}\",\"select_us\":{:.1},\"update_us\":{:.1},",
                "\"update_vs_select\":{:.2}}}"
            ),
            name,
            select,
            update,
            update / select,
        )
    })
    .collect()
}

/// Rows of the bulk-insert check.
const BULK_ROWS: i64 = 20_000;

/// Best-of-three milliseconds of one `BULK_ROWS`-row autocommit `INSERT`
/// into an empty table indexed by `index_ddl`.
fn time_bulk_insert(index_ddl: &str) -> f64 {
    let tuples: Vec<String> = (0..BULK_ROWS).map(|k| format!("({k}, 0)")).collect();
    let insert = format!("INSERT INTO t VALUES {}", tuples.join(","));
    (0..3)
        .map(|_| {
            let db = Database::in_memory();
            db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
            db.execute(index_ddl).unwrap();
            let start = Instant::now();
            let rs = db.execute(&insert).unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(rs.affected, BULK_ROWS as u64);
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

fn bulk_insert_section() -> String {
    let plain = time_bulk_insert("CREATE INDEX ON t (k)");
    let unique = time_bulk_insert("CREATE UNIQUE INDEX ON t (k)");
    assert!(
        unique <= 2.0 * plain,
        "a {BULK_ROWS}-row INSERT costs {unique:.1} ms with a unique B-tree, {plain:.1} ms with \
         a plain one: the uniqueness check is no longer linear in the statement"
    );
    format!(
        "{{\"rows\":{BULK_ROWS},\"plain_ms\":{plain:.1},\"unique_ms\":{unique:.1},\
         \"unique_vs_plain\":{:.2}}}",
        unique / plain
    )
}

fn main() {
    let writer_counts = env_list("BENCH_TXN_WRITERS", "1,2,4");
    let ops = env_u64("BENCH_TXN_OPS", 2000);
    let mut results = Vec::new();
    for &writers in &writer_counts {
        let shard = SEED_ROWS / writers.max(1) as i64;
        // Disjoint: writer w owns keys [w*shard, (w+1)*shard) — conflicts
        // are impossible, so retries > 0 here would be an engine bug.
        let db = build_db();
        let (ms, retries) =
            run_writers(&db, writers, ops, |w, i| (w as i64) * shard + (i as i64 % shard));
        assert_eq!(retries, 0, "disjoint writers must never conflict");
        let committed = writers * ops;
        results.push(format!(
            concat!(
                "{{\"mode\":\"disjoint\",\"writers\":{},\"committed\":{},",
                "\"conflict_retries\":{},\"elapsed_ms\":{:.1},\"commits_per_sec\":{:.0}}}"
            ),
            writers,
            committed,
            retries,
            ms,
            committed as f64 / (ms / 1e3),
        ));

        // Contended: every writer updates the same HOT_KEYS keys;
        // first-committer-wins aborts the losers, who retry to completion.
        let db = build_db();
        let (ms, retries) = run_writers(&db, writers, ops, |w, i| (w + i) as i64 % HOT_KEYS);
        results.push(format!(
            concat!(
                "{{\"mode\":\"contended\",\"writers\":{},\"committed\":{},",
                "\"conflict_retries\":{},\"elapsed_ms\":{:.1},\"commits_per_sec\":{:.0}}}"
            ),
            writers,
            committed,
            retries,
            ms,
            committed as f64 / (ms / 1e3),
        ));

        // Snapshot readers racing disjoint writers: scans/sec is the
        // headline — readers must not serialize behind the commit path.
        let db = build_db();
        let (ms, retries, scans) = run_read_while_write(&db, writers, ops);
        results.push(format!(
            concat!(
                "{{\"mode\":\"read_while_write\",\"writers\":{},\"committed\":{},",
                "\"conflict_retries\":{},\"reader_scans\":{},\"elapsed_ms\":{:.1},",
                "\"commits_per_sec\":{:.0},\"scans_per_sec\":{:.0}}}"
            ),
            writers,
            committed,
            retries,
            scans,
            ms,
            committed as f64 / (ms / 1e3),
            scans as f64 / (ms / 1e3),
        ));
    }
    println!(
        "{{\"bench\":\"txn\",\"results\":[{}],\"statements\":[{}],\"bulk_insert\":{}}}",
        results.join(","),
        statement_section(ops).join(","),
        bulk_insert_section()
    );
}
