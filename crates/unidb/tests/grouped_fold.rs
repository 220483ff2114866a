//! GROUP BY over a SeqScan folds column images in place — dictionary
//! codes for a TEXT key, page-at-a-time entries for bound calls — and must
//! return what a per-row fold over the scan's rows returns: the same rows
//! in the same (first-seen) order, and the same error with the same text.
//! The table mixes image pages, the tail page, a page holding an overflow
//! row, and, inside transactions, dirty pages and the virtual page.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unidb::expr::Accumulator;
use unidb::{BoundCall, Database, Datum, DbError, DbResult, FunctionRegistry, ResultSet};

/// `plen(p)`: the length of a TEXT payload; a payload starting with `bad`
/// is corrupt and raises, as a payload the kernel cannot read does.
fn plen(d: &Datum) -> DbResult<Datum> {
    match d {
        Datum::Null => Ok(Datum::Null),
        Datum::Text(s) if s.starts_with("bad") => {
            Err(DbError::External(format!("corrupt payload of {} bytes", s.len())))
        }
        Datum::Text(s) => Ok(Datum::Int(s.len() as i64)),
        other => Err(DbError::TypeMismatch(format!("plen() expects TEXT, got {other}"))),
    }
}

/// How many values the page entry served, and how many runs it refused.
#[derive(Default)]
struct Counters {
    served: AtomicUsize,
    refused: AtomicUsize,
}

/// Register `plen` with a binder whose page entry serves NULL and sound
/// TEXT payloads and refuses a run holding anything else.
fn register(db: &Database) -> Arc<Counters> {
    let counters = Arc::new(Counters::default());
    let seen = Arc::clone(&counters);
    db.register_scalar_with_binder(
        "plen",
        Arc::new(|args: &[Datum]| plen(&args[0])),
        Arc::new(move |_literals: &[Option<&Datum>]| {
            let seen = Arc::clone(&seen);
            Some(BoundCall {
                row: Arc::new(|vars: &[&Datum]| plen(vars[0])),
                column: Some(Arc::new(move |values: &[&Datum], out: &mut Vec<Datum>| {
                    for d in values {
                        match d {
                            Datum::Null => out.push(Datum::Null),
                            Datum::Text(s) if !s.starts_with("bad") => {
                                out.push(Datum::Int(s.len() as i64))
                            }
                            _ => {
                                seen.refused.fetch_add(1, Ordering::Relaxed);
                                return false;
                            }
                        }
                    }
                    seen.served.fetch_add(values.len(), Ordering::Relaxed);
                    true
                })),
            })
        }),
    )
    .unwrap();
    counters
}

/// A handful of organisms and NULL, so image pages repeat every key.
const ORGS: [&str; 5] = ["'human'", "'mouse'", "NULL", "'yeast'", "'fly'"];

/// `t (id, grp INT, org TEXT, p TEXT, name TEXT)`: 900 rows over several
/// pages, one of them holding an overflow row.
fn table() -> (Database, Arc<Counters>) {
    let db = Database::in_memory();
    let counters = register(&db);
    db.execute("CREATE TABLE t (id INT, grp INT, org TEXT, p TEXT, name TEXT)").unwrap();
    let rows: Vec<String> = (0..900)
        .map(|i| {
            let p = match i % 11 {
                0 => "NULL".to_string(),
                // An overflow row: longer than a page.
                _ if i == 300 => format!("'{}'", "ACGT".repeat(3000)),
                k => format!("'{}'", "GATTACA".repeat(k)),
            };
            let name = if i % 7 == 3 { "NULL".to_string() } else { format!("'n{}'", i % 13) };
            // Two keys seen once: first on the overflow row's page, which
            // is folded row by row, then on an image page.
            let org = match i {
                300 => "'rare'",
                600 => "'rarer'",
                _ => ORGS[(i * 7 / 3) % ORGS.len()],
            };
            format!("({i}, {}, {org}, {p}, {name})", i % 4)
        })
        .collect();
    for chunk in rows.chunks(150) {
        db.execute(&format!("INSERT INTO t VALUES {}", chunk.join(", "))).unwrap();
    }
    (db, counters)
}

/// A grouped statement and its per-row model: the key positions and, per
/// call, the aggregate and how its argument is read from a row of
/// `SELECT id, grp, org, p, name FROM t`.
struct Query {
    sql: &'static str,
    keys: &'static [usize],
    calls: &'static [(&'static str, Arg)],
}

#[derive(Clone, Copy)]
enum Arg {
    Star,
    Column(usize),
    Plen,
}

const QUERIES: [Query; 5] = [
    Query {
        sql: "SELECT org, count(*), sum(plen(p)), max(plen(p)), min(name) FROM t GROUP BY org",
        keys: &[2],
        calls: &[
            ("count", Arg::Star),
            ("sum", Arg::Plen),
            ("max", Arg::Plen),
            ("min", Arg::Column(4)),
        ],
    },
    Query {
        sql: "SELECT grp, org, count(p), avg(plen(p)) FROM t GROUP BY grp, org",
        keys: &[1, 2],
        calls: &[("count", Arg::Column(3)), ("avg", Arg::Plen)],
    },
    Query {
        sql: "SELECT grp, sum(id), max(org) FROM t GROUP BY grp",
        keys: &[1],
        calls: &[("sum", Arg::Column(0)), ("max", Arg::Column(2))],
    },
    Query {
        sql: "SELECT count(*), sum(plen(p)), min(org) FROM t",
        keys: &[],
        calls: &[("count", Arg::Star), ("sum", Arg::Plen), ("min", Arg::Column(2))],
    },
    // `sum` over TEXT raises; which error comes first depends on the rows.
    Query {
        sql: "SELECT org, sum(plen(p)), sum(name) FROM t GROUP BY org",
        keys: &[2],
        calls: &[("sum", Arg::Plen), ("sum", Arg::Column(4))],
    },
];

/// One group's accumulators, a call each.
type Accs = Vec<Box<dyn Accumulator>>;

/// What a per-row fold over `rows` returns for `q`: groups in first-seen
/// order, keys before arguments and calls in order on every row, so the
/// first error in row order is the one reported.
fn model(q: &Query, rows: &[Vec<Datum>]) -> DbResult<Vec<Vec<Datum>>> {
    let funcs = FunctionRegistry::with_builtins();
    let mut groups: Vec<(Vec<Datum>, Accs)> = Vec::new();
    let new_accs = || q.calls.iter().map(|(f, _)| funcs.aggregate(f).unwrap()()).collect();
    if q.keys.is_empty() {
        groups.push((Vec::new(), new_accs()));
    }
    for row in rows {
        let key: Vec<Datum> = q.keys.iter().map(|&k| row[k].clone()).collect();
        let g = match groups.iter().position(|(k, _)| *k == key) {
            Some(g) => g,
            None => {
                groups.push((key, new_accs()));
                groups.len() - 1
            }
        };
        for (ci, (func, arg)) in q.calls.iter().enumerate() {
            let value = match arg {
                Arg::Star => Datum::Int(1),
                Arg::Column(c) => row[*c].clone(),
                Arg::Plen => plen(&row[3])?,
            };
            if value.is_null() && !matches!(arg, Arg::Star) {
                continue;
            }
            groups[g].1[ci].update(&value).map_err(|e| match e {
                DbError::TypeMismatch(m) => DbError::TypeMismatch(format!("{func}(): {m}")),
                other => other,
            })?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.iter().map(|a| a.finish()));
            key
        })
        .collect())
}

fn show(r: DbResult<Vec<Vec<Datum>>>) -> String {
    match r {
        Ok(rows) => format!("{rows:?}"),
        Err(e) => format!("error: {e}"),
    }
}

/// Every query, run through `run`, against the model over the rows `run`
/// scans; returns how many queries raised.
fn check(entry: &str, run: &dyn Fn(&str) -> DbResult<ResultSet>) -> usize {
    let rows = run("SELECT id, grp, org, p, name FROM t").unwrap().rows;
    let mut errors = 0;
    for q in &QUERIES {
        let want = model(q, &rows);
        errors += usize::from(want.is_err());
        let got = run(q.sql).map(|rs| rs.rows);
        assert_eq!(show(got), show(want), "{entry}: {}", q.sql);
    }
    errors
}

#[test]
fn the_fold_returns_what_a_per_row_fold_returns() {
    let (db, counters) = table();
    let plan = db.execute(&format!("EXPLAIN {}", QUERIES[0].sql)).unwrap().explain.unwrap();
    assert!(plan.contains("Aggregate") && plan.contains("SeqScan"), "{plan}");
    // Clean: image pages, the tail page and the overflow row's page. Only
    // `sum(name)` raises.
    assert_eq!(check("clean", &|sql| db.execute(sql)), 1);
    assert!(counters.served.load(Ordering::Relaxed) > 0, "the page entry never served");
    // A dirty transaction: its own writes beside concurrent commits to
    // other rows.
    let txn = db.txn_begin();
    db.txn_execute(txn, "SELECT count(*) FROM t").unwrap();
    db.execute("DELETE FROM t WHERE id % 5 = 1").unwrap();
    db.execute("UPDATE t SET org = 'worm' WHERE id % 9 = 4").unwrap();
    for write in [
        "INSERT INTO t VALUES (1000, 1, 'human', 'GG', 'n1'), (1001, 2, NULL, NULL, NULL)",
        "UPDATE t SET p = 'CCCC' WHERE id % 8 = 6 AND id % 9 <> 4 AND id % 5 <> 1",
        "DELETE FROM t WHERE id % 10 = 7 AND id % 9 <> 4",
    ] {
        db.txn_execute(txn, write).unwrap();
    }
    assert_eq!(check("dirty transaction", &|sql| db.txn_execute(txn, sql)), 1);
    db.txn_rollback(txn).unwrap();
    assert_eq!(check("after the concurrent commits", &|sql| db.execute(sql)), 1);
    // Corrupt payloads: the page entry refuses their pages, and the per-row
    // call raises on the first of them — before or after `sum(name)` has
    // raised, depending on the row.
    db.execute("UPDATE t SET p = 'bad' WHERE id = 620 OR id = 880").unwrap();
    let refused = counters.refused.load(Ordering::Relaxed);
    assert_eq!(check("corrupt payloads", &|sql| db.execute(sql)), 4);
    assert!(counters.refused.load(Ordering::Relaxed) > refused, "no page was refused");
    db.execute("UPDATE t SET name = NULL").unwrap();
    assert_eq!(check("corrupt payloads, no names", &|sql| db.execute(sql)), 4);
}
