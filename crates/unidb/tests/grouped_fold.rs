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
    /// `DISTINCT` over a column: each non-NULL value once per group.
    Distinct(usize),
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
fn model(q: &Query, rows: &[Vec<Datum>], funcs: &FunctionRegistry) -> DbResult<Vec<Vec<Datum>>> {
    let mut groups: Vec<(Vec<Datum>, Accs, Vec<Vec<Datum>>)> = Vec::new();
    let new_accs = || q.calls.iter().map(|(f, _)| funcs.aggregate(f).unwrap()()).collect();
    let seen = || vec![Vec::new(); q.calls.len()];
    if q.keys.is_empty() {
        groups.push((Vec::new(), new_accs(), seen()));
    }
    for row in rows {
        let key: Vec<Datum> = q.keys.iter().map(|&k| row[k].clone()).collect();
        let g = match groups.iter().position(|(k, ..)| *k == key) {
            Some(g) => g,
            None => {
                groups.push((key, new_accs(), seen()));
                groups.len() - 1
            }
        };
        for (ci, (func, arg)) in q.calls.iter().enumerate() {
            let value = match arg {
                Arg::Star => Datum::Int(1),
                Arg::Column(c) | Arg::Distinct(c) => row[*c].clone(),
                Arg::Plen => plen(&row[3])?,
            };
            if value.is_null() && !matches!(arg, Arg::Star) {
                continue;
            }
            if let Arg::Distinct(_) = arg {
                let seen = &mut groups[g].2[ci];
                if seen.contains(&value) {
                    continue;
                }
                seen.push(value.clone());
            }
            groups[g].1[ci].update(&value).map_err(|e| match e {
                DbError::TypeMismatch(m) => DbError::TypeMismatch(format!("{func}(): {m}")),
                other => other,
            })?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut key, accs, _)| {
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
    check_all(
        entry,
        "SELECT id, grp, org, p, name FROM t",
        &QUERIES,
        &FunctionRegistry::with_builtins(),
        run,
    )
}

/// [`check`] for `queries` over the rows of `scan`, modelled with `funcs`.
fn check_all(
    entry: &str,
    scan: &str,
    queries: &[Query],
    funcs: &FunctionRegistry,
    run: &dyn Fn(&str) -> DbResult<ResultSet>,
) -> usize {
    let rows = run(scan).unwrap().rows;
    let mut errors = 0;
    for q in queries {
        let want = model(q, &rows, funcs);
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

/// `firstval(x)`: the first non-NULL value a group sees. A registered
/// aggregate without the typed entries, and one that shows any change in
/// the order a group's values arrive.
#[derive(Default)]
struct FirstVal(Option<Datum>);

impl Accumulator for FirstVal {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        if self.0.is_none() && !value.is_null() {
            self.0 = Some(value.clone());
        }
        Ok(())
    }
    fn finish(&self) -> Datum {
        self.0.clone().unwrap_or(Datum::Null)
    }
}

/// INT values whose sum leaves the i64 range (qdiff's `BIG_INTS`).
const BIG_INTS: [&str; 5] = [
    "9223372036854775807",
    "9223372036854775806",
    "NULL",
    "-9223372036854775807",
    "4611686018427387904",
];
/// FLOAT values whose sum depends on the order they are added in.
const FLOATS: [&str; 7] = ["1e15", "0.25", "-0.0", "NULL", "0.1", "-1e15", "3.5"];

/// `u (id, k INT, f FLOAT, g TEXT, v INT, big INT)`: 3000 rows over fourteen
/// pages, so a page holds fewer rows than `GROUP BY id` has groups; `k`
/// takes 700 values and NULL.
fn typed_table() -> Database {
    let db = Database::in_memory();
    let firstval = || Box::new(FirstVal::default()) as Box<dyn Accumulator>;
    db.register_aggregate("firstval", Arc::new(firstval)).unwrap();
    db.execute("CREATE TABLE u (id INT, k INT, f FLOAT, g TEXT, v INT, big INT)").unwrap();
    let rows: Vec<String> = (0..3000)
        .map(|i| {
            let k = if i % 13 == 5 { "NULL".to_string() } else { ((i * 37) % 700).to_string() };
            let v = if i % 7 == 2 { "NULL".to_string() } else { (i as i64 % 50 - 20).to_string() };
            let g = ORGS[(i * 3 / 7) % ORGS.len()];
            let (f, big) = (FLOATS[i % FLOATS.len()], BIG_INTS[(i / 3) % BIG_INTS.len()]);
            format!("({i}, {k}, {f}, {g}, {v}, {big})")
        })
        .collect();
    for chunk in rows.chunks(250) {
        db.execute(&format!("INSERT INTO u VALUES {}", chunk.join(", "))).unwrap();
    }
    db
}

/// Columns of `SELECT * FROM u`.
const ID: usize = 0;
const K: usize = 1;
const F: usize = 2;
const G: usize = 3;
const V: usize = 4;
const BIG: usize = 5;

const TYPED: [Query; 7] = [
    // A dictionary key.
    Query {
        sql: "SELECT g, count(*), sum(v), sum(f), sum(big), firstval(v), count(DISTINCT v) \
              FROM u GROUP BY g",
        keys: &[G],
        calls: &[
            ("count", Arg::Star),
            ("sum", Arg::Column(V)),
            ("sum", Arg::Column(F)),
            ("sum", Arg::Column(BIG)),
            ("firstval", Arg::Column(V)),
            ("count", Arg::Distinct(V)),
        ],
    },
    // An INT key of more values than the fold remembers at once.
    Query {
        sql: "SELECT k, count(*), sum(f), avg(v), min(f), max(big), firstval(f) FROM u GROUP BY k",
        keys: &[K],
        calls: &[
            ("count", Arg::Star),
            ("sum", Arg::Column(F)),
            ("avg", Arg::Column(V)),
            ("min", Arg::Column(F)),
            ("max", Arg::Column(BIG)),
            ("firstval", Arg::Column(F)),
        ],
    },
    // More groups than a page has rows.
    Query {
        sql: "SELECT id, sum(v), sum(f), count(f), avg(big) FROM u GROUP BY id",
        keys: &[ID],
        calls: &[
            ("sum", Arg::Column(V)),
            ("sum", Arg::Column(F)),
            ("count", Arg::Column(F)),
            ("avg", Arg::Column(BIG)),
        ],
    },
    // A two-column key.
    Query {
        sql: "SELECT g, k, count(v), sum(DISTINCT v), sum(f), avg(f) FROM u GROUP BY g, k",
        keys: &[G, K],
        calls: &[
            ("count", Arg::Column(V)),
            ("sum", Arg::Distinct(V)),
            ("sum", Arg::Column(F)),
            ("avg", Arg::Column(F)),
        ],
    },
    Query {
        sql: "SELECT count(*), sum(f), sum(big), avg(big), firstval(big), count(DISTINCT g) FROM u",
        keys: &[],
        calls: &[
            ("count", Arg::Star),
            ("sum", Arg::Column(F)),
            ("sum", Arg::Column(BIG)),
            ("avg", Arg::Column(BIG)),
            ("firstval", Arg::Column(BIG)),
            ("count", Arg::Distinct(G)),
        ],
    },
    Query {
        sql: "SELECT k, min(v), max(v), min(g), sum(DISTINCT f) FROM u GROUP BY k",
        keys: &[K],
        calls: &[
            ("min", Arg::Column(V)),
            ("max", Arg::Column(V)),
            ("min", Arg::Column(G)),
            ("sum", Arg::Distinct(F)),
        ],
    },
    // `sum` over TEXT raises, after the typed calls have folded.
    Query {
        sql: "SELECT k, sum(v), sum(g) FROM u GROUP BY k",
        keys: &[K],
        calls: &[("sum", Arg::Column(V)), ("sum", Arg::Column(G))],
    },
];

#[test]
fn the_typed_fold_returns_what_a_per_row_fold_returns() {
    let db = typed_table();
    let mut funcs = FunctionRegistry::with_builtins();
    let firstval = || Box::new(FirstVal::default()) as Box<dyn Accumulator>;
    funcs.register_aggregate("firstval", Arc::new(firstval)).unwrap();
    let check = |entry: &str, run: &dyn Fn(&str) -> DbResult<ResultSet>| {
        check_all(entry, "SELECT * FROM u", &TYPED, &funcs, run)
    };
    let plan = db.execute(&format!("EXPLAIN {}", TYPED[1].sql)).unwrap().explain.unwrap();
    assert!(plan.contains("Aggregate") && plan.contains("SeqScan"), "{plan}");
    // The FLOAT sums really depend on the order of their values.
    let sum = |fs: &[f64]| fs.iter().fold(0.0, |a, b| a + b);
    let mut fs: Vec<f64> = FLOATS.iter().filter_map(|f| f.parse().ok()).collect();
    let in_order = sum(&fs);
    fs.swap(1, 4);
    assert_ne!(sum(&fs), in_order, "1e15 and -1e15 cancel first");
    assert_eq!(check("clean", &|sql| db.execute(sql)), 1);
    let txn = db.txn_begin();
    db.txn_execute(txn, "SELECT count(*) FROM u").unwrap();
    db.execute("DELETE FROM u WHERE id % 11 = 3").unwrap();
    db.execute("UPDATE u SET v = 1000 WHERE id % 9 = 4").unwrap();
    for write in [
        "INSERT INTO u VALUES (5000, 1, 1e15, 'human', 7, 9223372036854775807), \
         (5001, NULL, NULL, NULL, NULL, NULL)",
        "UPDATE u SET f = 0.25, k = 699 WHERE id % 8 = 6 AND id % 9 <> 4 AND id % 11 <> 3",
        "DELETE FROM u WHERE id % 10 = 7 AND id % 9 <> 4 AND id % 11 <> 3",
    ] {
        db.txn_execute(txn, write).unwrap();
    }
    assert_eq!(check("dirty transaction", &|sql| db.txn_execute(txn, sql)), 1);
    db.txn_commit(txn).unwrap();
    assert_eq!(check("after the commit", &|sql| db.execute(sql)), 1);
}
