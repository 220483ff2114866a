//! One lex per statement: however a statement is spelled, its tokens are
//! its identity — one cache entry, one `SHOW WORKLOAD` shape — and the
//! cache and workload counters obey conservation laws under a seeded
//! stream and under concurrent DML and DDL.

use genalg_server::{Lang, QueryService, ServerConfig, ServerError, SessionId, SessionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use unidb::{Database, Datum, DbError, Role};

fn service() -> QueryService {
    let db = Arc::new(Database::in_memory());
    let m = &Role::Maintainer;
    db.execute_as("CREATE TABLE t (k INT, v INT, organism TEXT)", m).unwrap();
    db.execute_as("CREATE INDEX ON t (k)", m).unwrap();
    db.execute_as("INSERT INTO t VALUES (1, 10, 'org--1'), (2, 20, 'org-2'), (3, 30, NULL)", m)
        .unwrap();
    QueryService::new(db, &ServerConfig::default())
}

fn stat(svc: &QueryService, name: &str) -> u64 {
    svc.snapshot().value(name).unwrap_or_else(|| panic!("no stat {name}"))
}

/// `[result hits, result misses, plan hits, plan misses]`.
fn tiers(svc: &QueryService) -> [u64; 4] {
    ["cache_result_hits", "cache_result_misses", "cache_plan_hits", "cache_plan_misses"]
        .map(|name| stat(svc, name))
}

/// `SHOW WORKLOAD` rows as `(query, calls, errors)`.
fn workload(svc: &QueryService, s: SessionId) -> Vec<(String, i64, i64)> {
    let rs = svc.execute(s, Lang::Sql, "SHOW WORKLOAD").unwrap();
    rs.rows
        .iter()
        .map(|r| match (&r[1], &r[2], &r[3]) {
            (Datum::Text(q), Datum::Int(calls), Datum::Int(errors)) => (q.clone(), *calls, *errors),
            other => panic!("bad workload row {other:?}"),
        })
        .collect()
}

#[test]
fn spelling_comments_and_dashes_in_strings_share_one_entry() {
    let svc = service();
    let s = svc.open_session(SessionKind::Maintainer);
    const MISS: [u64; 4] = [0, 1, 0, 1];
    const HIT: [u64; 4] = [1, 0, 0, 0];
    for (sql, delta, v) in [
        ("SELECT v FROM t WHERE k = 1", MISS, 10),
        ("select v from t where k=1", HIT, 10),
        ("SELECT v FROM t WHERE k = 1 -- it's hot", HIT, 10),
        ("SELECT v FROM t WHERE k = 2", MISS, 20),
        ("SELECT v FROM t WHERE organism = 'org--1'", MISS, 10),
        ("SELECT v FROM t WHERE organism = 'org--1'", HIT, 10),
    ] {
        let before = tiers(&svc);
        let rs = svc.execute(s, Lang::Sql, sql).unwrap();
        assert_eq!(rs.rows, vec![vec![Datum::Int(v)]], "{sql}");
        let after = tiers(&svc);
        assert_eq!(std::array::from_fn(|i| after[i] - before[i]), delta, "{sql}");
    }
    let k_shapes: Vec<_> =
        workload(&svc, s).into_iter().filter(|(q, ..)| q.contains("where k")).collect();
    assert_eq!(k_shapes, vec![("select v from t where k = ?".to_string(), 4, 0)]);
}

#[test]
fn unlexable_text_fails_with_parse_and_counts_once() {
    let svc = service();
    let m = svc.open_session(SessionKind::Maintainer);
    let err = svc.execute(m, Lang::Sql, "SELECT 'oops").unwrap_err();
    assert!(
        matches!(&err, ServerError::Db(DbError::Parse(msg)) if msg == "unterminated string literal"),
        "got {err:?}"
    );
    // A public session's unlexable write is a `Parse` error, not
    // `ReadOnly`: text is lexed before it is routed.
    let public = svc.open_session(SessionKind::Public);
    let err = svc.execute(public, Lang::Sql, "INSERT 'x").unwrap_err();
    assert!(matches!(err, ServerError::Db(DbError::Parse(_))), "got {err:?}");
    let rows = workload(&svc, m);
    assert_eq!(
        rows,
        vec![("INSERT 'x".to_string(), 1, 1), ("SELECT 'oops".to_string(), 1, 1)],
        "each counted once, as an error, under its raw text"
    );
    assert_eq!(stat(&svc, "query_err"), 2);
    assert_eq!(tiers(&svc), [0, 0, 0, 0], "neither reached the cache");
}

/// What a stream of statements should have moved.
#[derive(Default, Debug)]
struct Expected {
    /// Lexable autocommit `SELECT`s: each probes the cache once.
    cacheable: u64,
    /// Statements past routing (everything but `SHOW` and transaction
    /// control), errors and unlexable text included.
    query_path: u64,
    /// DDL statements, which can make an in-flight plan stale.
    ddl: u64,
}

/// One statement of a seeded stream on session `s` (inside `in_txn` when
/// the session holds a transaction). A `BEGIN` or `COMMIT` step returns
/// the session's new transaction state.
fn step(
    svc: &QueryService,
    s: SessionId,
    rng: &mut StdRng,
    tag: usize,
    in_txn: bool,
    exp: &mut Expected,
) -> Option<bool> {
    let k = rng.gen_range(0..8u32);
    let (sql, cacheable, ddl) = match rng.gen_range(0..14u32) {
        0..=2 => (format!("SELECT v FROM t WHERE k = {k}"), true, false),
        3 => (format!("select  V from T where K={k} -- 'k' again"), true, false),
        4 => (format!("SELECT count(*) FROM t WHERE v > {}.5", k * 5), true, false),
        // Distinct shapes, enough to overflow the workload registry.
        5 | 6 => (format!("SELECT v AS a{} FROM t", rng.gen_range(0..100_000u32)), true, false),
        7 => ("SELECT FROM t".to_string(), true, false),
        8 => ("SELECT 'oops".to_string(), false, false),
        9 => (format!("UPDATE t SET v = v + 1 WHERE k = {k}"), false, false),
        10 => (format!("INSERT INTO t VALUES ({k}, {k}, 'org-{k}')"), false, false),
        11 => (format!("EXPLAIN SELECT v FROM t WHERE k = {k}"), false, false),
        12 => {
            let sql = if rng.gen_bool(0.5) {
                format!("CREATE TABLE x{tag}_{k} (a INT)")
            } else {
                format!("DROP TABLE x{tag}_{k}")
            };
            (sql, false, !in_txn)
        }
        _ => {
            let sql = if in_txn { "COMMIT" } else { "BEGIN" };
            let _ = svc.execute(s, Lang::Sql, sql);
            let _ = svc.execute(s, Lang::Sql, "SHOW STATS");
            return Some(!in_txn);
        }
    };
    let _ = svc.execute(s, Lang::Sql, &sql);
    exp.cacheable += u64::from(cacheable && !in_txn);
    exp.query_path += 1;
    exp.ddl += u64::from(ddl);
    None
}

fn run_stream(svc: &QueryService, seed: u64, tag: usize, statements: usize) -> Expected {
    let s = svc.open_session(SessionKind::Maintainer);
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut exp, mut in_txn) = (Expected::default(), false);
    for _ in 0..statements {
        if let Some(now_in_txn) = step(svc, s, &mut rng, tag, in_txn, &mut exp) {
            in_txn = now_in_txn;
        }
    }
    if in_txn {
        let _ = svc.execute(s, Lang::Sql, "ROLLBACK");
    }
    exp
}

fn check_laws(svc: &QueryService, exp: &Expected, stale_bound: u64) {
    let [result_hits, result_misses, plan_hits, plan_misses] = tiers(svc);
    assert_eq!(result_hits + result_misses, exp.cacheable, "every cacheable SELECT probes once");
    let retries = (plan_hits + plan_misses).checked_sub(result_misses).expect("a plan per miss");
    assert!(retries <= stale_bound.min(result_misses), "{retries} stale retries");
    let (results, plans) = (stat(svc, "cache_result_entries"), stat(svc, "cache_plan_entries"));
    assert!(results <= plans && plans <= 256, "{results} results, {plans} plans");
    let s = svc.open_session(SessionKind::Maintainer);
    let calls: i64 = workload(svc, s).iter().map(|(_, calls, _)| calls).sum();
    let overflow = stat(svc, "obs_fingerprint_overflow");
    assert!(overflow > 0, "the stream overflows the registry");
    assert_eq!(calls as u64 + overflow, exp.query_path, "each statement recorded once");
}

#[test]
fn cache_and_workload_counters_are_conserved() {
    let svc = service();
    let serial = run_stream(&svc, 42, 0, 3_000);
    // One session, no concurrent DDL: no plan can go stale.
    check_laws(&svc, &serial, 0);

    let svc = Arc::new(svc);
    let sessions: Vec<_> = (1..=8)
        .map(|tag| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || run_stream(&svc, 1_000 + tag as u64, tag, 400))
        })
        .collect();
    let mut total = serial;
    for session in sessions {
        let exp = session.join().expect("session thread");
        total.cacheable += exp.cacheable;
        total.query_path += exp.query_path;
        total.ddl += exp.ddl;
    }
    assert!(total.ddl > 0);
    // A statement retries at most once, and only past a DDL that landed
    // while one of the 8 sessions had it in flight.
    check_laws(&svc, &total, total.ddl * 8);
}
