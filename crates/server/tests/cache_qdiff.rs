//! qdiff-driven result-cache correctness.
//!
//! A [`QueryService`] and its database: ground truth runs each statement
//! through the engine directly (every query plans and executes, no cache).
//! We drive generated scenarios through the service and, after every DML
//! statement, replay every SELECT seen so far on both. If the
//! generation-counter invalidation ever serves a stale cached result, the
//! two sides disagree and the seed pinpoints the statement interleaving.
//!
//! The cache keys on a statement's tokens, so every generated `SELECT` is
//! also run respelled — other spacing, other keyword case, a trailing
//! comment — and must be a result hit, and run as literal-type twins (`1`,
//! `1.0`, `'1'`, `NULL`, strings with `''` escapes), which must never share
//! an entry. `QDIFF_CACHE_SEEDS` sets the seed count (default 24).

use genalg_server::{Lang, QueryService, ServerConfig, ServerResult, SessionId, SessionKind};
use qdiff::{gen_scenario, Op};
use std::collections::HashSet;
use std::sync::Arc;
use unidb::sql::{lex, Token};
use unidb::{Database, DbResult, ResultSet, Role};

/// The cached service and, for ground truth, the engine it runs on: a
/// maintainer session's statements run as the maintainer role.
fn services() -> (QueryService, impl Fn(&str) -> DbResult<ResultSet>) {
    let db = Arc::new(Database::in_memory());
    let cached = QueryService::new(Arc::clone(&db), &ServerConfig::default());
    (cached, move |sql: &str| db.execute_as(sql, &Role::Maintainer))
}

#[test]
fn cached_selects_never_go_stale_under_fuzzed_dml() {
    let seeds = std::env::var("QDIFF_CACHE_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(24);
    for seed in 0..seeds {
        let sc = gen_scenario(seed);
        let (cached, truth) = services();
        let cs = cached.open_session(SessionKind::Maintainer);

        for ddl in sc.setup_sql() {
            cached.execute(cs, Lang::Sql, &ddl).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }

        let mut seen_selects: Vec<String> = Vec::new();
        // Token streams run so far: a twin outside this set must miss.
        let mut seen_tokens = HashSet::new();
        for op in &sc.ops {
            let sql = sc.op_sql(op);
            if let Op::Query(_) = op {
                // Run it twice through the cached side so the second run is
                // a cache hit, then once on the engine; all three must agree.
                let first = cached.execute(cs, Lang::Sql, &sql);
                let hit = cached.execute(cs, Lang::Sql, &sql);
                let want = truth(&sql);
                match (&first, &hit, &want) {
                    (Ok(a), Ok(b), Ok(t)) => {
                        assert_eq!(a.rows, b.rows, "seed {seed}: cache hit differs: {sql}");
                        assert_eq!(
                            sorted(&a.rows),
                            sorted(&t.rows),
                            "seed {seed}: cached vs engine differ: {sql}"
                        );
                    }
                    (Err(_), Err(_), Err(_)) => {}
                    _ => panic!(
                        "seed {seed}: error disagreement on {sql}: first={first:?} hit={hit:?} truth={want:?}"
                    ),
                }
                seen_tokens.insert(identity(&sql));
                let respelled = respell(&sql);
                let (variant, hits) = counted(&cached, cs, &respelled);
                if let Ok(first) = &first {
                    assert_eq!(hits, 1, "seed {seed}: respelling missed: {respelled}");
                    assert_eq!(variant.ok().as_ref(), Some(first), "seed {seed}: {respelled}");
                }
                for twin in twins(&sql) {
                    let (got, hits) = counted(&cached, cs, &twin);
                    if seen_tokens.insert(identity(&twin)) {
                        assert_eq!(hits, 0, "seed {seed}: twin `{twin}` shared `{sql}`'s entry");
                    }
                    match (&got, &truth(&twin)) {
                        (Ok(c), Ok(t)) => assert_eq!(
                            sorted(&c.rows),
                            sorted(&t.rows),
                            "seed {seed}: cached vs engine differ: {twin}"
                        ),
                        (Err(_), Err(_)) => {}
                        (c, t) => panic!("seed {seed}: error disagreement on {twin}: {c:?} {t:?}"),
                    }
                }
                seen_selects.push(sql);
            } else {
                // DML goes through the cached service (shared database, so
                // it must run exactly once); afterwards every previously
                // cached SELECT must reflect the new state.
                let r = cached.execute(cs, Lang::Sql, &sql);
                if r.is_err() {
                    // Generated DML only errors when a filter errors, in
                    // which case the statement was a no-op on both sides.
                    continue;
                }
                for sel in &seen_selects {
                    let c = cached.execute(cs, Lang::Sql, sel);
                    let t = truth(sel);
                    match (&c, &t) {
                        (Ok(c), Ok(t)) => assert_eq!(
                            sorted(&c.rows),
                            sorted(&t.rows),
                            "seed {seed}: stale cached result after `{sql}` for `{sel}`"
                        ),
                        (Err(_), Err(_)) => {}
                        _ => panic!(
                            "seed {seed}: error disagreement replaying `{sel}` after `{sql}`"
                        ),
                    }
                }
            }
        }
    }
}

/// Run `sql` on the cached service; also return the result hits it added.
fn counted(svc: &QueryService, s: SessionId, sql: &str) -> (ServerResult<ResultSet>, u64) {
    let hits = || svc.snapshot().value("cache_result_hits").unwrap();
    let before = hits();
    let got = svc.execute(s, Lang::Sql, sql);
    (got, hits() - before)
}

/// What the cache may treat as one statement: its tokens, words
/// case-folded, trailing semicolons dropped.
fn identity(sql: &str) -> String {
    let mut tokens = lex(sql).unwrap_or_default();
    while tokens.last() == Some(&Token::Semicolon) {
        tokens.pop();
    }
    for t in &mut tokens {
        if let Token::Word(w) = t {
            *w = w.to_ascii_lowercase();
        }
    }
    format!("{tokens:?}")
}

/// The same statement spelled differently: wider spacing, letter case
/// swapped outside string literals, and a comment with an apostrophe.
fn respell(sql: &str) -> String {
    let mut out = String::new();
    let mut in_string = false;
    for c in sql.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                out.push(c);
            }
            _ if in_string => out.push(c),
            ' ' => out.push_str("  \n\t"),
            '(' => out.push_str("( "),
            ',' => out.push_str(" , "),
            c if c.is_ascii_lowercase() => out.push(c.to_ascii_uppercase()),
            c => out.push(c.to_ascii_lowercase()),
        }
    }
    out + " -- it's respelled"
}

/// Copies of `sql` with one of its first two literals retyped: `7` → `7.0`,
/// `'7'`, `NULL`; `2.5` → `2`, `'2.5'`, `NULL`; `'a'` → `'''a'`, `'a'''`,
/// `NULL`.
fn twins(sql: &str) -> Vec<String> {
    let bytes = sql.as_bytes();
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let (mut out, mut literals, mut i) = (Vec::new(), 0, 0);
    while i < bytes.len() && literals < 2 {
        let start = i;
        let wordy = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let retyped = if bytes[i] == b'\'' {
            // To the closing quote, stepping over `''` escapes.
            i += 1;
            while bytes[i] != b'\'' || bytes.get(i + 1) == Some(&b'\'') {
                i += if bytes[i] == b'\'' { 2 } else { 1 };
            }
            i += 1;
            let inner = &sql[start + 1..i - 1];
            vec![format!("'''{inner}'"), format!("'{inner}'''")]
        } else if bytes[i].is_ascii_digit() && (start == 0 || !wordy(bytes[start - 1])) {
            i = digits(i);
            let int = &sql[start..i];
            if bytes.get(i) == Some(&b'.') {
                i = digits(i + 1);
            }
            if matches!(bytes.get(i), Some(b'e' | b'E')) {
                i = digits(i + 1 + usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-'))));
            }
            let text = &sql[start..i];
            let retyped = if int == text { format!("{text}.0") } else { int.to_string() };
            vec![retyped, format!("'{text}'")]
        } else {
            i += 1;
            continue;
        };
        literals += 1;
        let (head, tail) = (&sql[..start], &sql[i..]);
        out.extend(
            retyped.iter().chain(["NULL".to_string()].iter()).map(|l| format!("{head}{l}{tail}")),
        );
    }
    out
}

/// Order-insensitive comparison: scan order is legitimate nondeterminism,
/// staleness is not. Debug strings give a total order without requiring
/// `Ord` on datums (no NaNs are generated).
fn sorted(rows: &[Vec<unidb::Datum>]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    v.sort();
    v
}
