//! Run a scenario against the real engine and the oracle, and compare.
//!
//! Comparison rules, chosen so that every legitimate source of engine
//! nondeterminism (heap scan order, hash-group order, which rows a LIMIT
//! keeps among ties) is accepted while every genuine disagreement is
//! flagged:
//!
//! * DML: affected-row counts must match exactly.
//! * Queries without LIMIT/OFFSET: results must be equal as **multisets**
//!   (sorted under `Val::total_cmp` and compared pairwise).
//! * ORDER BY: additionally, the engine's rows must actually be sorted —
//!   checked with the NULLS-LAST-ascending comparator over the projected
//!   key columns.
//! * LIMIT/OFFSET: the engine's window must have the clamped expected
//!   size, be a sub-multiset of the oracle's full result, and — when an
//!   ORDER BY pins the window — its key columns must equal the key columns
//!   of the oracle's window at the same offsets.
//! * Errors: both sides erroring counts as agreement (messages are not
//!   compared); an engine panic is always a divergence.

use crate::oracle::{order_by_cmp, rows_equal, OracleDb, OracleOut};
use crate::{Op, Query, Scenario, Val};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use unidb::{Database, Datum};

/// One disagreement between engine and oracle.
#[derive(Debug)]
pub struct Divergence {
    /// Index into `scenario.ops` of the statement that disagreed.
    pub op_index: usize,
    /// The SQL text of that statement.
    pub sql: String,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op #{}: {}\n  sql: {}", self.op_index, self.detail, self.sql)
    }
}

/// Convert an engine datum to an oracle value. Blob/opaque values are never
/// generated, so hitting one is itself a divergence-worthy surprise.
pub fn datum_to_val(d: &Datum) -> Result<Val, String> {
    match d {
        Datum::Null => Ok(Val::Null),
        Datum::Bool(b) => Ok(Val::Bool(*b)),
        Datum::Int(i) => Ok(Val::Int(*i)),
        Datum::Float(f) => Ok(Val::Float(*f)),
        Datum::Text(s) => Ok(Val::Text(s.clone())),
        other => Err(format!("engine produced unexpected datum {other}")),
    }
}

/// Execute the scenario on a fresh in-memory database and on the oracle,
/// statement by statement. Returns the first divergence, if any.
pub fn check_scenario(sc: &Scenario) -> Option<Divergence> {
    let db = Database::in_memory();
    for (i, ddl) in sc.setup_sql().iter().enumerate() {
        if let Err(e) = db.execute(ddl) {
            return Some(Divergence {
                op_index: i,
                sql: ddl.clone(),
                detail: format!("setup DDL failed: {e}"),
            });
        }
    }
    let mut oracle = OracleDb::new(sc);
    for (i, op) in sc.ops.iter().enumerate() {
        let sql = sc.op_sql(op);
        // A panic inside the engine (debug overflow, slicing bug, …) is the
        // worst kind of divergence; catch it so the sweep keeps going and
        // the seed gets reported like any other counterexample.
        let engine = catch_unwind(AssertUnwindSafe(|| db.execute(&sql)));
        let expected = oracle.apply(sc, op);
        let detail = match (engine, expected) {
            (Err(_), _) => Some("engine panicked".to_string()),
            (Ok(Err(_)), Err(_)) => None, // both error: agreement
            (Ok(Err(e)), Ok(_)) => Some(format!("engine errored ({e}), oracle succeeded")),
            (Ok(Ok(_)), Err(e)) => Some(format!("oracle errored ({e}), engine succeeded")),
            (Ok(Ok(rs)), Ok(OracleOut::Affected(n))) => {
                if rs.affected == n {
                    None
                } else {
                    Some(format!("affected rows: engine {} vs oracle {n}", rs.affected))
                }
            }
            (Ok(Ok(rs)), Ok(OracleOut::Rows(oracle_rows))) => {
                let Op::Query(q) = op else { unreachable!("rows only come from queries") };
                let converted: Result<Vec<Vec<Val>>, String> =
                    rs.rows.iter().map(|r| r.iter().map(datum_to_val).collect()).collect();
                match converted {
                    Err(e) => Some(e),
                    Ok(engine_rows) => compare_query(q, &engine_rows, &oracle_rows)
                        .err()
                        .or_else(|| analyze_crosscheck(&db, &sql, engine_rows.len())),
                }
            }
        };
        if let Some(detail) = detail {
            return Some(Divergence { op_index: i, sql, detail });
        }
    }
    None
}

/// Re-run a query that already agreed with the oracle under
/// `EXPLAIN ANALYZE` and cross-check the runtime counters themselves:
///
/// * the root operator's `rows_out` must equal the result's row count;
/// * the planner's `upper_bound_rows` must dominate both the observed row
///   count and its own `estimate_rows` (the estimate-vs-observed check).
fn analyze_crosscheck(db: &Database, sql: &str, row_count: usize) -> Option<String> {
    let (_, stats) = match db.explain_analyze(sql) {
        Ok(analyzed) => analyzed,
        Err(e) => return Some(format!("EXPLAIN ANALYZE failed: {e}")),
    };
    if stats.rows_out as usize != row_count {
        return Some(format!(
            "ANALYZE root rows_out {} vs result row count {row_count}",
            stats.rows_out
        ));
    }
    let (estimate, upper) = match db.plan_estimate(sql) {
        Ok(bounds) => bounds,
        Err(e) => return Some(format!("plan_estimate failed: {e}")),
    };
    if row_count as f64 > upper + 0.5 {
        return Some(format!("observed {row_count} rows exceeds planner upper bound {upper}"));
    }
    if estimate > upper * 1.0001 + 1.0 {
        return Some(format!("planner estimate {estimate} exceeds its own upper bound {upper}"));
    }
    None
}

/// Compare a query's engine rows against the oracle's full (pre-window)
/// result. Public so tests can probe the rules directly.
pub fn compare_query(
    q: &Query,
    engine: &[Vec<Val>],
    oracle_full: &[Vec<Val>],
) -> Result<(), String> {
    let total = oracle_full.len();
    let windowed = q.limit.is_some() || q.offset.is_some();
    let offset = q.offset.unwrap_or(0) as usize;
    let expected_len = if windowed {
        let after_skip = total.saturating_sub(offset);
        match q.limit {
            Some(n) => after_skip.min(n as usize),
            None => after_skip,
        }
    } else {
        total
    };
    if engine.len() != expected_len {
        return Err(format!("row count: engine {} vs expected {expected_len}", engine.len()));
    }

    // ORDER BY: the engine's output must be sorted by the projected keys.
    if !q.order_by.is_empty() {
        for pair in engine.windows(2) {
            if key_cmp(q, &pair[0], &pair[1]) == Ordering::Greater {
                return Err(format!("ORDER BY violated between {:?} and {:?}", pair[0], pair[1]));
            }
        }
    }

    if !windowed {
        // Full comparison: multiset equality.
        if !multiset_eq(engine, oracle_full) {
            return Err(format!(
                "result multiset mismatch: engine {engine:?} vs oracle {oracle_full:?}"
            ));
        }
        return Ok(());
    }

    // Windowed: the engine's rows must all exist in the oracle's full
    // result (with multiplicity)…
    if !multiset_contains(oracle_full, engine) {
        return Err(format!(
            "window rows not a sub-multiset of the full result: engine {engine:?} vs full {oracle_full:?}"
        ));
    }
    // …and when sorted, the window is pinned up to ties: the ORDER BY key
    // columns of the engine window must equal those of the oracle's window
    // (the oracle rows are already sorted).
    if !q.order_by.is_empty() {
        let oracle_window = &oracle_full[offset.min(total)..(offset + expected_len).min(total)];
        for (e, o) in engine.iter().zip(oracle_window) {
            for (idx, _) in &q.order_by {
                if e[*idx].total_cmp(&o[*idx]) != Ordering::Equal {
                    return Err(format!(
                        "window keys differ: engine row {e:?} vs expected keys of {o:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn key_cmp(q: &Query, a: &[Val], b: &[Val]) -> Ordering {
    for (idx, asc) in &q.order_by {
        let ord = order_by_cmp(&a[*idx], &b[*idx]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn row_cmp(a: &[Val], b: &[Val]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn sorted(rows: &[Vec<Val>]) -> Vec<&Vec<Val>> {
    let mut v: Vec<&Vec<Val>> = rows.iter().collect();
    v.sort_by(|a, b| row_cmp(a, b));
    v
}

fn multiset_eq(a: &[Vec<Val>], b: &[Vec<Val>]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    sorted(a).iter().zip(sorted(b)).all(|(x, y)| rows_equal(x, y))
}

/// Is `small` a sub-multiset of `big`?
fn multiset_contains(big: &[Vec<Val>], small: &[Vec<Val>]) -> bool {
    let big = sorted(big);
    let small = sorted(small);
    let mut bi = 0;
    'outer: for s in small {
        while bi < big.len() {
            match row_cmp(big[bi], s) {
                Ordering::Less => bi += 1,
                Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Proj, QExpr};

    fn plain_query(order_by: Vec<(usize, bool)>, limit: Option<u64>, offset: Option<u64>) -> Query {
        Query {
            table: 0,
            join: None,
            distinct: false,
            proj: Proj::Plain(vec![QExpr::Col("a".into())]),
            filter: None,
            order_by,
            limit,
            offset,
        }
    }

    fn rows(vals: &[i64]) -> Vec<Vec<Val>> {
        vals.iter().map(|v| vec![Val::Int(*v)]).collect()
    }

    #[test]
    fn multiset_comparison_ignores_order() {
        let q = plain_query(vec![], None, None);
        assert!(compare_query(&q, &rows(&[3, 1, 2]), &rows(&[1, 2, 3])).is_ok());
        assert!(compare_query(&q, &rows(&[3, 1]), &rows(&[1, 2, 3])).is_err());
        assert!(compare_query(&q, &rows(&[1, 1, 2]), &rows(&[1, 2, 2])).is_err());
    }

    #[test]
    fn order_by_requires_sortedness() {
        let q = plain_query(vec![(0, true)], None, None);
        assert!(compare_query(&q, &rows(&[1, 2, 3]), &rows(&[1, 2, 3])).is_ok());
        assert!(compare_query(&q, &rows(&[2, 1, 3]), &rows(&[1, 2, 3])).is_err());
        // NULLS LAST under ascending order.
        let with_null = vec![vec![Val::Int(1)], vec![Val::Null]];
        assert!(compare_query(&q, &with_null, &with_null).is_ok());
        let null_first = vec![vec![Val::Null], vec![Val::Int(1)]];
        assert!(compare_query(&q, &null_first, &with_null).is_err());
    }

    #[test]
    fn windows_check_count_containment_and_keys() {
        // LIMIT 2 over {1,2,2,3} sorted ascending must yield keys (1, 2).
        let q = plain_query(vec![(0, true)], Some(2), None);
        let full = rows(&[1, 2, 2, 3]);
        assert!(compare_query(&q, &rows(&[1, 2]), &full).is_ok());
        assert!(compare_query(&q, &rows(&[2, 3]), &full).is_err(), "wrong window keys");
        assert!(compare_query(&q, &rows(&[1]), &full).is_err(), "short window");
        assert!(compare_query(&q, &rows(&[1, 9]), &full).is_err(), "foreign row");
        // OFFSET past the end clamps to empty.
        let q = plain_query(vec![(0, true)], Some(5), Some(10));
        assert!(compare_query(&q, &[], &full).is_ok());
        // Unordered LIMIT accepts any sub-multiset of the right size.
        let q = plain_query(vec![], Some(2), None);
        assert!(compare_query(&q, &rows(&[3, 1]), &full).is_ok());
        assert!(compare_query(&q, &rows(&[3, 4]), &full).is_err());
    }
}
