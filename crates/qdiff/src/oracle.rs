//! The reference oracle: a naive, independent interpreter for generated
//! scenarios.
//!
//! Nothing here touches unidb's planner or executor — tables are plain
//! `Vec<Vec<Val>>`, joins are nested loops, aggregation is a linear group
//! scan. The only thing it shares with the engine is the *documented
//! semantics contract* (DESIGN.md): three-valued logic, `Datum::total_cmp`
//! value ordering, NULLS LAST under ascending ORDER BY, i128 `sum`/`avg`
//! accumulation with float widening, LIKE with ESCAPE. If the engine and
//! this interpreter disagree, one of them is wrong — and this one is small
//! enough to audit by eye.

use crate::{AggFunc, AggSpec, JoinKind, Op, Proj, QExpr, QOp, Query, Scenario, SetSrc, Val};
use std::cmp::Ordering;

/// Oracle-side database state: one row store per scenario table.
pub struct OracleDb {
    tables: Vec<Vec<Vec<Val>>>,
}

/// What one op produced.
pub enum OracleOut {
    /// DML: number of affected rows.
    Affected(u64),
    /// Query: the full result *before* LIMIT/OFFSET, sorted when the query
    /// has an ORDER BY. The differ owns the windowing comparison.
    Rows(Vec<Vec<Val>>),
}

impl OracleDb {
    pub fn new(sc: &Scenario) -> Self {
        OracleDb { tables: vec![Vec::new(); sc.tables.len()] }
    }

    /// Execute one op. `Err` models a statement-level SQL error; the differ
    /// treats "both sides errored" as agreement without comparing messages.
    pub fn apply(&mut self, sc: &Scenario, op: &Op) -> Result<OracleOut, String> {
        match op {
            Op::Insert { table, rows } => {
                for r in rows {
                    self.tables[*table].push(r.clone());
                }
                Ok(OracleOut::Affected(rows.len() as u64))
            }
            Op::Update { table, sets, filter } => {
                let names: Vec<String> =
                    sc.tables[*table].cols.iter().map(|c| c.name.clone()).collect();
                let matched = self.matching(*table, &names, filter.as_ref())?;
                for &i in &matched {
                    let old = self.tables[*table][i].clone();
                    for (col, src) in sets {
                        self.tables[*table][i][*col] = match src {
                            SetSrc::Lit(v) => v.clone(),
                            SetSrc::Col(c) => old[*c].clone(),
                        };
                    }
                }
                Ok(OracleOut::Affected(matched.len() as u64))
            }
            Op::Delete { table, filter } => {
                let names: Vec<String> =
                    sc.tables[*table].cols.iter().map(|c| c.name.clone()).collect();
                let matched = self.matching(*table, &names, filter.as_ref())?;
                let n = matched.len() as u64;
                let keep: Vec<Vec<Val>> = self.tables[*table]
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !matched.contains(i))
                    .map(|(_, r)| r.clone())
                    .collect();
                self.tables[*table] = keep;
                Ok(OracleOut::Affected(n))
            }
            Op::Query(q) => self.query(sc, q).map(OracleOut::Rows),
        }
    }

    /// Indices of rows whose filter evaluates to TRUE. Errors if the filter
    /// errors on *any* row — mirroring the engine, which collects matches
    /// before mutating, so a filter error aborts the whole statement.
    fn matching(
        &self,
        table: usize,
        names: &[String],
        filter: Option<&QExpr>,
    ) -> Result<Vec<usize>, String> {
        let mut out = Vec::new();
        for (i, row) in self.tables[table].iter().enumerate() {
            let keep = match filter {
                None => true,
                Some(f) => matches!(eval(f, names, row)?, Val::Bool(true)),
            };
            if keep {
                out.push(i);
            }
        }
        Ok(out)
    }

    fn query(&self, sc: &Scenario, q: &Query) -> Result<Vec<Vec<Val>>, String> {
        // FROM: base rows, joined by nested loop if requested.
        let base = &sc.tables[q.table];
        let mut names: Vec<String> = base.cols.iter().map(|c| c.name.clone()).collect();
        let mut rows: Vec<Vec<Val>> = self.tables[q.table].clone();
        if let Some(j) = &q.join {
            let right_tbl = &sc.tables[j.table];
            let right_names: Vec<String> = right_tbl.cols.iter().map(|c| c.name.clone()).collect();
            let right_rows = &self.tables[j.table];
            let mut joined_names = names.clone();
            joined_names.extend(right_names.clone());
            let mut joined = Vec::new();
            for l in &rows {
                let mut matched = false;
                for r in right_rows {
                    let keep = match (&j.kind, &j.on) {
                        (JoinKind::Cross, _) => true,
                        (_, Some((lc, rc))) => {
                            let lv = resolve(&names, l, lc)
                                .or_else(|| resolve(&right_names, r, lc))
                                .ok_or_else(|| format!("unknown join column {lc}"))?;
                            let rv = resolve(&right_names, r, rc)
                                .or_else(|| resolve(&names, l, rc))
                                .ok_or_else(|| format!("unknown join column {rc}"))?;
                            // SQL equality: NULL keys never match.
                            !lv.is_null() && !rv.is_null() && lv.total_cmp(rv) == Ordering::Equal
                        }
                        (_, None) => return Err("non-cross join without ON".into()),
                    };
                    if keep {
                        matched = true;
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        joined.push(row);
                    }
                }
                if !matched && j.kind == JoinKind::Left {
                    let mut row = l.clone();
                    row.resize(row.len() + right_names.len(), Val::Null);
                    joined.push(row);
                }
            }
            names = joined_names;
            rows = joined;
        }

        // WHERE.
        if let Some(f) = &q.filter {
            let mut kept = Vec::new();
            for row in rows {
                if matches!(eval(f, &names, &row)?, Val::Bool(true)) {
                    kept.push(row);
                }
            }
            rows = kept;
        }

        // Projection or aggregation.
        let mut out: Vec<Vec<Val>> = match &q.proj {
            Proj::Plain(exprs) => {
                let mut out = Vec::with_capacity(rows.len());
                for row in &rows {
                    let mut proj = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        proj.push(eval(e, &names, row)?);
                    }
                    out.push(proj);
                }
                out
            }
            Proj::Agg { group, aggs } => aggregate(&names, &rows, group, aggs)?,
        };

        // DISTINCT: keep the first row of each total_cmp-equal class.
        if q.distinct {
            let mut kept: Vec<Vec<Val>> = Vec::new();
            for row in out {
                if !kept.iter().any(|k| rows_equal(k, &row)) {
                    kept.push(row);
                }
            }
            out = kept;
        }

        // ORDER BY over output columns: NULLS LAST ascending, reversed for
        // descending; stable, so ties keep their prior order.
        if !q.order_by.is_empty() {
            out.sort_by(|a, b| {
                for (idx, asc) in &q.order_by {
                    let ord = order_by_cmp(&a[*idx], &b[*idx]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        Ok(out)
    }
}

/// Mirror of `unidb::exec::order_by_cmp` (independently stated): NULL is
/// the largest value under ascending order, and an INT and a FLOAT equal
/// as `f64` are ordered by exact value, so the order is total.
pub fn order_by_cmp(a: &Val, b: &Val) -> Ordering {
    // An INT against a FLOAT holding an integer is compared in i128,
    // where both are exact; any other pair as `total_cmp` orders it.
    let exact = |i: i64, f: f64| {
        let fits = f.fract() == 0.0 && f.abs() <= 2f64.powi(63);
        match (i as f64).total_cmp(&f) {
            Ordering::Equal if fits => (i as i128).cmp(&(f as i128)),
            o => o,
        }
    };
    match (a, b) {
        (Val::Null, Val::Null) => Ordering::Equal,
        (Val::Null, _) => Ordering::Greater,
        (_, Val::Null) => Ordering::Less,
        (Val::Int(i), Val::Float(f)) => exact(*i, *f),
        (Val::Float(f), Val::Int(i)) => exact(*i, *f).reverse(),
        _ => a.total_cmp(b),
    }
}

/// Whole-row equality under SQL value comparison (Int 3 == Float 3.0).
pub fn rows_equal(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.total_cmp(y) == Ordering::Equal)
}

fn resolve<'a>(names: &[String], row: &'a [Val], col: &str) -> Option<&'a Val> {
    names.iter().position(|n| n == col).map(|i| &row[i])
}

// ---- aggregation -----------------------------------------------------------

fn aggregate(
    names: &[String],
    rows: &[Vec<Val>],
    group: &[String],
    aggs: &[AggSpec],
) -> Result<Vec<Vec<Val>>, String> {
    // Group rows by their key values, first-seen order, total_cmp equality
    // (so Int and Float keys with equal value share a group, and all NULLs
    // form one group).
    let mut keys: Vec<Vec<Val>> = Vec::new();
    let mut buckets: Vec<Vec<&Vec<Val>>> = Vec::new();
    for row in rows {
        let key: Vec<Val> = group
            .iter()
            .map(|g| resolve(names, row, g).cloned().ok_or_else(|| format!("unknown column {g}")))
            .collect::<Result<_, _>>()?;
        match keys.iter().position(|k| rows_equal(k, &key)) {
            Some(i) => buckets[i].push(row),
            None => {
                keys.push(key);
                buckets.push(vec![row]);
            }
        }
    }
    // A global aggregate over zero rows still produces one row.
    if group.is_empty() && keys.is_empty() {
        keys.push(Vec::new());
        buckets.push(Vec::new());
    }

    let mut out = Vec::with_capacity(keys.len());
    for (key, bucket) in keys.into_iter().zip(buckets) {
        let mut row = key;
        for a in aggs {
            row.push(agg_one(names, &bucket, a)?);
        }
        out.push(row);
    }
    Ok(out)
}

fn agg_one(names: &[String], bucket: &[&Vec<Val>], spec: &AggSpec) -> Result<Val, String> {
    // Collect the argument values, skipping NULLs (every aggregate here
    // ignores NULL inputs; count(*) counts rows).
    let values: Vec<Val> = match &spec.col {
        None => return Ok(Val::Int(bucket.len() as i64)),
        Some(col) => bucket
            .iter()
            .map(|row| {
                resolve(names, row, col).cloned().ok_or_else(|| format!("unknown column {col}"))
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .filter(|v| !v.is_null())
            .collect(),
    };
    match spec.func {
        AggFunc::Count => Ok(Val::Int(values.len() as i64)),
        AggFunc::Sum => {
            // i128 accumulation; a total past i64 widens to FLOAT.
            let mut int_sum: i128 = 0;
            let mut float_sum = 0.0f64;
            let mut saw_float = false;
            for v in &values {
                match v {
                    Val::Int(i) => int_sum += *i as i128,
                    Val::Float(f) => {
                        float_sum += f;
                        saw_float = true;
                    }
                    other => return Err(format!("sum over non-number {other:?}")),
                }
            }
            if values.is_empty() {
                Ok(Val::Null)
            } else if saw_float {
                Ok(Val::Float(float_sum + int_sum as f64))
            } else if let Ok(i) = i64::try_from(int_sum) {
                Ok(Val::Int(i))
            } else {
                Ok(Val::Float(int_sum as f64))
            }
        }
        AggFunc::Avg => {
            let mut int_sum: i128 = 0;
            let mut float_sum = 0.0f64;
            for v in &values {
                match v {
                    Val::Int(i) => int_sum += *i as i128,
                    Val::Float(f) => float_sum += f,
                    other => return Err(format!("avg over non-number {other:?}")),
                }
            }
            if values.is_empty() {
                Ok(Val::Null)
            } else {
                Ok(Val::Float((int_sum as f64 + float_sum) / values.len() as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let want_min = matches!(spec.func, AggFunc::Min);
            let mut best: Option<Val> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take = if want_min {
                            v.total_cmp(&b) == Ordering::Less
                        } else {
                            v.total_cmp(&b) == Ordering::Greater
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Val::Null))
        }
    }
}

// ---- scalar evaluation -----------------------------------------------------

/// Evaluate a scalar expression against one row with three-valued logic.
pub fn eval(e: &QExpr, names: &[String], row: &[Val]) -> Result<Val, String> {
    match e {
        QExpr::Lit(v) => Ok(v.clone()),
        QExpr::Col(name) => {
            resolve(names, row, name).cloned().ok_or_else(|| format!("unknown column {name}"))
        }
        QExpr::Neg(inner) => match eval(inner, names, row)? {
            Val::Null => Ok(Val::Null),
            Val::Int(i) => i.checked_neg().map(Val::Int).ok_or_else(|| "overflow".to_string()),
            Val::Float(f) => Ok(Val::Float(-f)),
            other => Err(format!("cannot negate {other:?}")),
        },
        QExpr::Not(inner) => Ok(match bool3(eval(inner, names, row)?)? {
            None => Val::Null,
            Some(b) => Val::Bool(!b),
        }),
        QExpr::Bin(op, l, r) => eval_bin(*op, l, r, names, row),
        QExpr::IsNull { expr, negated } => {
            let v = eval(expr, names, row)?;
            Ok(Val::Bool(v.is_null() != *negated))
        }
        QExpr::InList { expr, list, negated } => {
            let v = eval(expr, names, row)?;
            if v.is_null() {
                return Ok(Val::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, names, row)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.total_cmp(&w) == Ordering::Equal {
                    return Ok(Val::Bool(!*negated));
                }
            }
            if saw_null {
                Ok(Val::Null)
            } else {
                Ok(Val::Bool(*negated))
            }
        }
        QExpr::Between { expr, lo, hi, negated } => {
            let v = eval(expr, names, row)?;
            let l = eval(lo, names, row)?;
            let h = eval(hi, names, row)?;
            // Desugars to `v >= lo AND v <= hi` under 3VL: one FALSE leg
            // forces FALSE even when the other bound is NULL.
            let ge = cmp3(&v, &l).map(|o| o != Ordering::Less);
            let le = cmp3(&v, &h).map(|o| o != Ordering::Greater);
            let inside = match (ge, le) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            };
            Ok(inside.map_or(Val::Null, |b| Val::Bool(b != *negated)))
        }
        QExpr::Like { expr, pattern, escape, negated } => {
            let v = eval(expr, names, row)?;
            match v {
                Val::Null => Ok(Val::Null),
                Val::Text(s) => {
                    let m = like(&s, pattern, *escape)?;
                    Ok(Val::Bool(m != *negated))
                }
                other => Err(format!("LIKE on non-text {other:?}")),
            }
        }
    }
}

fn eval_bin(op: QOp, l: &QExpr, r: &QExpr, names: &[String], row: &[Val]) -> Result<Val, String> {
    if matches!(op, QOp::And | QOp::Or) {
        let lv = bool3(eval(l, names, row)?)?;
        // Short-circuit left-first, like the engine: a decided AND/OR never
        // evaluates (or errors on) its right side.
        match (op, lv) {
            (QOp::And, Some(false)) => return Ok(Val::Bool(false)),
            (QOp::Or, Some(true)) => return Ok(Val::Bool(true)),
            _ => {}
        }
        let rv = bool3(eval(r, names, row)?)?;
        let out = match op {
            QOp::And => match (lv, rv) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            _ => match (lv, rv) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        };
        return Ok(out.map_or(Val::Null, Val::Bool));
    }

    let a = eval(l, names, row)?;
    let b = eval(r, names, row)?;
    if a.is_null() || b.is_null() {
        return Ok(Val::Null);
    }
    match op {
        QOp::Eq => Ok(Val::Bool(a.total_cmp(&b) == Ordering::Equal)),
        QOp::NotEq => Ok(Val::Bool(a.total_cmp(&b) != Ordering::Equal)),
        QOp::Lt => Ok(Val::Bool(a.total_cmp(&b) == Ordering::Less)),
        QOp::LtEq => Ok(Val::Bool(a.total_cmp(&b) != Ordering::Greater)),
        QOp::Gt => Ok(Val::Bool(a.total_cmp(&b) == Ordering::Greater)),
        QOp::GtEq => Ok(Val::Bool(a.total_cmp(&b) != Ordering::Less)),
        QOp::Add | QOp::Sub | QOp::Mul | QOp::Div | QOp::Mod => arith(op, &a, &b),
        QOp::And | QOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: QOp, a: &Val, b: &Val) -> Result<Val, String> {
    if op == QOp::Add {
        if let (Val::Text(x), Val::Text(y)) = (a, b) {
            return Ok(Val::Text(format!("{x}{y}")));
        }
    }
    match (a, b) {
        (Val::Int(x), Val::Int(y)) => {
            let r = match op {
                QOp::Add => x.checked_add(*y),
                QOp::Sub => x.checked_sub(*y),
                QOp::Mul => x.checked_mul(*y),
                QOp::Div => {
                    if *y == 0 {
                        return Err("division by zero".into());
                    }
                    x.checked_div(*y)
                }
                QOp::Mod => {
                    if *y == 0 {
                        return Err("division by zero".into());
                    }
                    x.checked_rem(*y)
                }
                _ => unreachable!(),
            };
            r.map(Val::Int).ok_or_else(|| "integer overflow".into())
        }
        _ => {
            let x = num(a).ok_or_else(|| format!("arithmetic on {a:?}"))?;
            let y = num(b).ok_or_else(|| format!("arithmetic on {b:?}"))?;
            let v = match op {
                QOp::Add => x + y,
                QOp::Sub => x - y,
                QOp::Mul => x * y,
                QOp::Div => {
                    if y == 0.0 {
                        return Err("division by zero".into());
                    }
                    x / y
                }
                QOp::Mod => {
                    if y == 0.0 {
                        return Err("division by zero".into());
                    }
                    x % y
                }
                _ => unreachable!(),
            };
            Ok(Val::Float(v))
        }
    }
}

fn num(v: &Val) -> Option<f64> {
    match v {
        Val::Int(i) => Some(*i as f64),
        Val::Float(f) => Some(*f),
        _ => None,
    }
}

fn bool3(v: Val) -> Result<Option<bool>, String> {
    match v {
        Val::Null => Ok(None),
        Val::Bool(b) => Ok(Some(b)),
        other => Err(format!("expected BOOL, got {other:?}")),
    }
}

fn cmp3(a: &Val, b: &Val) -> Option<Ordering> {
    if a.is_null() || b.is_null() {
        None
    } else {
        Some(a.total_cmp(b))
    }
}

/// Recursive LIKE matcher — deliberately the simple exponential formulation
/// rather than the engine's two-pointer loop, so a bug would have to be
/// re-invented rather than copied. Patterns are short enough that the
/// worst case does not matter.
fn like(text: &str, pattern: &str, escape: Option<char>) -> Result<bool, String> {
    // (char, literal?) — a literal char never acts as a wildcard.
    let mut toks: Vec<(char, bool)> = Vec::new();
    let mut it = pattern.chars();
    while let Some(c) = it.next() {
        if Some(c) == escape {
            match it.next() {
                Some(n) => toks.push((n, true)),
                None => return Err("pattern ends with escape".into()),
            }
        } else {
            toks.push((c, false));
        }
    }
    fn rec(t: &[char], p: &[(char, bool)]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(('%', false)) => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some((pc, literal)) => match t.first() {
                Some(tc) => ((!literal && *pc == '_') || pc == tc) && rec(&t[1..], &p[1..]),
                None => false,
            },
        }
    }
    let chars: Vec<char> = text.chars().collect();
    Ok(rec(&chars, &toks))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<String> {
        vec!["a".into(), "b".into(), "s".into()]
    }

    fn ev(e: &QExpr, row: &[Val]) -> Result<Val, String> {
        eval(e, &names(), row)
    }

    fn lit(v: Val) -> Box<QExpr> {
        Box::new(QExpr::Lit(v))
    }

    #[test]
    fn three_valued_between() {
        // 6 BETWEEN NULL AND 5 is FALSE (the <= leg decides), not NULL.
        let e = QExpr::Between {
            expr: lit(Val::Int(6)),
            lo: lit(Val::Null),
            hi: lit(Val::Int(5)),
            negated: false,
        };
        assert!(matches!(ev(&e, &[]).unwrap(), Val::Bool(false)));
        let e = QExpr::Between {
            expr: lit(Val::Int(3)),
            lo: lit(Val::Null),
            hi: lit(Val::Int(5)),
            negated: false,
        };
        assert!(ev(&e, &[]).unwrap().is_null());
    }

    #[test]
    fn short_circuit_skips_right_side_errors() {
        // FALSE AND (1/0 = 1) is FALSE, not an error.
        let bomb = QExpr::Bin(
            QOp::Eq,
            Box::new(QExpr::Bin(QOp::Div, lit(Val::Int(1)), lit(Val::Int(0)))),
            lit(Val::Int(1)),
        );
        let e = QExpr::Bin(QOp::And, lit(Val::Bool(false)), Box::new(bomb.clone()));
        assert!(matches!(ev(&e, &[]).unwrap(), Val::Bool(false)));
        let e = QExpr::Bin(QOp::Or, Box::new(bomb), lit(Val::Bool(true)));
        assert!(ev(&e, &[]).is_err());
    }

    #[test]
    fn like_with_escape() {
        assert!(like("100%", "100\\%", Some('\\')).unwrap());
        assert!(!like("100x", "100\\%", Some('\\')).unwrap());
        assert!(like("héllo", "h_llo", None).unwrap());
        assert!(like("", "%", None).unwrap());
        assert!(like("x", "x\\", Some('\\')).is_err());
    }

    #[test]
    fn sum_widens_past_i64() {
        let rows: Vec<Vec<Val>> = vec![vec![Val::Int(i64::MAX)], vec![Val::Int(i64::MAX)]];
        let refs: Vec<&Vec<Val>> = rows.iter().collect();
        let got =
            agg_one(&["a".into()], &refs, &AggSpec { func: AggFunc::Sum, col: Some("a".into()) })
                .unwrap();
        match got {
            Val::Float(f) => assert_eq!(f, i64::MAX as f64 * 2.0),
            other => panic!("expected widened float, got {other:?}"),
        }
    }

    #[test]
    fn global_aggregate_over_empty_input_is_one_row() {
        let out = aggregate(
            &["a".into()],
            &[],
            &[],
            &[
                AggSpec { func: AggFunc::Count, col: None },
                AggSpec { func: AggFunc::Sum, col: Some("a".into()) },
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0][0], Val::Int(0)));
        assert!(out[0][1].is_null());
    }
}
