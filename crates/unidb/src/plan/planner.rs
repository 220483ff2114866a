//! The planner: SELECT → physical plan.

use crate::catalog::{Catalog, EquiDepthHistogram, TableDef};
use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::eval::ColumnBinding;
use crate::expr::func::FunctionRegistry;
use crate::plan::{AggCall, PhysicalPlan, Probe};
use crate::sql::ast::{BinOp, Expr, JoinKind, Projection, SelectStmt};
use std::cmp::Ordering;
use std::collections::HashSet;
use std::ops::Bound;

/// What the planner needs to know about the database, implemented by the
/// engine's read view. Every statistic is read, not computed: the engine
/// keeps them current as rows are written.
pub trait PlannerContext {
    fn catalog(&self) -> &Catalog;
    fn funcs(&self) -> &FunctionRegistry;
    /// Distinct keys in the B-tree on a named column, `None` when the column
    /// has no B-tree.
    fn btree_distinct_keys(&self, table_id: u32, column: &str) -> Option<usize>;
    /// Live row count of a table.
    fn row_count(&self, table_id: u32) -> u64;
    /// Estimated count of distinct non-NULL values in a named column, when
    /// the catalog has statistics for it. `None` makes the planner fall
    /// back to the row count.
    fn column_ndv(&self, table_id: u32, column: &str) -> Option<u64>;
    /// Equi-depth histogram over a named column's non-NULL values, when
    /// the catalog has sampled statistics for it; borrowed, never rebuilt
    /// per plan. `None` makes the planner fall back to fixed per-conjunct
    /// selectivities.
    fn column_histogram(&self, table_id: u32, column: &str) -> Option<&EquiDepthHistogram>;
    /// Fraction of a column's observed values that are NULL.
    fn column_null_frac(&self, table_id: u32, column: &str) -> Option<f64>;
    /// Selectivity if a UDI on `(table, column)` can answer `func(args)`.
    fn udi_selectivity(
        &self,
        table_id: u32,
        column: &str,
        func: &str,
        args: &[Datum],
    ) -> Option<f64>;
}

#[derive(Debug, Clone)]
struct TableInfo {
    table_id: u32,
    qualified: String,
    binding: String,
    columns: Vec<ColumnBinding>,
    /// Right side of a LEFT JOIN: WHERE pushdown is not allowed.
    null_padded: bool,
}

/// Plan a SELECT statement. Returns the plan and output column names.
pub fn plan_select(
    ctx: &dyn PlannerContext,
    default_space: &str,
    s: &SelectStmt,
) -> DbResult<(PhysicalPlan, Vec<String>)> {
    // ---- resolve FROM ------------------------------------------------------
    let mut tables: Vec<TableInfo> = Vec::new();
    if let Some(from) = &s.from {
        tables.push(resolve_table(
            ctx,
            default_space,
            &from.base.name,
            from.base.binding(),
            false,
        )?);
        for j in &from.joins {
            tables.push(resolve_table(
                ctx,
                default_space,
                &j.table.name,
                j.table.binding(),
                j.kind == JoinKind::Left,
            )?);
        }
        let mut seen = HashSet::new();
        for t in &tables {
            if !seen.insert(t.binding.clone()) {
                return Err(DbError::Parse(format!("duplicate table binding {:?}", t.binding)));
            }
        }
    }

    // ---- split WHERE and push down -----------------------------------------
    let conjuncts: Vec<Expr> = s.filter.clone().map_or_else(Vec::new, Expr::conjuncts);
    let mut pushed: Vec<Vec<Expr>> = vec![Vec::new(); tables.len()];
    let mut post_join: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let target = attribute(&c, &tables).filter(|&i| !tables[i].null_padded);
        match target {
            Some(i) => pushed[i].push(c),
            None => post_join.push(c),
        }
    }

    // ---- scans and joins ----------------------------------------------------
    let mut plan = match &s.from {
        None => PhysicalPlan::Nothing,
        Some(from) => plan_from(ctx, from, &tables, &mut pushed)?,
    };
    if let Some(filter) = Expr::conjoin(post_join) {
        plan = PhysicalPlan::Filter { input: Box::new(plan), predicate: filter };
    }

    // ---- aggregation ----------------------------------------------------------
    let mut calls: Vec<AggCall> = Vec::new();
    for p in &s.projections {
        if let Projection::Expr { expr, .. } = p {
            collect_aggs(expr, ctx.funcs(), &mut calls);
        }
    }
    if let Some(h) = &s.having {
        collect_aggs(h, ctx.funcs(), &mut calls);
    }
    for (e, _) in &s.order_by {
        collect_aggs(e, ctx.funcs(), &mut calls);
    }
    let has_agg = !calls.is_empty() || !s.group_by.is_empty();
    if has_agg {
        if s.projections.iter().any(|p| matches!(p, Projection::Star)) {
            return Err(DbError::Unsupported("SELECT * with GROUP BY or aggregates".into()));
        }
        plan = PhysicalPlan::Aggregate {
            input: Box::new(plan),
            group_by: s.group_by.clone(),
            calls: calls.clone(),
        };
        if let Some(h) = &s.having {
            let rewritten = rewrite_post_agg(h.clone(), &s.group_by, &calls, ctx.funcs())?;
            plan = PhysicalPlan::Filter { input: Box::new(plan), predicate: rewritten };
        }
    } else if s.having.is_some() {
        return Err(DbError::Parse("HAVING without GROUP BY or aggregates".into()));
    }

    // ---- projection list -------------------------------------------------------
    let mut out_exprs: Vec<Expr> = Vec::new();
    let mut out_names: Vec<String> = Vec::new();
    for p in &s.projections {
        match p {
            Projection::Star => {
                // Expand from the FROM-order table list, not the plan's
                // bindings: join reordering may permute the plan's column
                // order, but `SELECT *` output order is fixed by FROM.
                for b in tables.iter().flat_map(|t| &t.columns) {
                    out_exprs.push(Expr::Column {
                        table: Some(b.table.clone()),
                        name: b.column.clone(),
                    });
                    out_names.push(b.column.clone());
                }
            }
            Projection::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| default_name(expr));
                let e = if has_agg {
                    rewrite_post_agg(expr.clone(), &s.group_by, &calls, ctx.funcs())?
                } else {
                    expr.clone()
                };
                out_exprs.push(e);
                out_names.push(name);
            }
        }
    }

    // ---- order by -----------------------------------------------------------------
    if !s.order_by.is_empty() {
        let mut keys = Vec::with_capacity(s.order_by.len());
        for (key, asc) in &s.order_by {
            // Alias reference?
            let resolved = if let Expr::Column { table: None, name } = key {
                out_names
                    .iter()
                    .position(|n| n.eq_ignore_ascii_case(name))
                    .map(|i| out_exprs[i].clone())
            } else {
                None
            };
            let e = match resolved {
                Some(e) => e,
                None if has_agg => rewrite_post_agg(key.clone(), &s.group_by, &calls, ctx.funcs())?,
                None => key.clone(),
            };
            keys.push((e, *asc));
        }
        plan = PhysicalPlan::Sort { input: Box::new(plan), keys };
    }

    plan =
        PhysicalPlan::Project { input: Box::new(plan), exprs: out_exprs, names: out_names.clone() };
    if s.distinct {
        plan = PhysicalPlan::Distinct { input: Box::new(plan) };
    }
    if s.limit.is_some() || s.offset.is_some() {
        plan = PhysicalPlan::Limit {
            input: Box::new(plan),
            n: s.limit,
            offset: s.offset.unwrap_or(0),
        };
    }
    Ok((fuse_top_n(plan), out_names))
}

/// Rewrite `Limit(Project(Sort(x)))` into `Project(TopN(x))`: a bounded
/// heap replaces the full sort, and the projection runs only over the
/// surviving `offset + n` rows.
///
/// Fusing is only legal when every projection expression is infallible
/// (column loads, literals, IS NULL): projecting fewer rows must not be
/// able to suppress an evaluation error the unfused pipeline would have
/// raised — the qdiff oracle evaluates the SELECT list on every sorted
/// row and treats a one-sided error as a divergence. DISTINCT blocks the
/// fusion because it changes the cardinality between sort and limit.
fn fuse_top_n(plan: PhysicalPlan) -> PhysicalPlan {
    let PhysicalPlan::Limit { input, n: Some(n), offset } = plan else { return plan };
    match *input {
        PhysicalPlan::Project { input: sort, exprs, names }
            if matches!(*sort, PhysicalPlan::Sort { .. })
                && exprs.iter().all(crate::expr::infallible) =>
        {
            let PhysicalPlan::Sort { input: base, keys } = *sort else { unreachable!() };
            PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::TopN { input: base, keys, n, offset }),
                exprs,
                names,
            }
        }
        other => PhysicalPlan::Limit { input: Box::new(other), n: Some(n), offset },
    }
}

fn resolve_table(
    ctx: &dyn PlannerContext,
    default_space: &str,
    name: &str,
    binding: &str,
    null_padded: bool,
) -> DbResult<TableInfo> {
    let def = ctx.catalog().resolve_table(default_space, name)?;
    let binding = binding.to_ascii_lowercase();
    let columns = def.columns.iter().map(|c| ColumnBinding::new(&binding, &c.name)).collect();
    Ok(TableInfo {
        table_id: def.id,
        qualified: def.qualified_name(),
        binding,
        columns,
        null_padded,
    })
}

/// Which single table does this expression reference? `None` when it spans
/// tables, references nothing, or a column cannot be uniquely attributed.
fn attribute(expr: &Expr, tables: &[TableInfo]) -> Option<usize> {
    let mut target: Option<usize> = None;
    let mut failed = false;
    expr.visit(&mut |e| {
        if failed {
            return;
        }
        if let Expr::Column { table, name } = e {
            let idx = match table {
                Some(t) => tables.iter().position(|ti| ti.binding.eq_ignore_ascii_case(t)),
                None => {
                    let name = name.to_ascii_lowercase();
                    let hits: Vec<usize> = tables
                        .iter()
                        .enumerate()
                        .filter(|(_, ti)| ti.columns.iter().any(|c| c.column == name))
                        .map(|(i, _)| i)
                        .collect();
                    if hits.len() == 1 {
                        Some(hits[0])
                    } else {
                        None
                    }
                }
            };
            match idx {
                None => failed = true,
                Some(i) => match target {
                    None => target = Some(i),
                    Some(t) if t == i => {}
                    Some(_) => failed = true,
                },
            }
        }
    });
    if failed {
        None
    } else {
        target
    }
}

/// A histogram-backed or access-method-estimated path expected to touch
/// at least this fraction of the table loses to the fused sequential scan,
/// which streams pages in order and prunes them by zone map. Fixed
/// fallback selectivities (no histogram) never trigger the cutoff, so
/// plans without statistics are unchanged.
const INDEX_WORTHWHILE: f64 = 0.4;

/// Mirror a comparison for flipped operands: `5 < col` is `col > 5`.
fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Histogram-backed selectivity of one conjunct, when it is a simple
/// comparison, BETWEEN, or IS [NOT] NULL over a bare column with catalog
/// statistics. `None` otherwise — callers fall back to the pre-stats
/// fixed damping factors.
fn histogram_selectivity(ctx: &dyn PlannerContext, table_id: u32, c: &Expr) -> Option<f64> {
    match c {
        Expr::Binary { op, left, right } => {
            let (name, d, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column { name, .. }, Expr::Literal(d)) => (name, d, *op),
                (Expr::Literal(d), Expr::Column { name, .. }) => (name, d, flip_cmp(*op)),
                _ => return None,
            };
            if matches!(d, Datum::Null) {
                // `col op NULL` is never true under three-valued logic.
                return Some(0.0);
            }
            let name = name.to_ascii_lowercase();
            let h = ctx.column_histogram(table_id, &name)?;
            let non_null = 1.0 - ctx.column_null_frac(table_id, &name).unwrap_or(0.0);
            let sel = match op {
                BinOp::Eq => h.eq_selectivity(d),
                BinOp::NotEq => 1.0 - h.eq_selectivity(d),
                BinOp::Lt => h.range_selectivity(None, Some((d, false))),
                BinOp::LtEq => h.range_selectivity(None, Some((d, true))),
                BinOp::Gt => h.range_selectivity(Some((d, false)), None),
                BinOp::GtEq => h.range_selectivity(Some((d, true)), None),
                _ => return None,
            };
            Some((sel * non_null).clamp(0.0, 1.0))
        }
        Expr::Between { expr, low, high, negated: false } => {
            let (Expr::Column { name, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                (expr.as_ref(), low.as_ref(), high.as_ref())
            else {
                return None;
            };
            if matches!(lo, Datum::Null) || matches!(hi, Datum::Null) {
                return Some(0.0);
            }
            let name = name.to_ascii_lowercase();
            let h = ctx.column_histogram(table_id, &name)?;
            let non_null = 1.0 - ctx.column_null_frac(table_id, &name).unwrap_or(0.0);
            let sel = h.range_selectivity(Some((lo, true)), Some((hi, true)));
            Some((sel * non_null).clamp(0.0, 1.0))
        }
        Expr::IsNull { expr, negated } => {
            let Expr::Column { name, .. } = expr.as_ref() else { return None };
            let name = name.to_ascii_lowercase();
            let f = ctx.column_null_frac(table_id, &name)?;
            Some(if *negated { (1.0 - f).clamp(0.0, 1.0) } else { f })
        }
        _ => None,
    }
}

/// Estimated selectivity of one conjunct: histogram-backed when the
/// catalog can help, else the legacy fixed 0.25 damping.
fn conjunct_selectivity(ctx: &dyn PlannerContext, table_id: u32, c: &Expr) -> f64 {
    histogram_selectivity(ctx, table_id, c).unwrap_or(0.25)
}

/// Can this conjunct never raise an evaluation error? AST-level mirror
/// of `CompiledExpr::error_free`: comparisons over error-free operands
/// compare by total order and never fail, while arithmetic, functions,
/// LIKE, and boolean connectives (whose operands may be non-boolean at
/// runtime) all answer `false`.
fn never_errors(e: &Expr) -> bool {
    match e {
        Expr::Literal(_) | Expr::Column { .. } => true,
        Expr::IsNull { expr, .. } => never_errors(expr),
        Expr::Binary { op, left, right } => {
            matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) && never_errors(left)
                && never_errors(right)
        }
        Expr::Between { expr, low, high, .. } => {
            never_errors(expr) && never_errors(low) && never_errors(high)
        }
        Expr::InList { expr, list, .. } => never_errors(expr) && list.iter().all(never_errors),
        _ => false,
    }
}

/// Order residual conjuncts most-selective-first so the fused filter
/// rejects rows as early as possible. Reordering changes which conjunct
/// evaluates first, so it only applies when *every* conjunct is
/// error-free — otherwise a cheap-but-false conjunct hoisted to the
/// front could short-circuit past an error the original order raised.
/// The sort is stable: equal selectivities keep the user's order.
fn order_residual(ctx: &dyn PlannerContext, table_id: u32, parts: Vec<Expr>) -> Vec<Expr> {
    if parts.len() < 2 || !parts.iter().all(never_errors) {
        return parts;
    }
    let mut keyed: Vec<(f64, Expr)> =
        parts.into_iter().map(|c| (conjunct_selectivity(ctx, table_id, &c), c)).collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, c)| c).collect()
}

/// The B-tree probe that answers a conjunct exactly, with the column it
/// probes: `col op literal` (either way round) for `=`, `<`, `<=`, `>`,
/// `>=`, or `col BETWEEN literal AND literal`. `None` for anything else.
fn btree_probe(c: &Expr) -> Option<(String, Probe)> {
    let (name, probe) = match c {
        Expr::Binary { op, left, right } => {
            let (name, d, op) = match (left.as_ref(), right.as_ref()) {
                (Expr::Column { name, .. }, Expr::Literal(d)) => (name, d, *op),
                (Expr::Literal(d), Expr::Column { name, .. }) => (name, d, flip_cmp(*op)),
                _ => return None,
            };
            // `col op NULL` is never true under three-valued logic, but
            // the index *stores* NULL keys, so a probe built from a NULL
            // literal would wrongly return those rows. Leave the conjunct
            // to the residual filter instead.
            if matches!(d, Datum::Null) {
                return None;
            }
            // NULL keys sort before every real value in the index, so an
            // open low end must still exclude them: `col <= k` is never
            // true for NULL.
            let range = |lo, hi| Probe::Range { lo, hi };
            let probe = match op {
                BinOp::Eq => Probe::Eq(d.clone()),
                BinOp::Lt => range(Bound::Excluded(Datum::Null), Bound::Excluded(d.clone())),
                BinOp::LtEq => range(Bound::Excluded(Datum::Null), Bound::Included(d.clone())),
                BinOp::Gt => range(Bound::Excluded(d.clone()), Bound::Unbounded),
                BinOp::GtEq => range(Bound::Included(d.clone()), Bound::Unbounded),
                _ => return None,
            };
            (name, probe)
        }
        Expr::Between { expr, low, high, negated: false } => {
            let (Expr::Column { name, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                (expr.as_ref(), low.as_ref(), high.as_ref())
            else {
                return None;
            };
            // Same NULL-literal trap as above: `x BETWEEN NULL AND k`
            // matches nothing, but Included(Null) would scan NULL keys.
            if matches!(lo, Datum::Null) || matches!(hi, Datum::Null) {
                return None;
            }
            (
                name,
                Probe::Range { lo: Bound::Included(lo.clone()), hi: Bound::Included(hi.clone()) },
            )
        }
        _ => return None,
    };
    Some((name.to_ascii_lowercase(), probe))
}

/// The tighter of two bounds on one end of a range: the greater when
/// `wins` is `Greater` (low ends), the lesser when it is `Less` (high
/// ends). At equal values the excluding bound is the tighter.
fn tighter(a: Bound<Datum>, b: Bound<Datum>, wins: Ordering) -> Bound<Datum> {
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp(y) {
                Ordering::Equal if matches!(b, Bound::Excluded(_)) => b,
                Ordering::Equal => a,
                o if o == wins => a,
                _ => b,
            }
        }
    }
}

/// Choose the cheapest access path for one table given its pushed conjuncts.
fn build_scan(ctx: &dyn PlannerContext, t: &TableInfo, conjuncts: Vec<Expr>) -> PhysicalPlan {
    // (conjunct index, selectivity, column, probe)
    let mut best: Option<(usize, f64, String, Probe)> = None;
    let mut consider = |cand: (usize, f64, String, Probe)| {
        if best.as_ref().is_none_or(|b| cand.1 < b.1) {
            best = Some(cand);
        }
    };

    for (i, c) in conjuncts.iter().enumerate() {
        // A comparison or BETWEEN on a B-tree column → B-tree probe.
        if let Some((column, probe)) = btree_probe(c) {
            if let Some(distinct) = ctx.btree_distinct_keys(t.table_id, &column) {
                let hist = histogram_selectivity(ctx, t.table_id, c);
                let fixed = match (&probe, c) {
                    (Probe::Eq(_), _) => 1.0 / distinct.max(1) as f64,
                    (_, Expr::Between { .. }) => 0.25,
                    _ => 0.3,
                };
                let sel = hist.unwrap_or(fixed);
                if hist.is_none() || sel < INDEX_WORTHWHILE {
                    consider((i, sel, column, probe));
                }
            }
        }
        // func(col, literals…) → domain-index probe.
        if let Expr::Func { name: func, args, distinct: false } = c {
            if let Some(Expr::Column { name: col, .. }) = args.first() {
                let rest: Option<Vec<Datum>> = args[1..]
                    .iter()
                    .map(|a| match a {
                        Expr::Literal(d) => Some(d.clone()),
                        _ => None,
                    })
                    .collect();
                if let Some(rest) = rest {
                    let col = col.to_ascii_lowercase();
                    // The access method's estimate is a measurement of its
                    // own postings, so the cutoff applies as it does to a
                    // histogram: a probe that returns most of the table
                    // (a pattern the index cannot filter) loses to the scan.
                    let sel = ctx
                        .udi_selectivity(t.table_id, &col, func, &rest)
                        .filter(|sel| *sel < INDEX_WORTHWHILE);
                    if let Some(sel) = sel {
                        consider((i, sel, col, Probe::Call { func: func.clone(), args: rest }));
                    }
                }
            }
        }
    }

    let Some((chosen, _sel, column, mut probe)) = best else {
        return PhysicalPlan::SeqScan {
            table_id: t.table_id,
            qualified: t.qualified.clone(),
            columns: t.columns.clone(),
            residual: Expr::conjoin(order_residual(ctx, t.table_id, conjuncts)),
        };
    };
    let mut residual_parts: Vec<Expr> = Vec::new();
    for (i, c) in conjuncts.into_iter().enumerate() {
        // An exact probe fully satisfies its conjunct; a domain call is
        // approximate and must re-check it.
        if i == chosen {
            if !probe.exact() {
                residual_parts.push(c);
            }
            continue;
        }
        // Every other range on the probed column narrows a range probe.
        if let Probe::Range { lo, hi } = &mut probe {
            if let Some((col, Probe::Range { lo: l, hi: h })) = btree_probe(&c) {
                if col == column {
                    *lo = tighter(std::mem::replace(lo, Bound::Unbounded), l, Ordering::Greater);
                    *hi = tighter(std::mem::replace(hi, Bound::Unbounded), h, Ordering::Less);
                    continue;
                }
            }
        }
        residual_parts.push(c);
    }
    PhysicalPlan::IndexScan {
        table_id: t.table_id,
        qualified: t.qualified.clone(),
        columns: t.columns.clone(),
        column,
        probe,
        residual: Expr::conjoin(order_residual(ctx, t.table_id, residual_parts)),
    }
}

/// The access path of a single-table `UPDATE`/`DELETE`: its `WHERE` goes
/// through the same [`build_scan`] a `SELECT`'s FROM entry does, so DML and
/// queries pick indexes by one rule. `columns` are the bindings the caller
/// compiles the residual (and its `SET` expressions) against.
pub(crate) fn plan_table_scan(
    ctx: &dyn PlannerContext,
    def: &TableDef,
    columns: &[ColumnBinding],
    filter: Option<&Expr>,
) -> PhysicalPlan {
    let t = TableInfo {
        table_id: def.id,
        qualified: def.qualified_name(),
        binding: def.name.clone(),
        columns: columns.to_vec(),
        null_padded: false,
    };
    build_scan(ctx, &t, filter.cloned().map_or_else(Vec::new, Expr::conjuncts))
}

/// Plan the FROM clause: scans plus the join tree.
///
/// All-INNER equi-join chains of three or more tables go through the
/// greedy cheapest-first reordering; everything else (single joins, LEFT
/// or CROSS anywhere in the chain) folds in FROM order, with per-join
/// stats still choosing the hash-table build side.
fn plan_from(
    ctx: &dyn PlannerContext,
    from: &crate::sql::ast::FromClause,
    tables: &[TableInfo],
    pushed: &mut [Vec<Expr>],
) -> DbResult<PhysicalPlan> {
    if from.joins.len() >= 2
        && from.joins.iter().all(|j| j.kind == JoinKind::Inner && j.on.is_some())
    {
        if let Some(plan) = reorder_inner_joins(ctx, from, tables, pushed) {
            return Ok(plan);
        }
    }
    let mut est = scan_estimate(ctx, &tables[0], &pushed[0]);
    let mut plan = build_scan(ctx, &tables[0], std::mem::take(&mut pushed[0]));
    for (idx, j) in from.joins.iter().enumerate() {
        let t = &tables[idx + 1];
        let right_est = scan_estimate(ctx, t, &pushed[idx + 1]);
        let right = build_scan(ctx, t, std::mem::take(&mut pushed[idx + 1]));
        (plan, est) =
            plan_join(ctx, plan, right, j.kind, j.on.clone(), &tables[..idx + 2], est, right_est)?;
    }
    Ok(plan)
}

/// Estimated output rows of one table's scan: the live row count damped
/// per pushed-down conjunct — histogram selectivity where the catalog
/// has a sample for the column, a fixed 0.25 otherwise. Coarse on
/// purpose — the planner only compares relative magnitudes.
fn scan_estimate(ctx: &dyn PlannerContext, t: &TableInfo, conjuncts: &[Expr]) -> f64 {
    let sel: f64 = conjuncts.iter().map(|c| conjunct_selectivity(ctx, t.table_id, c)).product();
    ctx.row_count(t.table_id).max(1) as f64 * sel
}

/// NDV of a join key when it is a bare column attributable to one table
/// of `tables` — the hook that feeds catalog statistics into join-size
/// estimates. Non-column keys (expressions) get no estimate.
fn key_ndv(ctx: &dyn PlannerContext, key: &Expr, tables: &[TableInfo]) -> Option<u64> {
    let Expr::Column { table, name } = key else { return None };
    let ti = match table {
        Some(b) => tables.iter().find(|t| t.binding.eq_ignore_ascii_case(b))?,
        None => {
            let lower = name.to_ascii_lowercase();
            let mut hits = tables.iter().filter(|t| t.columns.iter().any(|c| c.column == lower));
            let first = hits.next()?;
            if hits.next().is_some() {
                return None;
            }
            first
        }
    };
    ctx.column_ndv(ti.table_id, name)
}

/// Estimated output rows of an equi-join: `|L| * |R| / max(ndv(keys))`,
/// falling back to the larger side's cardinality as the divisor (the
/// key/foreign-key assumption) when no sketch exists.
fn equi_join_estimate(left_est: f64, right_est: f64, dl: Option<u64>, dr: Option<u64>) -> f64 {
    let d = dl.unwrap_or(0).max(dr.unwrap_or(0)) as f64;
    let d = if d > 0.0 { d } else { left_est.max(right_est) };
    (left_est * right_est / d.max(1.0)).max(1.0)
}

/// Split an ON expression into one hash-key pair (left side attributable
/// to `left_tables`, right side to `right_table`, flipped operands
/// normalized) plus the leftover conjuncts.
fn split_equi(
    on_expr: &Expr,
    left_tables: &[TableInfo],
    right_table: &[TableInfo],
) -> (Option<(Expr, Expr)>, Vec<Expr>) {
    let mut equi: Option<(Expr, Expr)> = None;
    let mut rest: Vec<Expr> = Vec::new();
    for f in on_expr.clone().conjuncts() {
        if equi.is_none() {
            if let Expr::Binary { op: BinOp::Eq, left: l, right: r } = &f {
                if l.references_columns() && r.references_columns() {
                    if attribute(l, left_tables).is_some() && attribute(r, right_table).is_some() {
                        equi = Some((l.as_ref().clone(), r.as_ref().clone()));
                        continue;
                    }
                    // Maybe flipped: right operand references left tables.
                    if attribute(r, left_tables).is_some() && attribute(l, right_table).is_some() {
                        equi = Some((r.as_ref().clone(), l.as_ref().clone()));
                        continue;
                    }
                }
            }
        }
        rest.push(f);
    }
    (equi, rest)
}

/// Pick a join strategy for one FROM-order step; returns the plan and
/// its estimated output rows.
#[allow(clippy::too_many_arguments)]
fn plan_join(
    ctx: &dyn PlannerContext,
    left: PhysicalPlan,
    right: PhysicalPlan,
    kind: JoinKind,
    on: Option<Expr>,
    tables: &[TableInfo],
    left_est: f64,
    right_est: f64,
) -> DbResult<(PhysicalPlan, f64)> {
    if matches!(kind, JoinKind::Inner | JoinKind::Left) {
        if let Some(on_expr) = &on {
            let left_tables = &tables[..tables.len() - 1];
            let right_table = &tables[tables.len() - 1..];
            let (equi, rest) = split_equi(on_expr, left_tables, right_table);
            // A LEFT join can only hash when the single equi conjunct IS
            // the whole ON clause: leftover conjuncts influence which
            // rows get null-padded and cannot become a filter above.
            let hashable = equi.is_some() && (kind == JoinKind::Inner || rest.is_empty());
            if hashable {
                let (lk, rk) = equi.expect("checked above");
                let inner_est = equi_join_estimate(
                    left_est,
                    right_est,
                    key_ndv(ctx, &lk, left_tables),
                    key_ndv(ctx, &rk, right_table),
                );
                // Build on the smaller estimated side; ties keep the
                // right side (the pre-stats default). LEFT joins always
                // build right so probe misses can null-pad.
                let build_left = kind == JoinKind::Inner && left_est < right_est;
                let out_est =
                    if kind == JoinKind::Left { inner_est.max(left_est) } else { inner_est };
                let mut plan = PhysicalPlan::HashJoin {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_key: lk,
                    right_key: rk,
                    build_left,
                    kind,
                };
                if let Some(f) = Expr::conjoin(rest) {
                    plan = PhysicalPlan::Filter { input: Box::new(plan), predicate: f };
                }
                return Ok((plan, out_est));
            }
        }
    }
    let out_est = match kind {
        JoinKind::Left => (left_est * right_est * 0.1).max(left_est),
        _ => left_est * right_est,
    };
    let plan =
        PhysicalPlan::NestedLoopJoin { left: Box::new(left), right: Box::new(right), kind, on };
    Ok((plan, out_est))
}

/// Greedy cheapest-first ordering for an all-INNER equi-join chain.
///
/// Inner-join ON conjuncts are semantically WHERE conjuncts, so they pool
/// freely: start from the smallest estimated table, then repeatedly join
/// the connectable table minimizing the estimated intermediate size. Any
/// pooled conjunct not consumed as a hash key becomes a filter at the
/// earliest point all its tables are in scope. Returns `None` — caller
/// falls back to FROM order — when a step has no connecting equi
/// conjunct, or when an ON clause references tables that FROM order has
/// not yet introduced (kept an error, as in the unordered path).
fn reorder_inner_joins(
    ctx: &dyn PlannerContext,
    from: &crate::sql::ast::FromClause,
    tables: &[TableInfo],
    pushed: &mut [Vec<Expr>],
) -> Option<PhysicalPlan> {
    // Pool every ON conjunct, validating FROM-order scoping first.
    let mut pool: Vec<Expr> = Vec::new();
    for (idx, j) in from.joins.iter().enumerate() {
        let on = j.on.as_ref()?;
        for c in on.clone().conjuncts() {
            let targets = column_targets(&c, tables)?;
            if targets.iter().any(|&t| t > idx + 1) {
                return None; // references a table FROM hasn't introduced yet
            }
            pool.push(c);
        }
    }

    let ests: Vec<f64> =
        tables.iter().enumerate().map(|(i, t)| scan_estimate(ctx, t, &pushed[i])).collect();
    let start = (0..tables.len())
        .min_by(|&a, &b| ests[a].total_cmp(&ests[b]).then(a.cmp(&b)))
        .expect("at least three tables");

    let mut included = vec![start];
    let mut order: Vec<(usize, usize, bool)> = Vec::new(); // (table, key conjunct, flipped)
    let mut consumed = vec![false; pool.len()];
    let mut cur_est = ests[start];
    let mut step_ests = Vec::new();
    while included.len() < tables.len() {
        let in_set: Vec<TableInfo> = included.iter().map(|&i| tables[i].clone()).collect();
        // Candidates: excluded tables reachable through a pooled equi
        // conjunct whose sides split cleanly across the frontier.
        let mut best: Option<(f64, usize, usize, bool)> = None;
        for (t, info) in tables.iter().enumerate() {
            if included.contains(&t) {
                continue;
            }
            let t_side = std::slice::from_ref(info);
            for (ci, c) in pool.iter().enumerate() {
                if consumed[ci] {
                    continue;
                }
                let Expr::Binary { op: BinOp::Eq, left: l, right: r } = c else { continue };
                if !l.references_columns() || !r.references_columns() {
                    continue;
                }
                let (key_in, key_new, flipped) =
                    if attribute(l, &in_set).is_some() && attribute(r, t_side).is_some() {
                        (l.as_ref(), r.as_ref(), false)
                    } else if attribute(r, &in_set).is_some() && attribute(l, t_side).is_some() {
                        (r.as_ref(), l.as_ref(), true)
                    } else {
                        continue;
                    };
                let est = equi_join_estimate(
                    cur_est,
                    ests[t],
                    key_ndv(ctx, key_in, &in_set),
                    key_ndv(ctx, key_new, t_side),
                );
                // Strict < keeps ties resolved by (table, conjunct) order,
                // which is deterministic across runs.
                if best.as_ref().is_none_or(|b| est < b.0) {
                    best = Some((est, t, ci, flipped));
                }
            }
        }
        let (est, t, ci, flipped) = best?;
        consumed[ci] = true;
        included.push(t);
        order.push((t, ci, flipped));
        step_ests.push(est);
        cur_est = est;
    }

    // Build the tree in the chosen order.
    let mut plan = build_scan(ctx, &tables[start], std::mem::take(&mut pushed[start]));
    let mut covered = vec![start];
    let mut apply_covered = |plan: PhysicalPlan, covered: &[usize]| {
        let mut residual = Vec::new();
        for (ci, c) in pool.iter().enumerate() {
            if consumed[ci] {
                continue;
            }
            let in_scope =
                column_targets(c, tables).is_some_and(|ts| ts.iter().all(|t| covered.contains(t)));
            if in_scope {
                consumed[ci] = true;
                residual.push(c.clone());
            }
        }
        match Expr::conjoin(residual) {
            Some(f) => PhysicalPlan::Filter { input: Box::new(plan), predicate: f },
            None => plan,
        }
    };
    plan = apply_covered(plan, &covered);
    let mut build_est = ests[start];
    for (step, &(t, ci, flipped)) in order.iter().enumerate() {
        let right = build_scan(ctx, &tables[t], std::mem::take(&mut pushed[t]));
        let Expr::Binary { op: BinOp::Eq, left: l, right: r } = &pool[ci] else { unreachable!() };
        let (lk, rk) = if flipped {
            (r.as_ref().clone(), l.as_ref().clone())
        } else {
            (*l.clone(), *r.clone())
        };
        plan = PhysicalPlan::HashJoin {
            left: Box::new(plan),
            right: Box::new(right),
            left_key: lk,
            right_key: rk,
            build_left: build_est < ests[t],
            kind: JoinKind::Inner,
        };
        covered.push(t);
        plan = apply_covered(plan, &covered);
        build_est = step_ests[step];
    }
    Some(plan)
}

/// Every table index referenced by `expr`'s columns, resolved against the
/// full FROM-order table list (the same resolution the executor's
/// compiler uses). `None` when any reference is unknown or ambiguous.
fn column_targets(expr: &Expr, tables: &[TableInfo]) -> Option<Vec<usize>> {
    let mut targets = Vec::new();
    let mut failed = false;
    expr.visit(&mut |e| {
        if failed {
            return;
        }
        if let Expr::Column { table, name } = e {
            let idx = match table {
                Some(t) => tables.iter().position(|ti| ti.binding.eq_ignore_ascii_case(t)),
                None => {
                    let lower = name.to_ascii_lowercase();
                    let hits: Vec<usize> = tables
                        .iter()
                        .enumerate()
                        .filter(|(_, ti)| ti.columns.iter().any(|c| c.column == lower))
                        .map(|(i, _)| i)
                        .collect();
                    match hits.as_slice() {
                        [one] => Some(*one),
                        _ => None,
                    }
                }
            };
            match idx {
                Some(i) => {
                    if !targets.contains(&i) {
                        targets.push(i);
                    }
                }
                None => failed = true,
            }
        }
    });
    if failed {
        None
    } else {
        Some(targets)
    }
}

/// Collect aggregate calls, deduplicated.
fn collect_aggs(expr: &Expr, funcs: &FunctionRegistry, out: &mut Vec<AggCall>) {
    match expr {
        Expr::Func { name, args, distinct } if funcs.is_aggregate(name) => {
            let arg = match args.as_slice() {
                [Expr::Wildcard] | [] => None,
                [single] => Some(single.clone()),
                _ => Some(args[0].clone()), // multi-arg aggregates take the first
            };
            let call = AggCall { func: name.clone(), arg, distinct: *distinct };
            if !out.contains(&call) {
                out.push(call);
            }
        }
        other => {
            // Recurse.
            let mut children: Vec<&Expr> = Vec::new();
            match other {
                Expr::Unary { expr, .. } => children.push(expr),
                Expr::Binary { left, right, .. } => {
                    children.push(left);
                    children.push(right);
                }
                Expr::Func { args, .. } => children.extend(args.iter()),
                Expr::IsNull { expr, .. } => children.push(expr),
                Expr::InList { expr, list, .. } => {
                    children.push(expr);
                    children.extend(list.iter());
                }
                Expr::Between { expr, low, high, .. } => {
                    children.extend([expr.as_ref(), low.as_ref(), high.as_ref()]);
                }
                Expr::Like { expr, pattern, .. } => {
                    children.extend([expr.as_ref(), pattern.as_ref()]);
                }
                _ => {}
            }
            for c in children {
                collect_aggs(c, funcs, out);
            }
        }
    }
}

/// Rewrite a post-aggregation expression: group-by expressions become
/// `__grp_i` references, aggregate calls become `__agg_j` references, and
/// any remaining raw column reference is an error (not in GROUP BY).
fn rewrite_post_agg(
    expr: Expr,
    group_by: &[Expr],
    calls: &[AggCall],
    funcs: &FunctionRegistry,
) -> DbResult<Expr> {
    if let Some(i) = group_by.iter().position(|g| *g == expr) {
        return Ok(Expr::Column { table: None, name: format!("__grp_{i}") });
    }
    if let Expr::Func { name, args, distinct } = &expr {
        if funcs.is_aggregate(name) {
            let arg = match args.as_slice() {
                [Expr::Wildcard] | [] => None,
                [single] => Some(single.clone()),
                _ => Some(args[0].clone()),
            };
            let call = AggCall { func: name.clone(), arg, distinct: *distinct };
            let j = calls
                .iter()
                .position(|c| *c == call)
                .ok_or_else(|| DbError::Internal("uncollected aggregate call".into()))?;
            return Ok(Expr::Column { table: None, name: format!("__agg_{j}") });
        }
    }
    // Recurse and then verify no raw column survives.
    let rewritten = match expr {
        Expr::Column { table, name } => {
            return Err(DbError::Parse(format!(
                "column {}{name} must appear in GROUP BY or inside an aggregate",
                table.map_or(String::new(), |t| format!("{t}."))
            )))
        }
        Expr::Unary { op, expr } => {
            Expr::Unary { op, expr: Box::new(rewrite_post_agg(*expr, group_by, calls, funcs)?) }
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(rewrite_post_agg(*left, group_by, calls, funcs)?),
            right: Box::new(rewrite_post_agg(*right, group_by, calls, funcs)?),
        },
        Expr::Func { name, args, distinct } => Expr::Func {
            name,
            args: args
                .into_iter()
                .map(|a| rewrite_post_agg(a, group_by, calls, funcs))
                .collect::<DbResult<_>>()?,
            distinct,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rewrite_post_agg(*expr, group_by, calls, funcs)?),
            negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(rewrite_post_agg(*expr, group_by, calls, funcs)?),
            list: list
                .into_iter()
                .map(|e| rewrite_post_agg(e, group_by, calls, funcs))
                .collect::<DbResult<_>>()?,
            negated,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(rewrite_post_agg(*expr, group_by, calls, funcs)?),
            low: Box::new(rewrite_post_agg(*low, group_by, calls, funcs)?),
            high: Box::new(rewrite_post_agg(*high, group_by, calls, funcs)?),
            negated,
        },
        Expr::Like { expr, pattern, negated, escape } => Expr::Like {
            expr: Box::new(rewrite_post_agg(*expr, group_by, calls, funcs)?),
            pattern: Box::new(rewrite_post_agg(*pattern, group_by, calls, funcs)?),
            negated,
            escape,
        },
        leaf @ (Expr::Literal(_) | Expr::Wildcard) => leaf,
    };
    Ok(rewritten)
}

fn default_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.to_ascii_lowercase(),
        Expr::Func { name, .. } => name.clone(),
        other => other.render(),
    }
}

/// One side of a range probe as `(value, inclusive)` for
/// [`EquiDepthHistogram::range_selectivity`].
fn bound_ref(b: &Bound<Datum>) -> Option<(&Datum, bool)> {
    match b {
        Bound::Included(d) => Some((d, true)),
        Bound::Excluded(d) => Some((d, false)),
        Bound::Unbounded => None,
    }
}

/// Rows a scan emits: live count, damped by the access path's
/// selectivity and then by each residual conjunct.
fn scan_rows(
    ctx: &dyn PlannerContext,
    table_id: u32,
    residual: &Option<Expr>,
    path_sel: f64,
) -> f64 {
    let sel: f64 = residual.as_ref().map_or(1.0, |r| {
        r.clone().conjuncts().iter().map(|c| conjunct_selectivity(ctx, table_id, c)).product()
    });
    ctx.row_count(table_id) as f64 * path_sel * sel
}

/// Best-effort estimate of the rows a plan emits, using the same
/// per-conjunct selectivity model the planner costs scans with. Feeds
/// `EXPLAIN`-style diagnostics and qdiff's estimate-vs-observed
/// cross-check; compare against [`upper_bound_rows`] for a hard ceiling.
pub fn estimate_rows(plan: &PhysicalPlan, ctx: &dyn PlannerContext) -> f64 {
    match plan {
        PhysicalPlan::Nothing => 1.0,
        PhysicalPlan::SeqScan { table_id, residual, .. } => {
            scan_rows(ctx, *table_id, residual, 1.0)
        }
        PhysicalPlan::IndexScan { table_id, column, probe, residual, .. } => {
            let hist = ctx.column_histogram(*table_id, column);
            let sel = match probe {
                Probe::Eq(key) => hist
                    .map(|h| h.eq_selectivity(key))
                    .or_else(|| ctx.column_ndv(*table_id, column).map(|n| 1.0 / n.max(1) as f64))
                    .unwrap_or(0.25),
                Probe::Range { lo, hi } => {
                    hist.map(|h| h.range_selectivity(bound_ref(lo), bound_ref(hi))).unwrap_or(0.3)
                }
                Probe::Call { func, args } => {
                    ctx.udi_selectivity(*table_id, column, func, args).unwrap_or(0.25)
                }
            };
            scan_rows(ctx, *table_id, residual, sel)
        }
        PhysicalPlan::Filter { input, predicate } => {
            // Post-join conjuncts have no single-table attribution, so
            // each gets the fixed damping factor.
            let n = predicate.clone().conjuncts().len();
            estimate_rows(input, ctx) * 0.25f64.powi(n as i32)
        }
        PhysicalPlan::NestedLoopJoin { left, right, kind, on } => {
            let l = estimate_rows(left, ctx);
            let r = estimate_rows(right, ctx);
            let inner = match on {
                Some(_) => (l * r * 0.1).max(1.0),
                None => l * r,
            };
            if *kind == JoinKind::Left {
                inner.max(l)
            } else {
                inner
            }
        }
        PhysicalPlan::HashJoin { left, right, kind, .. } => {
            // Key/foreign-key assumption: the larger side's cardinality
            // divides the cross product.
            let l = estimate_rows(left, ctx);
            let r = estimate_rows(right, ctx);
            let inner = (l * r / l.max(r).max(1.0)).max(1.0);
            if *kind == JoinKind::Left {
                inner.max(l)
            } else {
                inner
            }
        }
        PhysicalPlan::Aggregate { input, group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                estimate_rows(input, ctx)
            }
        }
        PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Distinct { input } => estimate_rows(input, ctx),
        PhysicalPlan::TopN { input, n, offset, .. } => {
            (estimate_rows(input, ctx) - *offset as f64).clamp(0.0, *n as f64)
        }
        PhysicalPlan::Limit { input, n, offset } => {
            let base = (estimate_rows(input, ctx) - *offset as f64).max(0.0);
            match n {
                Some(n) => base.min(*n as f64),
                None => base,
            }
        }
    }
}

/// A hard ceiling on the rows a plan can emit when executed against the
/// same committed state it was planned from: scans are bounded by the
/// live row count, joins by the product of their inputs (null-padding
/// floors a LEFT join at its left side), limits by `n`. Unlike
/// [`estimate_rows`] this never under-counts, which makes
/// `observed <= upper_bound_rows` a checkable invariant.
pub fn upper_bound_rows(plan: &PhysicalPlan, ctx: &dyn PlannerContext) -> f64 {
    match plan {
        PhysicalPlan::Nothing => 1.0,
        PhysicalPlan::SeqScan { table_id, .. } | PhysicalPlan::IndexScan { table_id, .. } => {
            ctx.row_count(*table_id) as f64
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Distinct { input } => upper_bound_rows(input, ctx),
        PhysicalPlan::NestedLoopJoin { left, right, kind, .. }
        | PhysicalPlan::HashJoin { left, right, kind, .. } => {
            let l = upper_bound_rows(left, ctx);
            let r = upper_bound_rows(right, ctx);
            match kind {
                JoinKind::Left => (l * r).max(l),
                _ => l * r,
            }
        }
        PhysicalPlan::Aggregate { input, group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                upper_bound_rows(input, ctx)
            }
        }
        PhysicalPlan::TopN { input, n, offset, .. } => {
            (upper_bound_rows(input, ctx) - *offset as f64).clamp(0.0, *n as f64)
        }
        PhysicalPlan::Limit { input, n, offset } => {
            let base = (upper_bound_rows(input, ctx) - *offset as f64).max(0.0);
            match n {
                Some(n) => base.min(*n as f64),
                None => base,
            }
        }
    }
}
