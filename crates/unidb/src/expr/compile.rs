//! Plan-time expression compilation.
//!
//! [`compile`] lowers an [`Expr`] into a [`CompiledExpr`]: column references
//! become positional indices into the operator's input row, scalar function
//! names become direct [`ScalarFn`] handles — or, for a function registered
//! with a [`ScalarBinder`](crate::expr::func::ScalarBinder), a handle already
//! specialised on the call's literal arguments — and literal LIKE patterns
//! are tokenized once. Evaluating a compiled program therefore does zero string
//! work per row — the interpreter's per-row, per-reference lower-cased name
//! scan (see [`EvalContext::resolve`]) happens exactly once, before the
//! first row flows. Resolution errors (unknown or ambiguous columns,
//! unknown functions, aggregates in scalar position) surface at plan time
//! instead of on the first evaluated row.

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::expr::eval::{ColumnBinding, EvalContext, LikePattern};
use crate::expr::func::{BoundColumnFn, BoundScalarFn, FunctionRegistry, ScalarFn};
use crate::sql::ast::{BinOp, Expr, UnaryOp};
use crate::storage::colpage::{zone_bounds, CmpOp, ColBound, ColPred, ColTest};
use std::borrow::Cow;
use std::cmp::Ordering;

/// An executable expression with all names resolved.
pub enum CompiledExpr {
    Literal(Datum),
    /// Load the input row's column at this position.
    Column(usize),
    Unary {
        op: UnaryOp,
        expr: Box<CompiledExpr>,
    },
    Binary {
        op: BinOp,
        left: Box<CompiledExpr>,
        right: Box<CompiledExpr>,
    },
    Func {
        f: ScalarFn,
        args: Vec<CompiledExpr>,
    },
    /// A function whose [`ScalarBinder`](crate::expr::func::ScalarBinder)
    /// took its literal arguments at compile time; `args` are the
    /// remaining ones. `column` is the call's page-at-a-time entry, which
    /// the executor's Aggregate uses when `args` is one column.
    BoundFunc {
        f: BoundScalarFn,
        column: Option<BoundColumnFn>,
        args: Vec<CompiledExpr>,
    },
    IsNull {
        expr: Box<CompiledExpr>,
        negated: bool,
    },
    InList {
        expr: Box<CompiledExpr>,
        list: Vec<CompiledExpr>,
        negated: bool,
    },
    Between {
        expr: Box<CompiledExpr>,
        low: Box<CompiledExpr>,
        high: Box<CompiledExpr>,
        negated: bool,
    },
    /// LIKE with a literal pattern, tokenized at compile time.
    LikePre {
        expr: Box<CompiledExpr>,
        pattern: LikePattern,
        negated: bool,
    },
    /// LIKE whose pattern is itself computed per row.
    LikeDyn {
        expr: Box<CompiledExpr>,
        pattern: Box<CompiledExpr>,
        negated: bool,
        escape: Option<char>,
    },
}

/// Lower `expr` against the input schema `bindings`. Name resolution
/// follows [`EvalContext::resolve`] exactly: lower-cased comparison, an
/// optional table qualifier narrows candidates, more than one match is
/// [`DbError::AmbiguousColumn`].
pub fn compile(
    expr: &Expr,
    bindings: &[ColumnBinding],
    funcs: &FunctionRegistry,
) -> DbResult<CompiledExpr> {
    match expr {
        Expr::Literal(d) => Ok(CompiledExpr::Literal(d.clone())),
        Expr::Column { table, name } => {
            let ctx = EvalContext { bindings, row: &[], funcs };
            Ok(CompiledExpr::Column(ctx.resolve(table.as_deref(), name)?))
        }
        Expr::Wildcard => Err(DbError::TypeMismatch("* is only valid inside count(*)".into())),
        Expr::Unary { op, expr } => {
            Ok(CompiledExpr::Unary { op: *op, expr: Box::new(compile(expr, bindings, funcs)?) })
        }
        Expr::Binary { op, left, right } => Ok(CompiledExpr::Binary {
            op: *op,
            left: Box::new(compile(left, bindings, funcs)?),
            right: Box::new(compile(right, bindings, funcs)?),
        }),
        Expr::Func { name, args, .. } => {
            if funcs.is_aggregate(name) {
                return Err(DbError::TypeMismatch(format!(
                    "aggregate {name}() is not allowed in this context"
                )));
            }
            let scalar = funcs
                .scalar_entry(name)
                .ok_or(DbError::NotFound { kind: "function", name: name.clone() })?;
            let mut args =
                args.iter().map(|a| compile(a, bindings, funcs)).collect::<DbResult<Vec<_>>>()?;
            if let Some(bind) = &scalar.binder {
                let literals: Vec<Option<&Datum>> = args
                    .iter()
                    .map(|a| match a {
                        CompiledExpr::Literal(d) => Some(d),
                        _ => None,
                    })
                    .collect();
                if let Some(bound) = bind(&literals) {
                    args.retain(|a| !matches!(a, CompiledExpr::Literal(_)));
                    return Ok(CompiledExpr::BoundFunc {
                        f: bound.row,
                        column: bound.column,
                        args,
                    });
                }
            }
            Ok(CompiledExpr::Func { f: scalar.f.clone(), args })
        }
        Expr::IsNull { expr, negated } => Ok(CompiledExpr::IsNull {
            expr: Box::new(compile(expr, bindings, funcs)?),
            negated: *negated,
        }),
        Expr::InList { expr, list, negated } => Ok(CompiledExpr::InList {
            expr: Box::new(compile(expr, bindings, funcs)?),
            list: list.iter().map(|e| compile(e, bindings, funcs)).collect::<DbResult<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Between { expr, low, high, negated } => Ok(CompiledExpr::Between {
            expr: Box::new(compile(expr, bindings, funcs)?),
            low: Box::new(compile(low, bindings, funcs)?),
            high: Box::new(compile(high, bindings, funcs)?),
            negated: *negated,
        }),
        Expr::Like { expr, pattern, negated, escape } => {
            let expr = Box::new(compile(expr, bindings, funcs)?);
            // A literal pattern (the overwhelmingly common case) is
            // tokenized here; only its NULL-ness must still be decided per
            // row against the left operand.
            if let Expr::Literal(Datum::Text(p)) = pattern.as_ref() {
                return Ok(CompiledExpr::LikePre {
                    expr,
                    pattern: LikePattern::compile(p, *escape)?,
                    negated: *negated,
                });
            }
            Ok(CompiledExpr::LikeDyn {
                expr,
                pattern: Box::new(compile(pattern, bindings, funcs)?),
                negated: *negated,
                escape: *escape,
            })
        }
    }
}

impl CompiledExpr {
    /// Evaluate against one row. Matches the interpreter's semantics
    /// (three-valued logic, checked arithmetic) exactly — the qdiff oracle
    /// pins the two against each other. A column or literal is returned
    /// borrowed, where it lies in the row or the program, so comparisons,
    /// connectives and function arguments read their operands in place;
    /// only computed values are owned. The leaves are answered inline so an
    /// operand costs no call of its own.
    #[inline]
    pub fn eval<'a>(&'a self, row: &'a [Datum]) -> DbResult<Cow<'a, Datum>> {
        match self {
            CompiledExpr::Literal(d) => Ok(Cow::Borrowed(d)),
            CompiledExpr::Column(i) => Ok(Cow::Borrowed(&row[*i])),
            _ => self.eval_computed(row),
        }
    }

    /// [`eval`](Self::eval) answered as a plain reference: a column or
    /// literal where it lies, a computed value kept in `slot`. The
    /// executor reads join keys, group keys and aggregate arguments this
    /// way: once inlined, a plain column costs nothing, where the borrow
    /// checks of a `Cow` cost it ~15 ns per row.
    #[inline]
    pub fn read<'a>(
        &'a self,
        row: &'a [Datum],
        slot: &'a mut Option<Cow<'a, Datum>>,
    ) -> DbResult<&'a Datum> {
        match self {
            CompiledExpr::Literal(d) => Ok(d),
            CompiledExpr::Column(i) => Ok(&row[*i]),
            _ => Ok(slot.insert(self.eval_computed(row)?)),
        }
    }

    fn eval_computed<'a>(&'a self, row: &'a [Datum]) -> DbResult<Cow<'a, Datum>> {
        let owned = |d: Datum| Ok(Cow::Owned(d));
        match self {
            CompiledExpr::Literal(_) | CompiledExpr::Column(_) => self.eval(row),
            CompiledExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match (op, &*v) {
                    (_, Datum::Null) => owned(Datum::Null),
                    (UnaryOp::Not, Datum::Bool(b)) => owned(Datum::Bool(!b)),
                    (UnaryOp::Not, other) => {
                        Err(DbError::TypeMismatch(format!("NOT expects BOOL, got {other}")))
                    }
                    (UnaryOp::Neg, Datum::Int(i)) => i
                        .checked_neg()
                        .map(|i| Cow::Owned(Datum::Int(i)))
                        .ok_or_else(|| DbError::TypeMismatch("integer overflow".into())),
                    (UnaryOp::Neg, Datum::Float(f)) => owned(Datum::Float(-f)),
                    (UnaryOp::Neg, other) => {
                        Err(DbError::TypeMismatch(format!("- expects a number, got {other}")))
                    }
                }
            }
            CompiledExpr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            CompiledExpr::Func { f, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row)?.into_owned());
                }
                f(&values).map(Cow::Owned)
            }
            CompiledExpr::BoundFunc { f, args, .. } => match args.as_slice() {
                [a] => f(&[&*a.eval(row)?]).map(Cow::Owned),
                _ => {
                    let values = args.iter().map(|a| a.eval(row)).collect::<DbResult<Vec<_>>>()?;
                    f(&values.iter().map(|v| &**v).collect::<Vec<_>>()).map(Cow::Owned)
                }
            },
            CompiledExpr::IsNull { expr, negated } => {
                owned(Datum::Bool(expr.eval(row)?.is_null() != *negated))
            }
            CompiledExpr::InList { expr, list, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return owned(Datum::Null);
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&*item.eval(row)?) {
                        Some(true) => return owned(Datum::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                owned(if saw_null { Datum::Null } else { Datum::Bool(*negated) })
            }
            CompiledExpr::Between { expr, low, high, negated } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                // Desugars to `v >= lo AND v <= hi` under three-valued
                // logic: a NULL bound yields NULL only when the other
                // comparison doesn't already force the AND to FALSE.
                let ge = cmp3(&v, &lo).map(|o| o != Ordering::Less);
                let le = cmp3(&v, &hi).map(|o| o != Ordering::Greater);
                let inside = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                owned(inside.map_or(Datum::Null, |b| Datum::Bool(b != *negated)))
            }
            CompiledExpr::LikePre { expr, pattern, negated } => match &*expr.eval(row)? {
                Datum::Null => owned(Datum::Null),
                Datum::Text(s) => owned(Datum::Bool(pattern.matches(s) != *negated)),
                _ => Err(DbError::TypeMismatch("LIKE expects TEXT operands".into())),
            },
            CompiledExpr::LikeDyn { expr, pattern, negated, escape } => {
                let v = expr.eval(row)?;
                let p = pattern.eval(row)?;
                match (&*v, &*p) {
                    (Datum::Null, _) | (_, Datum::Null) => owned(Datum::Null),
                    (Datum::Text(s), Datum::Text(pat)) => owned(Datum::Bool(
                        LikePattern::compile(pat, *escape)?.matches(s) != *negated,
                    )),
                    _ => Err(DbError::TypeMismatch("LIKE expects TEXT operands".into())),
                }
            }
        }
    }

    /// True when the predicate accepts the row (NULL and FALSE both
    /// reject, per SQL WHERE semantics).
    pub fn accepts(&self, row: &[Datum]) -> DbResult<bool> {
        Ok(matches!(*self.eval(row)?, Datum::Bool(true)))
    }

    /// Record every column position this expression reads into `out`
    /// (scans decode exactly the positions their plan reads).
    pub fn collect_columns(&self, out: &mut std::collections::BTreeSet<usize>) {
        match self {
            CompiledExpr::Literal(_) => {}
            CompiledExpr::Column(i) => {
                out.insert(*i);
            }
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::LikePre { expr, .. } => expr.collect_columns(out),
            CompiledExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            CompiledExpr::Func { args, .. } | CompiledExpr::BoundFunc { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            CompiledExpr::LikeDyn { expr, pattern, .. } => {
                expr.collect_columns(out);
                pattern.collect_columns(out);
            }
        }
    }

    /// Rewrite binding positions into positions of a row that holds only
    /// the bindings `layout` lists, ascending: column `c` becomes the index
    /// of `c` in `layout`. Every column this expression reads must be
    /// there — the executor compiles against the full bindings, so
    /// resolution errors are those of the plan, then remaps through the
    /// layout of the rows its input actually emits.
    pub fn remap(&mut self, layout: &[usize]) {
        match self {
            CompiledExpr::Literal(_) => {}
            CompiledExpr::Column(i) => {
                *i = layout.binary_search(i).expect("the layout holds every column read");
            }
            CompiledExpr::Unary { expr, .. }
            | CompiledExpr::IsNull { expr, .. }
            | CompiledExpr::LikePre { expr, .. } => expr.remap(layout),
            CompiledExpr::Binary { left: a, right: b, .. }
            | CompiledExpr::LikeDyn { expr: a, pattern: b, .. } => {
                a.remap(layout);
                b.remap(layout);
            }
            CompiledExpr::Func { args, .. } | CompiledExpr::BoundFunc { args, .. } => {
                args.iter_mut().for_each(|a| a.remap(layout));
            }
            CompiledExpr::InList { expr, list, .. } => {
                expr.remap(layout);
                list.iter_mut().for_each(|e| e.remap(layout));
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.remap(layout);
                low.remap(layout);
                high.remap(layout);
            }
        }
    }

    /// Can [`CompiledExpr::eval`] *never* return an error for this
    /// expression, whatever datums the row holds? This is the gate for
    /// splitting a scan filter into kernel leaves ([`CompiledExpr::split`]),
    /// for zone-map page skipping and for reordering AND conjuncts: an
    /// expression that can error must be evaluated on every row it would
    /// have seen, or the engine would stop raising errors it owes the
    /// caller (and the qdiff oracle would flag the divergence).
    ///
    /// Deliberately conservative: arithmetic (overflow/division), scalar
    /// functions, LIKE (errors on non-TEXT operands — column types are
    /// not statically known here) and NOT/AND/OR over operands not
    /// *guaranteed* boolean all answer `false`.
    pub fn error_free(&self) -> bool {
        match self {
            CompiledExpr::Literal(_) | CompiledExpr::Column(_) => true,
            CompiledExpr::IsNull { expr, .. } => expr.error_free(),
            CompiledExpr::Unary { op: UnaryOp::Not, expr } => {
                expr.error_free() && expr.bool_typed()
            }
            CompiledExpr::Unary { op: UnaryOp::Neg, .. } => false,
            CompiledExpr::Binary { op, left, right } => match op {
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    left.error_free() && right.error_free()
                }
                BinOp::And | BinOp::Or => {
                    left.error_free()
                        && left.bool_typed()
                        && right.error_free()
                        && right.bool_typed()
                }
                _ => false,
            },
            CompiledExpr::InList { expr, list, .. } => {
                expr.error_free() && list.iter().all(CompiledExpr::error_free)
            }
            CompiledExpr::Between { expr, low, high, .. } => {
                expr.error_free() && low.error_free() && high.error_free()
            }
            CompiledExpr::Func { .. }
            | CompiledExpr::BoundFunc { .. }
            | CompiledExpr::LikePre { .. }
            | CompiledExpr::LikeDyn { .. } => false,
        }
    }

    /// Is this expression guaranteed to evaluate to `Bool` or `Null`
    /// (assuming it evaluates at all)? Needed by [`error_free`] because
    /// NOT/AND/OR error on non-boolean operands.
    fn bool_typed(&self) -> bool {
        match self {
            CompiledExpr::Literal(Datum::Bool(_)) | CompiledExpr::Literal(Datum::Null) => true,
            CompiledExpr::IsNull { .. }
            | CompiledExpr::InList { .. }
            | CompiledExpr::Between { .. }
            | CompiledExpr::LikePre { .. }
            | CompiledExpr::LikeDyn { .. } => true,
            CompiledExpr::Unary { op: UnaryOp::Not, .. } => true,
            CompiledExpr::Binary { op, .. } => matches!(
                op,
                BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::LtEq
                    | BinOp::Gt
                    | BinOp::GtEq
                    | BinOp::And
                    | BinOp::Or
            ),
            _ => false,
        }
    }

    /// Split a scan filter for column-at-a-time evaluation (see
    /// [`ScanFilter`]): the top-level AND conjuncts that are kernel leaves
    /// become [`ColPred`]s, in written order, and the others, ANDed in
    /// written order, the residual. A filter that is not
    /// [`error_free`](CompiledExpr::error_free) is not split: all of it is
    /// the residual.
    pub fn split(self) -> ScanFilter {
        if !self.error_free() {
            return ScanFilter { leaves: Vec::new(), residual: Some(self) };
        }
        let (mut leaves, mut rest) = (Vec::new(), Vec::new());
        self.split_conjuncts(&mut leaves, &mut rest);
        let residual = rest.into_iter().reduce(|left, right| CompiledExpr::Binary {
            op: BinOp::And,
            left: Box::new(left),
            right: Box::new(right),
        });
        ScanFilter { leaves, residual }
    }

    fn split_conjuncts(self, leaves: &mut Vec<ColPred>, rest: &mut Vec<CompiledExpr>) {
        match self {
            CompiledExpr::Binary { op: BinOp::And, left, right } => {
                left.split_conjuncts(leaves, rest);
                right.split_conjuncts(leaves, rest);
            }
            other => match other.as_leaves() {
                Some(found) => leaves.extend(found),
                None => rest.push(other),
            },
        }
    }

    /// This conjunct as kernel leaves: `column <cmp> literal` (either way
    /// round), `column BETWEEN literal AND literal` (TRUE exactly when
    /// `>= low` and `<= high` both are), `column IN (literals)` and
    /// `column IS [NOT] NULL`.
    fn as_leaves(&self) -> Option<Vec<ColPred>> {
        use CompiledExpr::{Column, Literal};
        let leaf = |col: &usize, test| ColPred { col: *col, test };
        match self {
            CompiledExpr::Binary { op, left, right } => {
                let op = match op {
                    BinOp::Eq => CmpOp::Eq,
                    BinOp::NotEq => CmpOp::NotEq,
                    BinOp::Lt => CmpOp::Lt,
                    BinOp::LtEq => CmpOp::LtEq,
                    BinOp::Gt => CmpOp::Gt,
                    BinOp::GtEq => CmpOp::GtEq,
                    _ => return None,
                };
                match (left.as_ref(), right.as_ref()) {
                    (Column(c), Literal(v)) => Some(vec![leaf(c, ColTest::Cmp(op, v.clone()))]),
                    (Literal(v), Column(c)) => {
                        Some(vec![leaf(c, ColTest::Cmp(op.flipped(), v.clone()))])
                    }
                    _ => None,
                }
            }
            CompiledExpr::Between { expr, low, high, negated: false } => {
                match (expr.as_ref(), low.as_ref(), high.as_ref()) {
                    (Column(c), Literal(lo), Literal(hi)) => Some(vec![
                        leaf(c, ColTest::Cmp(CmpOp::GtEq, lo.clone())),
                        leaf(c, ColTest::Cmp(CmpOp::LtEq, hi.clone())),
                    ]),
                    _ => None,
                }
            }
            CompiledExpr::InList { expr, list, negated: false } => {
                let Column(c) = expr.as_ref() else { return None };
                let values = list.iter().map(|item| match item {
                    Literal(v) => Some(v.clone()),
                    _ => None,
                });
                Some(vec![leaf(c, ColTest::In(values.collect::<Option<_>>()?))])
            }
            CompiledExpr::IsNull { expr, negated } => match expr.as_ref() {
                Column(c) => Some(vec![leaf(c, ColTest::IsNull { negated: *negated })]),
                _ => None,
            },
            _ => None,
        }
    }

    /// The zone-map bounds of this filter's kernel leaves.
    #[cfg(test)]
    fn zone_bounds(self) -> Vec<ColBound> {
        self.split().bounds()
    }
}

/// A scan filter split by [`CompiledExpr::split`]: kernel leaves, which a
/// scan over a column image runs a column at a time into a selection
/// vector, and a residual evaluated per row on the leaves' survivors. A
/// row passes when every leaf and the residual are TRUE. Splitting is only
/// done for an error-free filter, whose conjuncts can neither raise nor
/// depend on one another, so neither the order they run in nor the rows
/// the residual skips can change a statement's outcome. The default
/// accepts every row.
#[derive(Default)]
pub struct ScanFilter {
    pub leaves: Vec<ColPred>,
    pub residual: Option<CompiledExpr>,
}

impl ScanFilter {
    /// Does a row (table positions) pass? The per-row form of the filter,
    /// for pages no image serves.
    pub fn accepts(&self, row: &[Datum]) -> DbResult<bool> {
        let pass = |p: &ColPred| p.test.passes(row.get(p.col).unwrap_or(&Datum::Null));
        if !self.leaves.iter().all(pass) {
            return Ok(false);
        }
        self.residual.as_ref().map_or(Ok(true), |r| r.accepts(row))
    }

    /// Zone-map bounds implied by the leaves (see [`zone_bounds`]).
    pub fn bounds(&self) -> Vec<ColBound> {
        zone_bounds(&self.leaves)
    }
}

fn eval_binary<'a>(
    op: BinOp,
    left: &'a CompiledExpr,
    right: &'a CompiledExpr,
    row: &'a [Datum],
) -> DbResult<Cow<'a, Datum>> {
    // AND/OR need lazy NULL handling.
    if matches!(op, BinOp::And | BinOp::Or) {
        let l = to_bool3(&*left.eval(row)?)?;
        // Short-circuit where the result is already determined.
        match (op, l) {
            (BinOp::And, Some(false)) => return Ok(Cow::Owned(Datum::Bool(false))),
            (BinOp::Or, Some(true)) => return Ok(Cow::Owned(Datum::Bool(true))),
            _ => {}
        }
        let r = to_bool3(&*right.eval(row)?)?;
        let result = match op {
            BinOp::And => match (l, r) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (l, r) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("only AND/OR here"),
        };
        return Ok(Cow::Owned(result.map_or(Datum::Null, Datum::Bool)));
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    if l.is_null() || r.is_null() {
        return Ok(Cow::Owned(Datum::Null));
    }
    let (l, r) = (&*l, &*r);
    Ok(Cow::Owned(match op {
        BinOp::Eq => Datum::Bool(l.sql_eq(r).expect("nulls handled")),
        BinOp::NotEq => Datum::Bool(!l.sql_eq(r).expect("nulls handled")),
        BinOp::Lt => Datum::Bool(l.total_cmp(r) == Ordering::Less),
        BinOp::LtEq => Datum::Bool(l.total_cmp(r) != Ordering::Greater),
        BinOp::Gt => Datum::Bool(l.total_cmp(r) == Ordering::Greater),
        BinOp::GtEq => Datum::Bool(l.total_cmp(r) != Ordering::Less),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            crate::expr::eval::arith(op, l, r)?
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }))
}

fn to_bool3(d: &Datum) -> DbResult<Option<bool>> {
    match d {
        Datum::Null => Ok(None),
        Datum::Bool(b) => Ok(Some(*b)),
        other => Err(DbError::TypeMismatch(format!("expected BOOL, got {other}"))),
    }
}

/// Three-valued comparison: `None` when either side is NULL.
fn cmp3(a: &Datum, b: &Datum) -> Option<Ordering> {
    if a.is_null() || b.is_null() {
        None
    } else {
        Some(a.total_cmp(b))
    }
}

/// Can evaluating this expression ever return an error, given that its
/// column references resolved? Deliberately conservative: only shapes with
/// no runtime failure mode at all (column loads, literals, IS NULL) count.
/// The executor uses this to decide when `LIMIT` may stop pulling rows
/// early and when Top-N may project only surviving rows — skipping
/// evaluation of an expression that could error would change which queries
/// fail, which the qdiff oracle would flag.
pub fn infallible(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Column { .. } => true,
        Expr::IsNull { expr, .. } => infallible(expr),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::{Projection, Stmt};
    use crate::sql::parser::parse;

    fn expr(sql: &str) -> Expr {
        let stmt = parse(&format!("SELECT {sql}")).unwrap();
        let Stmt::Select(s) = stmt else { panic!() };
        let Projection::Expr { expr, .. } = s.projections.into_iter().next().unwrap() else {
            panic!()
        };
        expr
    }

    fn bindings() -> Vec<ColumnBinding> {
        vec![
            ColumnBinding::new("g", "id"),
            ColumnBinding::new("g", "name"),
            ColumnBinding::new("p", "id"),
        ]
    }

    fn run(sql: &str, row: &[Datum]) -> DbResult<Datum> {
        let funcs = FunctionRegistry::with_builtins();
        let prog = compile(&expr(sql), &bindings(), &funcs)?;
        prog.eval(row).map(Cow::into_owned)
    }

    #[test]
    fn columns_become_positions() {
        let row = vec![Datum::Int(1), Datum::Text("tp53".into()), Datum::Int(9)];
        assert_eq!(run("name", &row).unwrap(), Datum::Text("tp53".into()));
        assert_eq!(run("p.id", &row).unwrap(), Datum::Int(9));
        assert_eq!(run("g.id + p.id", &row).unwrap(), Datum::Int(10));
    }

    #[test]
    fn resolution_errors_surface_at_compile_time() {
        let funcs = FunctionRegistry::with_builtins();
        assert!(matches!(
            compile(&expr("id"), &bindings(), &funcs),
            Err(DbError::AmbiguousColumn(_))
        ));
        assert!(matches!(
            compile(&expr("missing"), &bindings(), &funcs),
            Err(DbError::NotFound { kind: "column", .. })
        ));
        assert!(matches!(
            compile(&expr("no_such_fn(1)"), &bindings(), &funcs),
            Err(DbError::NotFound { kind: "function", .. })
        ));
        // Aggregates are rejected in scalar contexts at compile time too.
        assert!(compile(&expr("count(name)"), &bindings(), &funcs).is_err());
    }

    /// The compiled evaluator and the tree interpreter must agree on every
    /// expression shape — sweep a grid of expressions over a grid of rows.
    #[test]
    fn compiled_matches_interpreter() {
        let funcs = FunctionRegistry::with_builtins();
        let b = bindings();
        let exprs = [
            "g.id + p.id * 2",
            "g.id / p.id",
            "-g.id",
            "g.id % p.id",
            "name + '!'",
            "g.id < p.id AND name IS NOT NULL",
            "g.id > p.id OR name LIKE 't%'",
            "NOT (g.id = p.id)",
            "g.id IN (1, 2, NULL)",
            "g.id BETWEEN p.id AND 10",
            "name LIKE 'tp_3'",
            "name LIKE name",
            "upper(name)",
            "coalesce(NULL, name)",
            "length(name) + g.id",
        ];
        let rows: Vec<Vec<Datum>> = vec![
            vec![Datum::Int(1), Datum::Text("tp53".into()), Datum::Int(9)],
            vec![Datum::Int(2), Datum::Null, Datum::Int(0)],
            vec![Datum::Null, Datum::Text("t".into()), Datum::Int(2)],
        ];
        for sql in exprs {
            let e = expr(sql);
            let prog = compile(&e, &b, &funcs).unwrap();
            for row in &rows {
                let ctx = EvalContext { bindings: &b, row, funcs: &funcs };
                let interp = crate::expr::eval::eval(&e, &ctx);
                let compiled = prog.eval(row);
                match (interp, compiled) {
                    (Ok(a), Ok(c)) => assert_eq!(a, *c, "{sql} over {row:?}"),
                    (Err(_), Err(_)) => {}
                    (a, c) => panic!("{sql} over {row:?}: interp {a:?} vs compiled {c:?}"),
                }
            }
        }
    }

    /// A function with a binder sees its literal arguments once, at compile
    /// time, and only the others per row; one whose binder declines, or
    /// that has none, is called as before.
    #[test]
    fn literal_arguments_are_bound_at_compile_time() {
        use crate::expr::func::BoundCall;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let binds = Arc::new(AtomicUsize::new(0));
        let mut funcs = FunctionRegistry::with_builtins();
        let count = Arc::clone(&binds);
        funcs
            .register_scalar_with_binder(
                "tagged",
                Arc::new(|args| Ok(Datum::Text(format!("plain {args:?}")))),
                Arc::new(move |literals| {
                    // Declines unless the first argument is the literal 'yes'.
                    if literals.first() != Some(&Some(&Datum::Text("yes".into()))) {
                        return None;
                    }
                    count.fetch_add(1, Ordering::Relaxed);
                    let shape = format!("{literals:?}");
                    Some(BoundCall::per_row(Arc::new(move |vars: &[&Datum]| {
                        Ok(Datum::Text(format!("bound {shape} {vars:?}")))
                    })))
                }),
            )
            .unwrap();
        let b = bindings();
        let row = vec![Datum::Int(1), Datum::Text("tp53".into()), Datum::Int(9)];
        let run =
            |sql: &str| compile(&expr(sql), &b, &funcs).unwrap().eval(&row).unwrap().into_owned();

        let prog = compile(&expr("tagged('yes', name, 7, g.id + 1)"), &b, &funcs).unwrap();
        let mut cols = std::collections::BTreeSet::new();
        prog.collect_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert!(!prog.error_free());
        for _ in 0..3 {
            assert_eq!(
                *prog.eval(&row).unwrap(),
                Datum::Text(
                    "bound [Some(Text(\"yes\")), None, Some(Int(7)), None] \
                     [Text(\"tp53\"), Int(2)]"
                        .into()
                )
            );
        }
        assert_eq!(binds.load(Ordering::Relaxed), 1, "bound once, not once per row");
        // One varying argument, a column or not; and none at all.
        assert_eq!(
            run("tagged('yes', name)"),
            Datum::Text("bound [Some(Text(\"yes\")), None] [Text(\"tp53\")]".into())
        );
        assert_eq!(
            run("tagged('yes', p.id * 2)"),
            Datum::Text("bound [Some(Text(\"yes\")), None] [Int(18)]".into())
        );
        assert_eq!(run("tagged('yes')"), Datum::Text("bound [Some(Text(\"yes\"))] []".into()));
        // Declined: the plain function with the full argument list.
        assert_eq!(
            run("tagged('no', name)"),
            Datum::Text("plain [Text(\"no\"), Text(\"tp53\")]".into())
        );
        // An argument that errors does so before the function is reached.
        assert!(compile(&expr("tagged('yes', g.id / 0)"), &b, &funcs).unwrap().eval(&row).is_err());
    }

    #[test]
    fn error_free_is_conservative() {
        let funcs = FunctionRegistry::with_builtins();
        let b = bindings();
        let ef = |sql: &str| compile(&expr(sql), &b, &funcs).unwrap().error_free();
        assert!(ef("g.id"));
        assert!(ef("g.id > 5"));
        assert!(ef("g.id = 1 AND p.id < 3"));
        assert!(ef("NOT (g.id = 1)"));
        assert!(ef("g.id IS NULL OR p.id BETWEEN 1 AND 9"));
        assert!(ef("g.id IN (1, 2, NULL)"));
        // Arithmetic can overflow/divide-by-zero; functions and LIKE can
        // type-error; AND over a bare column can type-error.
        assert!(!ef("g.id + 1 > 2"));
        assert!(!ef("g.id / p.id = 1"));
        assert!(!ef("-g.id < 0"));
        assert!(!ef("upper(name) = 'X'"));
        assert!(!ef("name LIKE 't%'"));
        assert!(!ef("g.id AND p.id"));
        assert!(!ef("NOT name"));
    }

    #[test]
    fn collect_columns_finds_every_reference() {
        let funcs = FunctionRegistry::with_builtins();
        let b = bindings();
        let prog = compile(&expr("g.id > 1 AND p.id IN (2, 3)"), &b, &funcs).unwrap();
        let mut cols = std::collections::BTreeSet::new();
        prog.collect_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![0, 2]);
    }

    /// A row holding only bindings 0 and 2 reads `p.id` at index 1.
    #[test]
    fn remap_reads_through_the_layout() {
        let funcs = FunctionRegistry::with_builtins();
        let mut prog = compile(&expr("g.id + p.id IN (10, p.id)"), &bindings(), &funcs).unwrap();
        prog.remap(&[0, 2]);
        let mut cols = std::collections::BTreeSet::new();
        prog.collect_columns(&mut cols);
        assert_eq!(cols.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(*prog.eval(&[Datum::Int(1), Datum::Int(9)]).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn zone_bounds_extraction() {
        let funcs = FunctionRegistry::with_builtins();
        let b = bindings();
        let bounds = |sql: &str| compile(&expr(sql), &b, &funcs).unwrap().zone_bounds();

        // Range conjuncts merge per column; literal-on-the-left flips.
        let bs = bounds("g.id >= 5 AND 10 > g.id");
        assert_eq!(bs.len(), 1);
        assert_eq!(bs[0].col, 0);
        assert_eq!(bs[0].lo, Some((Datum::Int(5), true)));
        assert_eq!(bs[0].hi, Some((Datum::Int(10), false)));

        // Equality folds to lo == hi inclusive.
        let bs = bounds("p.id = 7");
        assert_eq!(bs[0].col, 2);
        assert_eq!(bs[0].lo, Some((Datum::Int(7), true)));
        assert_eq!(bs[0].hi, Some((Datum::Int(7), true)));

        // BETWEEN and IN contribute [min, max]; NULL list items drop out.
        let bs = bounds("g.id BETWEEN 2 AND 4");
        assert_eq!(bs[0].lo, Some((Datum::Int(2), true)));
        assert_eq!(bs[0].hi, Some((Datum::Int(4), true)));
        let bs = bounds("g.id IN (9, 3, NULL, 6)");
        assert_eq!(bs[0].lo, Some((Datum::Int(3), true)));
        assert_eq!(bs[0].hi, Some((Datum::Int(9), true)));

        // IS NULL / IS NOT NULL set the null-side requirements.
        let bs = bounds("g.id IS NULL");
        assert!(bs[0].require_null && !bs[0].require_non_null);
        let bs = bounds("g.id IS NOT NULL");
        assert!(bs[0].require_non_null);

        // NULL comparisons, OR, NOT and non-leaf shapes extract nothing.
        assert!(bounds("g.id > NULL").is_empty());
        assert!(bounds("g.id > 1 OR p.id < 2").is_empty());
        assert!(bounds("NOT (g.id > 1)").is_empty());
        assert!(bounds("g.id + 1 > 2").is_empty());
        assert!(bounds("g.id NOT BETWEEN 1 AND 2").is_empty());
        assert!(bounds("g.id NOT IN (1, 2)").is_empty());
        assert!(bounds("g.id IN (NULL)").is_empty());
    }

    #[test]
    fn infallible_is_conservative() {
        assert!(infallible(&expr("a")));
        assert!(infallible(&expr("1")));
        assert!(infallible(&expr("a IS NOT NULL")));
        assert!(!infallible(&expr("a + 1")));
        assert!(!infallible(&expr("upper(a)")));
        assert!(!infallible(&expr("a = 1")));
    }
}
