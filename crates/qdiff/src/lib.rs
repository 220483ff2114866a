//! # qdiff — differential query fuzzing for the Unifying Database
//!
//! A seeded generator produces random schemas, datasets, and SQL
//! statements; every statement runs through the real unidb
//! parser/planner/executor **and** through an independent reference oracle
//! ([`oracle`]) — a naive tuple-at-a-time interpreter over in-memory rows
//! that implements only the documented semantics contract (three-valued
//! logic, NULLS LAST under ascending ORDER BY, `sum`/`avg` i128
//! accumulation, LIKE with ESCAPE, …; see DESIGN.md). Any disagreement is
//! a [`Divergence`]; the [`mod@shrink`] module then minimizes the scenario and
//! the CLI dumps a reproducible `.sql` artifact.
//!
//! The whole pipeline is deterministic per seed: same seed, same schema,
//! same rows, same statements, same verdict.
//!
//! ## What the generator deliberately avoids
//!
//! The oracle executes statements in a different row order than the
//! engine's heap scan, so generated statements are restricted to forms
//! whose *outcome* is order-independent:
//!
//! * `sum`/`avg` only over INT columns — float accumulation order matters,
//!   and UPDATEs relocate heap rows;
//! * DML assignments are literals or same-type column copies, so an
//!   UPDATE never fails on some of its rows: the engine would leave no
//!   trace of such a statement (DML is atomic per statement), but the
//!   oracle applies assignments row by row and models no undo;
//! * WHERE predicates are error-free by construction (no arithmetic that
//!   can overflow, division only by non-zero literals) because predicate
//!   pushdown legitimately changes *which rows* a sub-predicate is
//!   evaluated on. SELECT-list expressions have no such restriction: both
//!   sides evaluate them on the same surviving rows, so error outcomes
//!   agree.

pub mod diff;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod txn;

pub use diff::{check_scenario, check_scenario_with_parallelism, Divergence};
pub use gen::{gen_scenario, gen_scenario_with_profile, Profile};
pub use shrink::shrink;
pub use txn::{check_txn_scenario, gen_txn_scenario, shrink_txn, TxnDivergence, TxnScenario};

use std::cmp::Ordering;

/// A generated value. Mirrors the subset of `unidb::Datum` the fuzzer
/// exercises (no BLOB / opaque values — those have no literal syntax).
#[derive(Clone, Debug)]
pub enum Val {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
}

impl Val {
    pub fn is_null(&self) -> bool {
        matches!(self, Val::Null)
    }

    /// Mirror of `Datum::total_cmp`: NULL first, then BOOL, then numbers
    /// (Int/Float compared by value, as f64 across types), then TEXT.
    pub fn total_cmp(&self, other: &Val) -> Ordering {
        fn rank(v: &Val) -> u8 {
            match v {
                Val::Null => 0,
                Val::Bool(_) => 1,
                Val::Int(_) | Val::Float(_) => 2,
                Val::Text(_) => 3,
            }
        }
        match (self, other) {
            (Val::Null, Val::Null) => Ordering::Equal,
            (Val::Bool(a), Val::Bool(b)) => a.cmp(b),
            (Val::Int(a), Val::Int(b)) => a.cmp(b),
            (Val::Float(a), Val::Float(b)) => a.total_cmp(b),
            (Val::Int(a), Val::Float(b)) => (*a as f64).total_cmp(b),
            (Val::Float(a), Val::Int(b)) => a.total_cmp(&(*b as f64)),
            (Val::Text(a), Val::Text(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Render as a SQL literal.
    pub fn render(&self) -> String {
        match self {
            Val::Null => "NULL".into(),
            Val::Bool(b) => b.to_string(),
            Val::Int(i) => i.to_string(),
            // `{:?}` keeps a decimal point or exponent so the literal lexes
            // back as a FLOAT, not an INT.
            Val::Float(f) => format!("{f:?}"),
            Val::Text(s) => format!("'{}'", s.replace('\'', "''")),
        }
    }
}

/// Column types the fuzzer generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColTy {
    Int,
    Float,
    Text,
    Bool,
}

impl ColTy {
    pub fn sql_name(self) -> &'static str {
        match self {
            ColTy::Int => "INT",
            ColTy::Float => "FLOAT",
            ColTy::Text => "TEXT",
            ColTy::Bool => "BOOL",
        }
    }
}

#[derive(Clone, Debug)]
pub struct ColSpec {
    pub name: String,
    pub ty: ColTy,
    pub nullable: bool,
}

#[derive(Clone, Debug)]
pub struct TableSpec {
    pub name: String,
    pub cols: Vec<ColSpec>,
    /// Non-unique B-tree index on this column, if any — changes the plans
    /// the engine picks without changing results.
    pub index_on: Option<usize>,
}

/// One self-contained fuzz case: a schema plus a statement sequence.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub seed: u64,
    pub tables: Vec<TableSpec>,
    pub ops: Vec<Op>,
}

/// Where an UPDATE assignment gets its value.
#[derive(Clone, Debug)]
pub enum SetSrc {
    Lit(Val),
    /// Copy another column of the same row (by column index).
    Col(usize),
}

#[derive(Clone, Debug)]
pub enum Op {
    Insert { table: usize, rows: Vec<Vec<Val>> },
    Update { table: usize, sets: Vec<(usize, SetSrc)>, filter: Option<QExpr> },
    Delete { table: usize, filter: Option<QExpr> },
    Query(Query),
}

/// Scalar expression. Rendered fully parenthesized, so the SQL text has a
/// single possible parse (parser precedence is pinned separately by golden
/// tests in `unidb::sql::parser`).
#[derive(Clone, Debug)]
pub enum QExpr {
    Lit(Val),
    /// Column reference. Column names are unique across the whole scenario,
    /// so references never need table qualification.
    Col(String),
    Neg(Box<QExpr>),
    Not(Box<QExpr>),
    Bin(QOp, Box<QExpr>, Box<QExpr>),
    IsNull {
        expr: Box<QExpr>,
        negated: bool,
    },
    InList {
        expr: Box<QExpr>,
        list: Vec<QExpr>,
        negated: bool,
    },
    Between {
        expr: Box<QExpr>,
        lo: Box<QExpr>,
        hi: Box<QExpr>,
        negated: bool,
    },
    Like {
        expr: Box<QExpr>,
        pattern: String,
        escape: Option<char>,
        negated: bool,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl QOp {
    fn sym(self) -> &'static str {
        match self {
            QOp::And => "AND",
            QOp::Or => "OR",
            QOp::Eq => "=",
            QOp::NotEq => "<>",
            QOp::Lt => "<",
            QOp::LtEq => "<=",
            QOp::Gt => ">",
            QOp::GtEq => ">=",
            QOp::Add => "+",
            QOp::Sub => "-",
            QOp::Mul => "*",
            QOp::Div => "/",
            QOp::Mod => "%",
        }
    }
}

impl QExpr {
    pub fn render(&self) -> String {
        match self {
            QExpr::Lit(v) => v.render(),
            QExpr::Col(name) => name.clone(),
            // The space after `-` keeps `- -2` from lexing as a `--` comment.
            QExpr::Neg(e) => format!("(- {})", e.render()),
            QExpr::Not(e) => format!("(NOT {})", e.render()),
            QExpr::Bin(op, l, r) => format!("({} {} {})", l.render(), op.sym(), r.render()),
            QExpr::IsNull { expr, negated } => {
                format!("({} IS {}NULL)", expr.render(), if *negated { "NOT " } else { "" })
            }
            QExpr::InList { expr, list, negated } => {
                let items: Vec<String> = list.iter().map(QExpr::render).collect();
                format!(
                    "({} {}IN ({}))",
                    expr.render(),
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            QExpr::Between { expr, lo, hi, negated } => format!(
                "({} {}BETWEEN {} AND {})",
                expr.render(),
                if *negated { "NOT " } else { "" },
                lo.render(),
                hi.render()
            ),
            QExpr::Like { expr, pattern, escape, negated } => format!(
                "({} {}LIKE '{}'{})",
                expr.render(),
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''"),
                escape.map_or(String::new(), |c| format!(" ESCAPE '{c}'"))
            ),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

#[derive(Clone, Debug)]
pub struct JoinSpec {
    pub table: usize,
    pub kind: JoinKind,
    /// Equi-join columns `(left, right)`; `None` only for CROSS.
    pub on: Option<(String, String)>,
}

#[derive(Clone, Debug)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    fn sql_name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

#[derive(Clone, Debug)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument column; `None` renders `count(*)`.
    pub col: Option<String>,
}

#[derive(Clone, Debug)]
pub enum Proj {
    Plain(Vec<QExpr>),
    Agg { group: Vec<String>, aggs: Vec<AggSpec> },
}

#[derive(Clone, Debug)]
pub struct Query {
    pub table: usize,
    pub join: Option<JoinSpec>,
    pub distinct: bool,
    pub proj: Proj,
    pub filter: Option<QExpr>,
    /// `(output column index, ascending)` — ORDER BY always targets the
    /// projection aliases `o0, o1, …`.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl Query {
    /// Number of output columns.
    pub fn out_arity(&self) -> usize {
        match &self.proj {
            Proj::Plain(exprs) => exprs.len(),
            Proj::Agg { group, aggs } => group.len() + aggs.len(),
        }
    }
}

impl Scenario {
    /// DDL statements creating the schema (tables, then indexes).
    pub fn setup_sql(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tables {
            let cols: Vec<String> = t
                .cols
                .iter()
                .map(|c| {
                    format!(
                        "{} {}{}",
                        c.name,
                        c.ty.sql_name(),
                        if c.nullable { "" } else { " NOT NULL" }
                    )
                })
                .collect();
            out.push(format!("CREATE TABLE {} ({})", t.name, cols.join(", ")));
        }
        for t in &self.tables {
            if let Some(i) = t.index_on {
                out.push(format!("CREATE INDEX ON {} ({})", t.name, t.cols[i].name));
            }
        }
        out
    }

    /// Render one op as SQL.
    pub fn op_sql(&self, op: &Op) -> String {
        match op {
            Op::Insert { table, rows } => {
                let t = &self.tables[*table];
                let tuples: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> = r.iter().map(Val::render).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                format!("INSERT INTO {} VALUES {}", t.name, tuples.join(", "))
            }
            Op::Update { table, sets, filter } => {
                let t = &self.tables[*table];
                let assigns: Vec<String> = sets
                    .iter()
                    .map(|(col, src)| {
                        let rhs = match src {
                            SetSrc::Lit(v) => v.render(),
                            SetSrc::Col(c) => t.cols[*c].name.clone(),
                        };
                        format!("{} = {}", t.cols[*col].name, rhs)
                    })
                    .collect();
                let mut sql = format!("UPDATE {} SET {}", t.name, assigns.join(", "));
                if let Some(f) = filter {
                    sql.push_str(&format!(" WHERE {}", f.render()));
                }
                sql
            }
            Op::Delete { table, filter } => {
                let mut sql = format!("DELETE FROM {}", self.tables[*table].name);
                if let Some(f) = filter {
                    sql.push_str(&format!(" WHERE {}", f.render()));
                }
                sql
            }
            Op::Query(q) => self.query_sql(q),
        }
    }

    fn query_sql(&self, q: &Query) -> String {
        let mut items: Vec<String> = Vec::new();
        match &q.proj {
            Proj::Plain(exprs) => {
                for (i, e) in exprs.iter().enumerate() {
                    items.push(format!("{} AS o{i}", e.render()));
                }
            }
            Proj::Agg { group, aggs } => {
                for (i, g) in group.iter().enumerate() {
                    items.push(format!("{g} AS o{i}"));
                }
                for (j, a) in aggs.iter().enumerate() {
                    let arg = a.col.as_deref().unwrap_or("*");
                    items.push(format!("{}({arg}) AS o{}", a.func.sql_name(), group.len() + j));
                }
            }
        }
        let mut sql = format!(
            "SELECT {}{} FROM {}",
            if q.distinct { "DISTINCT " } else { "" },
            items.join(", "),
            self.tables[q.table].name
        );
        if let Some(j) = &q.join {
            let right = &self.tables[j.table].name;
            match (j.kind, &j.on) {
                (JoinKind::Cross, _) => sql.push_str(&format!(" CROSS JOIN {right}")),
                (JoinKind::Inner, Some((l, r))) => {
                    sql.push_str(&format!(" INNER JOIN {right} ON {l} = {r}"))
                }
                (JoinKind::Left, Some((l, r))) => {
                    sql.push_str(&format!(" LEFT JOIN {right} ON {l} = {r}"))
                }
                (_, None) => unreachable!("non-cross join always has an ON pair"),
            }
        }
        if let Some(f) = &q.filter {
            sql.push_str(&format!(" WHERE {}", f.render()));
        }
        if let Proj::Agg { group, .. } = &q.proj {
            if !group.is_empty() {
                sql.push_str(&format!(" GROUP BY {}", group.join(", ")));
            }
        }
        if !q.order_by.is_empty() {
            let keys: Vec<String> = q
                .order_by
                .iter()
                .map(|(i, asc)| format!("o{i}{}", if *asc { "" } else { " DESC" }))
                .collect();
            sql.push_str(&format!(" ORDER BY {}", keys.join(", ")));
        }
        if let Some(n) = q.limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }
        if let Some(m) = q.offset {
            sql.push_str(&format!(" OFFSET {m}"));
        }
        sql
    }

    /// The whole scenario as a runnable SQL script (the artifact format).
    pub fn render_script(&self) -> String {
        let mut out = format!("-- qdiff scenario, seed {}\n", self.seed);
        for s in self.setup_sql() {
            out.push_str(&s);
            out.push_str(";\n");
        }
        for op in &self.ops {
            out.push_str(&self.op_sql(op));
            out.push_str(";\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn val_render_roundtrips_through_the_lexer() {
        let d = unidb::Database::in_memory();
        for v in [
            Val::Null,
            Val::Bool(true),
            Val::Int(-7),
            Val::Int(i64::MAX),
            Val::Float(0.25),
            Val::Float(1e15),
            Val::Float(-2.5),
            Val::Text("a'b%_é".into()),
        ] {
            let rs = d.execute(&format!("SELECT {} AS x", v.render())).unwrap();
            // The engine's datum must compare equal to the source value.
            let got = crate::diff::datum_to_val(&rs.rows[0][0]).unwrap();
            assert_eq!(got.total_cmp(&v), std::cmp::Ordering::Equal, "{v:?} -> {got:?}");
        }
    }

    #[test]
    fn total_cmp_mirrors_datum() {
        use std::cmp::Ordering::*;
        assert_eq!(Val::Int(3).total_cmp(&Val::Float(3.0)), Equal);
        assert_eq!(Val::Null.total_cmp(&Val::Int(0)), Less);
        assert_eq!(Val::Bool(true).total_cmp(&Val::Int(-99)), Less);
        assert_eq!(Val::Text("a".into()).total_cmp(&Val::Int(9)), Greater);
        // Large ints compare exactly against each other but by f64 value
        // against floats, exactly like Datum.
        assert_eq!(Val::Int(i64::MAX).total_cmp(&Val::Int(i64::MAX - 1)), Greater);
        assert_eq!(Val::Int(i64::MAX).total_cmp(&Val::Float(i64::MAX as f64)), Equal);
    }

    #[test]
    fn negative_literal_renders_without_comment_ambiguity() {
        let e = QExpr::Neg(Box::new(QExpr::Lit(Val::Int(-2))));
        assert_eq!(e.render(), "(- -2)");
        let d = unidb::Database::in_memory();
        let rs = d.execute(&format!("SELECT {} AS x", e.render())).unwrap();
        assert_eq!(rs.rows[0][0].as_int(), Some(2));
    }
}
