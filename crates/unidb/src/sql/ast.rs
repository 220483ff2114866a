//! Abstract syntax tree for the SQL dialect.

use crate::datum::Datum;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Select(SelectStmt),
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Expr>>,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete {
        table: String,
        filter: Option<Expr>,
    },
    CreateTable {
        table: String,
        /// `(name, type name, nullable)` — type names resolve against the
        /// catalog, so opaque UDT names work here.
        columns: Vec<(String, String, bool)>,
    },
    DropTable {
        table: String,
    },
    /// `CREATE [UNIQUE] INDEX ON t [USING kind] (column) [WITH (name =
    /// literal, …)]`: kind `btree` unless `USING` names another, `UNIQUE`
    /// is the parameter `unique = TRUE`.
    CreateIndex {
        table: String,
        column: String,
        kind: String,
        params: Vec<(String, Datum)>,
    },
    CreateSpace {
        name: String,
    },
    Begin,
    Commit,
    Rollback,
    Explain {
        stmt: Box<Stmt>,
        /// `EXPLAIN ANALYZE`: execute the statement and annotate the plan
        /// with per-operator runtime counters.
        analyze: bool,
    },
}

/// A `SELECT` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: Option<FromClause>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<u64>,
    /// Rows to skip before the limit applies (`LIMIT n OFFSET m`).
    pub offset: Option<u64>,
}

/// One item of a `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `*`.
    Star,
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// `FROM` clause: a base table plus joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<Join>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name expressions refer to this table by.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// A join step.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: Option<Expr>,
}

/// Join kinds supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Cross,
}

/// Scalar expressions; user-defined operators appear as [`Expr::Func`],
/// which is how the Genomics Algebra reaches every SQL clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Datum),
    Column {
        table: Option<String>,
        name: String,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Scalar function, user-defined operator, or aggregate call.
    Func {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    /// `*` inside `COUNT(*)`.
    Wildcard,
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
        /// `ESCAPE 'c'`: in the pattern, `c` followed by any character makes
        /// that character literal (so `\%` matches a percent sign).
        escape: Option<char>,
    },
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
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

impl Expr {
    /// Walk the expression tree, visiting every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Wildcard => {}
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::Between { expr, low, high, .. } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
        }
    }

    /// True if the expression references any column.
    pub fn references_columns(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, Expr::Column { .. }) {
                found = true;
            }
        });
        found
    }

    /// Split a conjunction into its AND-ed factors.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary { op: BinOp::And, left, right } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Reassemble factors into a conjunction (`None` for an empty list).
    pub fn conjoin(factors: Vec<Expr>) -> Option<Expr> {
        factors.into_iter().reduce(|acc, e| Expr::Binary {
            op: BinOp::And,
            left: Box::new(acc),
            right: Box::new(e),
        })
    }

    /// A human-readable rendering for EXPLAIN output.
    pub fn render(&self) -> String {
        self.render_impl(false)
    }

    /// Like [`Expr::render`], but every literal value is elided as `?` —
    /// the literal-insensitive *shape* used for plan hashing, so two
    /// executions of one statement fingerprint that differ only in bound
    /// constants hash to the same plan.
    pub fn render_shape(&self) -> String {
        self.render_impl(true)
    }

    fn render_impl(&self, shape: bool) -> String {
        match self {
            Expr::Literal(_) if shape => "?".to_string(),
            Expr::Literal(d) => match d {
                Datum::Text(s) => format!("'{s}'"),
                other => other.to_string(),
            },
            Expr::Column { table: Some(t), name } => format!("{t}.{name}"),
            Expr::Column { table: None, name } => name.clone(),
            Expr::Unary { op: UnaryOp::Not, expr } => format!("NOT {}", expr.render_impl(shape)),
            // Parenthesized so nested negation never renders as `--x`,
            // which the lexer would read as a comment.
            Expr::Unary { op: UnaryOp::Neg, expr } => format!("(-{})", expr.render_impl(shape)),
            Expr::Binary { op, left, right } => {
                let sym = match op {
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                    BinOp::Eq => "=",
                    BinOp::NotEq => "<>",
                    BinOp::Lt => "<",
                    BinOp::LtEq => "<=",
                    BinOp::Gt => ">",
                    BinOp::GtEq => ">=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Mod => "%",
                };
                format!("({} {sym} {})", left.render_impl(shape), right.render_impl(shape))
            }
            Expr::Func { name, args, distinct } => {
                let inner: Vec<String> = args.iter().map(|a| a.render_impl(shape)).collect();
                let d = if *distinct { "DISTINCT " } else { "" };
                format!("{name}({d}{})", inner.join(", "))
            }
            Expr::Wildcard => "*".into(),
            Expr::IsNull { expr, negated } => {
                format!("{} IS {}NULL", expr.render_impl(shape), if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                let inner: Vec<String> = list.iter().map(|a| a.render_impl(shape)).collect();
                format!(
                    "{} {}IN ({})",
                    expr.render_impl(shape),
                    if *negated { "NOT " } else { "" },
                    inner.join(", ")
                )
            }
            Expr::Between { expr, low, high, negated } => format!(
                "{} {}BETWEEN {} AND {}",
                expr.render_impl(shape),
                if *negated { "NOT " } else { "" },
                low.render_impl(shape),
                high.render_impl(shape)
            ),
            Expr::Like { expr, pattern, negated, escape } => format!(
                "{} {}LIKE {}{}",
                expr.render_impl(shape),
                if *negated { "NOT " } else { "" },
                pattern.render_impl(shape),
                if shape {
                    escape.map_or(String::new(), |_| " ESCAPE ?".to_string())
                } else {
                    escape.map_or(String::new(), |c| format!(" ESCAPE '{c}'"))
                }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str) -> Expr {
        Expr::Column { table: None, name: name.into() }
    }

    #[test]
    fn conjunct_split_and_join() {
        let e = Expr::Binary {
            op: BinOp::And,
            left: Box::new(col("a")),
            right: Box::new(Expr::Binary {
                op: BinOp::And,
                left: Box::new(col("b")),
                right: Box::new(col("c")),
            }),
        };
        let parts = e.clone().conjuncts();
        assert_eq!(parts.len(), 3);
        let back = Expr::conjoin(parts).unwrap();
        // Same factors, possibly reassociated.
        assert_eq!(back.clone().conjuncts().len(), 3);
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn column_detection() {
        assert!(col("x").references_columns());
        assert!(!Expr::Literal(Datum::Int(1)).references_columns());
        let f = Expr::Func { name: "f".into(), args: vec![col("x")], distinct: false };
        assert!(f.references_columns());
    }

    #[test]
    fn rendering() {
        let e = Expr::Binary {
            op: BinOp::Eq,
            left: Box::new(col("id")),
            right: Box::new(Expr::Literal(Datum::Int(3))),
        };
        assert_eq!(e.render(), "(id = 3)");
        let f = Expr::Func {
            name: "contains".into(),
            args: vec![col("seq"), Expr::Literal(Datum::Text("ATT".into()))],
            distinct: false,
        };
        assert_eq!(f.render(), "contains(seq, 'ATT')");
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef { name: "genes".into(), alias: Some("g".into()) };
        assert_eq!(t.binding(), "g");
        let t = TableRef { name: "genes".into(), alias: None };
        assert_eq!(t.binding(), "genes");
    }
}
