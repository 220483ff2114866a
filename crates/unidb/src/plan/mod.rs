//! Query planning and optimization.
//!
//! The planner turns a parsed `SELECT` into a tree of physical operators,
//! applying the optimizations §6.5 of the paper calls for:
//!
//! * **predicate pushdown** — WHERE conjuncts that mention a single table
//!   move into that table's scan (never into the null-padded side of a
//!   LEFT JOIN, which would change semantics);
//! * **index selection** — an equality or range conjunct on a B-tree-indexed
//!   column, or a *function predicate* (e.g. `contains(seq, 'ATT…')`) whose
//!   column carries a user-defined access method, becomes an index scan
//!   with that [`Probe`]; a domain call's candidates are re-checked by the
//!   predicate as a residual (filter semantics), and a range probe absorbs
//!   every other range conjunct on its column;
//! * **selectivity estimation** — B-tree distinct-key counts and UDI
//!   selectivity hooks rank alternative access paths;
//! * **join strategy** — equi-joins become hash joins, everything else a
//!   nested loop.

pub mod planner;

use crate::datum::Datum;
use crate::expr::eval::ColumnBinding;
use crate::sql::ast::{Expr, JoinKind};
use std::ops::{Bound, RangeBounds};

/// One aggregate call collected from the query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Aggregate function name (`count`, `sum`, …).
    pub func: String,
    /// Argument expression; `None` is `count(*)`.
    pub arg: Option<Expr>,
    /// `agg(DISTINCT x)`.
    pub distinct: bool,
}

/// What an index scan asks of the index on its column.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// B-tree equality: the rows whose value is the key.
    Eq(Datum),
    /// B-tree range: the rows whose value lies between the bounds.
    Range { lo: Bound<Datum>, hi: Bound<Datum> },
    /// A domain index's answer to `func(column, args…)`: candidates, a
    /// superset of the matches.
    Call { func: String, args: Vec<Datum> },
}

impl Probe {
    /// Does the probe return exactly the rows its predicate matches? A
    /// domain call returns candidates its scan must re-check.
    pub fn exact(&self) -> bool {
        !matches!(self, Probe::Call { .. })
    }

    /// Can a row whose indexed column holds `value` be among the probe's
    /// answers? A domain call admits every value: its re-check decides.
    pub fn admits(&self, value: &Datum) -> bool {
        match self {
            Probe::Eq(key) => value == key,
            Probe::Range { lo, hi } => (lo.as_ref(), hi.as_ref()).contains(value),
            Probe::Call { .. } => true,
        }
    }
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// A single empty row (for `SELECT 1 + 1`).
    Nothing,
    /// Full table scan with an optional pushed-down residual predicate.
    SeqScan {
        table_id: u32,
        qualified: String,
        columns: Vec<ColumnBinding>,
        residual: Option<Expr>,
    },
    /// Index scan: the index on `column` that serves `probe` answers with
    /// candidate rows, and `residual` filters them. An approximate probe
    /// (a domain call) keeps its own predicate in `residual`, so every
    /// candidate is re-checked.
    IndexScan {
        table_id: u32,
        qualified: String,
        columns: Vec<ColumnBinding>,
        column: String,
        probe: Probe,
        residual: Option<Expr>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        kind: JoinKind,
        on: Option<Expr>,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_key: Expr,
        right_key: Expr,
        /// Which input the hash table is built from. The planner puts the
        /// smaller estimated side here; the executor always emits columns
        /// in `left ++ right` order regardless of the choice.
        build_left: bool,
        /// `Inner` or `Left`. A LEFT hash join always builds on the right
        /// (padding) side so probe misses can emit null-padded rows.
        kind: JoinKind,
    },
    Aggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<Expr>,
        calls: Vec<AggCall>,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(Expr, bool)>,
    },
    /// Fused Sort + Limit: a bounded heap keeps only the top
    /// `offset + n` rows in sort order, then rows `offset..offset + n`
    /// are emitted. Never sorts (or even retains) the full input.
    TopN {
        input: Box<PhysicalPlan>,
        keys: Vec<(Expr, bool)>,
        n: u64,
        offset: u64,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        /// Maximum rows to emit; `None` means no cap (OFFSET without LIMIT).
        n: Option<u64>,
        /// Rows to skip before the cap applies.
        offset: u64,
    },
}

impl PhysicalPlan {
    /// The output schema of this operator.
    pub fn bindings(&self) -> Vec<ColumnBinding> {
        match self {
            PhysicalPlan::Nothing => Vec::new(),
            PhysicalPlan::SeqScan { columns, .. } | PhysicalPlan::IndexScan { columns, .. } => {
                columns.clone()
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopN { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => input.bindings(),
            PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                let mut b = left.bindings();
                b.extend(right.bindings());
                b
            }
            PhysicalPlan::HashJoin { left, right, .. } => {
                let mut b = left.bindings();
                b.extend(right.bindings());
                b
            }
            PhysicalPlan::Aggregate { group_by, calls, .. } => {
                let mut b: Vec<ColumnBinding> = (0..group_by.len())
                    .map(|i| ColumnBinding::new("", &format!("__grp_{i}")))
                    .collect();
                b.extend((0..calls.len()).map(|i| ColumnBinding::new("", &format!("__agg_{i}"))));
                b
            }
            PhysicalPlan::Project { names, .. } => {
                names.iter().map(|n| ColumnBinding::new("", n)).collect()
            }
        }
    }

    /// Ids of every base table this plan reads, deduplicated, in first-seen
    /// order. Caches key result invalidation on these tables' versions.
    pub fn table_ids(&self) -> Vec<u32> {
        let mut ids = Vec::new();
        self.collect_table_ids(&mut ids);
        ids
    }

    fn collect_table_ids(&self, ids: &mut Vec<u32>) {
        match self {
            PhysicalPlan::Nothing => {}
            PhysicalPlan::SeqScan { table_id, .. } | PhysicalPlan::IndexScan { table_id, .. } => {
                if !ids.contains(table_id) {
                    ids.push(*table_id);
                }
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopN { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => input.collect_table_ids(ids),
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => {
                left.collect_table_ids(ids);
                right.collect_table_ids(ids);
            }
        }
    }

    /// Direct child operators, in executor order (left before right).
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Nothing
            | PhysicalPlan::SeqScan { .. }
            | PhysicalPlan::IndexScan { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::TopN { input, .. }
            | PhysicalPlan::Distinct { input }
            | PhysicalPlan::Limit { input, .. } => vec![input],
            PhysicalPlan::NestedLoopJoin { left, right, .. }
            | PhysicalPlan::HashJoin { left, right, .. } => vec![left, right],
        }
    }

    /// One-line label for this operator (no children, no indentation) —
    /// the shared vocabulary of `EXPLAIN` and `EXPLAIN ANALYZE`.
    pub fn node_label(&self) -> String {
        self.label_impl(false)
    }

    /// Like [`PhysicalPlan::node_label`], but literal values (index keys,
    /// filter constants, LIMIT/OFFSET counts) are elided as `?` — the
    /// literal-insensitive label the plan-change audit records, so replans
    /// that differ only in bound constants are not flagged as flips.
    pub fn node_shape_label(&self) -> String {
        self.label_impl(true)
    }

    fn label_impl(&self, shape: bool) -> String {
        let r = |e: &Expr| if shape { e.render_shape() } else { e.render() };
        match self {
            PhysicalPlan::Nothing => "Nothing".to_string(),
            PhysicalPlan::SeqScan { qualified, residual, .. } => {
                let mut s = format!("SeqScan {qualified}");
                if let Some(res) = residual {
                    s.push_str(&format!(" filter={}", r(res)));
                }
                s
            }
            PhysicalPlan::IndexScan { qualified, column, probe, residual, .. } => {
                let mut s = match probe {
                    Probe::Eq(_) if shape => format!("IndexEqScan {qualified}.{column} = ?"),
                    Probe::Eq(key) => format!("IndexEqScan {qualified}.{column} = {key}"),
                    Probe::Range { .. } => format!("IndexRangeScan {qualified}.{column}"),
                    Probe::Call { func, .. } => {
                        format!("UdiScan {qualified}.{column} via {func}()")
                    }
                };
                if let Some(res) = residual {
                    let word = if probe.exact() { "filter" } else { "recheck" };
                    s.push_str(&format!(" {word}={}", r(res)));
                }
                s
            }
            PhysicalPlan::Filter { predicate, .. } => format!("Filter {}", r(predicate)),
            PhysicalPlan::NestedLoopJoin { kind, on, .. } => {
                let mut s = format!("NestedLoopJoin {kind:?}");
                if let Some(on) = on {
                    s.push_str(&format!(" on={}", r(on)));
                }
                s
            }
            PhysicalPlan::HashJoin { left_key, right_key, build_left, kind, .. } => {
                let side = if *build_left { "left" } else { "right" };
                let kind_tag = match kind {
                    JoinKind::Left => "Left ",
                    _ => "",
                };
                format!("HashJoin {kind_tag}{} = {} build={side}", r(left_key), r(right_key))
            }
            PhysicalPlan::Aggregate { group_by, calls, .. } => {
                let groups: Vec<String> = group_by.iter().map(&r).collect();
                let aggs: Vec<String> = calls
                    .iter()
                    .map(|c| {
                        let arg = c.arg.as_ref().map_or("*".to_string(), &r);
                        format!("{}({})", c.func, arg)
                    })
                    .collect();
                format!("Aggregate groups=[{}] aggs=[{}]", groups.join(", "), aggs.join(", "))
            }
            PhysicalPlan::Project { names, .. } => format!("Project [{}]", names.join(", ")),
            PhysicalPlan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{}{}", r(e), if *asc { "" } else { " DESC" }))
                    .collect();
                format!("Sort [{}]", ks.join(", "))
            }
            PhysicalPlan::TopN { keys, n, offset, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{}{}", r(e), if *asc { "" } else { " DESC" }))
                    .collect();
                let mut s = if shape {
                    format!("TopN [{}] limit ?", ks.join(", "))
                } else {
                    format!("TopN [{}] limit {n}", ks.join(", "))
                };
                if *offset > 0 {
                    if shape {
                        s.push_str(" offset ?");
                    } else {
                        s.push_str(&format!(" offset {offset}"));
                    }
                }
                s
            }
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
            PhysicalPlan::Limit { n, offset, .. } => {
                let mut s = match n {
                    Some(n) if !shape => format!("Limit {n}"),
                    Some(_) => "Limit ?".to_string(),
                    None => "Limit all".to_string(),
                };
                if *offset > 0 {
                    if shape {
                        s.push_str(" offset ?");
                    } else {
                        s.push_str(&format!(" offset {offset}"));
                    }
                }
                s
            }
        }
    }

    /// Render the plan tree for `EXPLAIN`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, false);
        out
    }

    /// Render the literal-elided plan tree — [`PhysicalPlan::explain`]
    /// with every [`PhysicalPlan::node_shape_label`] in place of the full
    /// label. Two plans with the same shape are, for the plan-change
    /// audit, the *same plan*.
    pub fn shape(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0, true);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize, shape: bool) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.label_impl(shape));
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1, shape);
        }
    }
}
