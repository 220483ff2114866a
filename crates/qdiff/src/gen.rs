//! Seeded scenario generation.
//!
//! Everything derives deterministically from the seed. The generator is
//! free to produce *error-prone* SELECT-list expressions (overflow,
//! division by zero) — the engine and oracle evaluate them over the same
//! surviving rows, so error outcomes agree — but WHERE predicates and DML
//! assignments are error-free by construction: predicate pushdown changes
//! which rows a sub-predicate sees, and while the engine applies an UPDATE
//! wholly or not at all, the oracle assigns row by row with no undo, so an
//! error there would leave the two sides in different states.

use crate::{
    AggFunc, AggSpec, ColSpec, ColTy, JoinKind, JoinSpec, Op, Proj, QExpr, QOp, Query, Scenario,
    SetSrc, TableSpec, Val,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sentinel-ish large ints that exercise overflow and i128/f64 widening.
const BIG_INTS: [i64; 4] = [i64::MAX, i64::MAX - 1, i64::MIN + 1, 1 << 62];

/// Exact-in-f64 float pool: no accumulation surprises, no NaN. `-0.0`
/// sorts and compares below `0.0` under `total_cmp`, in the oracle and in
/// the scan kernels alike.
const FLOATS: [f64; 11] = [-2.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.5, 3.5, 10.0, 1e15];

const TEXT_CHARS: [char; 6] = ['a', 'b', 'c', '%', '_', 'é'];

const CMP_OPS: [QOp; 6] = [QOp::Eq, QOp::NotEq, QOp::Lt, QOp::LtEq, QOp::Gt, QOp::GtEq];
const ARITH_OPS: [QOp; 5] = [QOp::Add, QOp::Sub, QOp::Mul, QOp::Div, QOp::Mod];

/// One in-scope column the expression generators can reference.
#[derive(Clone)]
struct EnvCol {
    name: String,
    ty: ColTy,
}

/// Generation profile: tilts the workload mix without changing the
/// number of RNG draws, so a given `(seed, profile)` pair is stable and
/// `Profile::Default` reproduces the historical `gen_scenario` output
/// exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Profile {
    /// The balanced mix: 1–3 tables, ~35% of queries join.
    #[default]
    Default,
    /// Join-pressure: always ≥2 tables, ~85% of queries join, and NULLs
    /// land in nullable columns more often, so NULL join keys (which must
    /// never match under 3VL) get dense differential coverage.
    JoinHeavy,
    /// Scan-pressure: wider tables (up to 8 columns), larger seed
    /// INSERTs, few joins, NULL-rich data, and leaf predicates tilted
    /// toward comparisons and BETWEEN — exactly the shapes zone-map
    /// pruning and sparse column decode act on, so the differential
    /// oracle hammers the pruned-scan path.
    ScanHeavy,
}

impl Profile {
    /// Parse a CLI/env spelling; `None` for an unknown name.
    pub fn from_name(name: &str) -> Option<Profile> {
        match name {
            "default" => Some(Profile::Default),
            "join-heavy" => Some(Profile::JoinHeavy),
            "scan-heavy" => Some(Profile::ScanHeavy),
            _ => None,
        }
    }

    fn min_tables(self) -> usize {
        match self {
            Profile::Default | Profile::ScanHeavy => 1,
            Profile::JoinHeavy => 2,
        }
    }

    fn join_chance(self) -> f64 {
        match self {
            Profile::Default => 0.35,
            Profile::JoinHeavy => 0.85,
            Profile::ScanHeavy => 0.10,
        }
    }

    fn null_chance(self) -> f64 {
        match self {
            Profile::Default => 0.25,
            Profile::JoinHeavy => 0.45,
            Profile::ScanHeavy => 0.55,
        }
    }

    /// Widest table the schema generator may produce.
    fn max_cols(self) -> usize {
        match self {
            Profile::Default | Profile::JoinHeavy => 5,
            Profile::ScanHeavy => 8,
        }
    }

    /// Cap on rows per seed-data INSERT.
    fn seed_rows(self) -> usize {
        match self {
            Profile::Default | Profile::JoinHeavy => 12,
            Profile::ScanHeavy => 30,
        }
    }

    /// Leaf-predicate shape thresholds for one `0..100` roll:
    /// inclusive upper bounds for comparison, IS NULL, IN, and BETWEEN;
    /// the remainder is LIKE. One roll regardless of profile, so the
    /// draw count — and therefore `(seed, profile)` stability — is
    /// unchanged.
    fn pred_bands(self) -> (u32, u32, u32, u32) {
        match self {
            Profile::Default | Profile::JoinHeavy => (44, 59, 74, 89),
            Profile::ScanHeavy => (59, 71, 77, 95),
        }
    }
}

pub fn gen_scenario(seed: u64) -> Scenario {
    gen_scenario_with_profile(seed, Profile::Default)
}

pub fn gen_scenario_with_profile(seed: u64, profile: Profile) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut col_counter = 0usize;

    // Schema: 1–3 tables; column 0 is always INT so joins, indexes, and
    // sum/avg always have a target. `big[t]` marks tables whose INT columns
    // may hold near-i64 values (their columns stay out of filter
    // arithmetic, see module doc).
    let n_tables = rng.gen_range(profile.min_tables()..=3usize);
    let mut tables = Vec::with_capacity(n_tables);
    let mut big = Vec::with_capacity(n_tables);
    for t in 0..n_tables {
        let n_cols = rng.gen_range(2..=profile.max_cols());
        let mut cols = Vec::with_capacity(n_cols);
        for c in 0..n_cols {
            let ty = if c == 0 {
                ColTy::Int
            } else {
                match rng.gen_range(0..100u32) {
                    0..=39 => ColTy::Int,
                    40..=64 => ColTy::Text,
                    65..=84 => ColTy::Float,
                    _ => ColTy::Bool,
                }
            };
            cols.push(ColSpec { name: format!("c{col_counter}"), ty, nullable: rng.gen_bool(0.5) });
            col_counter += 1;
        }
        let index_on = if rng.gen_bool(0.4) {
            let int_cols: Vec<usize> =
                (0..cols.len()).filter(|&i| cols[i].ty == ColTy::Int).collect();
            Some(int_cols[rng.gen_range(0..int_cols.len())])
        } else {
            None
        };
        tables.push(TableSpec { name: format!("t{t}"), cols, index_on });
        big.push(rng.gen_bool(0.2));
    }

    let mut g = Gen { rng, tables: &tables, big: &big, profile };

    let mut ops = Vec::new();
    // Seed data: 1–2 INSERTs per table.
    for t in 0..n_tables {
        for _ in 0..g.rng.gen_range(1..=2usize) {
            let cap = profile.seed_rows();
            ops.push(g.gen_insert(t, cap));
        }
    }
    // Mixed workload.
    for _ in 0..g.rng.gen_range(4..=10usize) {
        let roll = g.rng.gen_range(0..100u32);
        let t = g.rng.gen_range(0..n_tables);
        ops.push(match roll {
            0..=54 => Op::Query(g.gen_query()),
            55..=69 => g.gen_insert(t, 5),
            70..=84 => g.gen_update(t),
            _ => g.gen_delete(t),
        });
    }

    Scenario { seed, tables, ops }
}

struct Gen<'a> {
    rng: StdRng,
    tables: &'a [TableSpec],
    big: &'a [bool],
    profile: Profile,
}

impl Gen<'_> {
    // ---- values ------------------------------------------------------------

    fn gen_value(&mut self, col: &ColSpec, big: bool) -> Val {
        if col.nullable && self.rng.gen_bool(self.profile.null_chance()) {
            return Val::Null;
        }
        match col.ty {
            ColTy::Int => {
                if big && self.rng.gen_bool(0.15) {
                    Val::Int(BIG_INTS[self.rng.gen_range(0..BIG_INTS.len())])
                } else {
                    Val::Int(self.rng.gen_range(-5..=20i64))
                }
            }
            ColTy::Float => Val::Float(FLOATS[self.rng.gen_range(0..FLOATS.len())]),
            ColTy::Text => Val::Text(self.gen_text(5)),
            ColTy::Bool => Val::Bool(self.rng.gen_bool(0.5)),
        }
    }

    fn gen_text(&mut self, max_len: usize) -> String {
        let len = self.rng.gen_range(0..=max_len);
        (0..len).map(|_| TEXT_CHARS[self.rng.gen_range(0..TEXT_CHARS.len())]).collect()
    }

    /// A literal of the given type for use in predicates (never NULL unless
    /// asked; big ints show up so comparisons cover the extremes).
    fn gen_lit(&mut self, ty: ColTy) -> Val {
        match ty {
            ColTy::Int => {
                if self.rng.gen_bool(0.1) {
                    Val::Int(BIG_INTS[self.rng.gen_range(0..BIG_INTS.len())])
                } else {
                    Val::Int(self.rng.gen_range(-5..=20i64))
                }
            }
            ColTy::Float => Val::Float(FLOATS[self.rng.gen_range(0..FLOATS.len())]),
            ColTy::Text => Val::Text(self.gen_text(4)),
            ColTy::Bool => Val::Bool(self.rng.gen_bool(0.5)),
        }
    }

    // ---- DML ---------------------------------------------------------------

    fn gen_insert(&mut self, t: usize, max_rows: usize) -> Op {
        let n = self.rng.gen_range(1..=max_rows);
        let table = &self.tables[t];
        let big = self.big[t];
        let rows =
            (0..n).map(|_| table.cols.iter().map(|c| self.gen_value(c, big)).collect()).collect();
        Op::Insert { table: t, rows }
    }

    fn gen_update(&mut self, t: usize) -> Op {
        let table = &self.tables[t];
        let big = self.big[t];
        let n_sets = self.rng.gen_range(1..=table.cols.len().min(3));
        let mut targets: Vec<usize> = (0..table.cols.len()).collect();
        shuffle(&mut self.rng, &mut targets);
        targets.truncate(n_sets);
        let sets = targets
            .into_iter()
            .map(|col| {
                // Same-type column copy (40%) when one exists whose
                // nullability fits; otherwise a literal.
                let copy_from: Vec<usize> = (0..table.cols.len())
                    .filter(|&c| {
                        c != col
                            && table.cols[c].ty == table.cols[col].ty
                            && (table.cols[col].nullable || !table.cols[c].nullable)
                    })
                    .collect();
                let src = if !copy_from.is_empty() && self.rng.gen_bool(0.4) {
                    SetSrc::Col(copy_from[self.rng.gen_range(0..copy_from.len())])
                } else {
                    SetSrc::Lit(self.gen_value(&table.cols[col], big))
                };
                (col, src)
            })
            .collect();
        let filter = if self.rng.gen_bool(0.7) {
            let env = self.env_of(&[t]);
            Some(self.gen_pred(&env, 2))
        } else {
            None
        };
        Op::Update { table: t, sets, filter }
    }

    fn gen_delete(&mut self, t: usize) -> Op {
        let filter = if self.rng.gen_bool(0.8) {
            let env = self.env_of(&[t]);
            Some(self.gen_pred(&env, 2))
        } else {
            None
        };
        Op::Delete { table: t, filter }
    }

    // ---- queries -----------------------------------------------------------

    fn env_of(&self, tables: &[usize]) -> Vec<EnvCol> {
        tables
            .iter()
            .flat_map(|&t| self.tables[t].cols.iter())
            .map(|c| EnvCol { name: c.name.clone(), ty: c.ty })
            .collect()
    }

    fn gen_query(&mut self) -> Query {
        let left = self.rng.gen_range(0..self.tables.len());
        let join = if self.tables.len() >= 2 && self.rng.gen_bool(self.profile.join_chance()) {
            let mut right = self.rng.gen_range(0..self.tables.len() - 1);
            if right >= left {
                right += 1;
            }
            let kind = match self.rng.gen_range(0..100u32) {
                0..=49 => JoinKind::Inner,
                50..=84 => JoinKind::Left,
                _ => JoinKind::Cross,
            };
            let on = if kind == JoinKind::Cross {
                None
            } else {
                // Column 0 of every table is INT; sometimes pick another
                // INT column for variety.
                let pick_int = |g: &mut Self, t: usize| {
                    let ints: Vec<&ColSpec> =
                        g.tables[t].cols.iter().filter(|c| c.ty == ColTy::Int).collect();
                    ints[g.rng.gen_range(0..ints.len())].name.clone()
                };
                let l = pick_int(self, left);
                let r = pick_int(self, right);
                Some((l, r))
            };
            Some(JoinSpec { table: right, kind, on })
        } else {
            None
        };
        let scope: Vec<usize> = match &join {
            Some(j) => vec![left, j.table],
            None => vec![left],
        };
        let env = self.env_of(&scope);

        let proj = if self.rng.gen_bool(0.3) {
            self.gen_agg_proj(&env)
        } else {
            let n = self.rng.gen_range(1..=4usize);
            Proj::Plain((0..n).map(|_| self.gen_scalar(&env, 2)).collect())
        };
        let distinct = matches!(proj, Proj::Plain(_)) && self.rng.gen_bool(0.2);

        let filter = if self.rng.gen_bool(0.6) { Some(self.gen_pred(&env, 2)) } else { None };

        let arity = match &proj {
            Proj::Plain(e) => e.len(),
            Proj::Agg { group, aggs } => group.len() + aggs.len(),
        };
        let order_by = if self.rng.gen_bool(0.45) {
            let mut idxs: Vec<usize> = (0..arity).collect();
            shuffle(&mut self.rng, &mut idxs);
            idxs.truncate(self.rng.gen_range(1..=arity.min(2)));
            idxs.into_iter().map(|i| (i, self.rng.gen_bool(0.6))).collect()
        } else {
            Vec::new()
        };
        let limit = if self.rng.gen_bool(0.35) { Some(self.rng.gen_range(0..=8u64)) } else { None };
        let offset = if limit.is_some() && self.rng.gen_bool(0.4) || self.rng.gen_bool(0.12) {
            Some(self.rng.gen_range(0..=5u64))
        } else {
            None
        };

        Query { table: left, join, distinct, proj, filter, order_by, limit, offset }
    }

    fn gen_agg_proj(&mut self, env: &[EnvCol]) -> Proj {
        // Group keys: 0–2 non-float columns (float grouping works but adds
        // nothing; -0.0 vs 0.0 is the only interesting case).
        let groupable: Vec<&EnvCol> = env.iter().filter(|c| c.ty != ColTy::Float).collect();
        let n_group = self.rng.gen_range(0..=2usize.min(groupable.len()));
        let mut picks: Vec<usize> = (0..groupable.len()).collect();
        shuffle(&mut self.rng, &mut picks);
        let group: Vec<String> =
            picks.iter().take(n_group).map(|&i| groupable[i].name.clone()).collect();

        let int_cols: Vec<&EnvCol> = env.iter().filter(|c| c.ty == ColTy::Int).collect();
        let n_aggs = self.rng.gen_range(1..=3usize);
        let aggs = (0..n_aggs)
            .map(|_| match self.rng.gen_range(0..6u32) {
                0 => AggSpec { func: AggFunc::Count, col: None },
                1 => AggSpec {
                    func: AggFunc::Count,
                    col: Some(env[self.rng.gen_range(0..env.len())].name.clone()),
                },
                // sum/avg only over INT columns: float accumulation is
                // order-sensitive and heap scan order is not stable.
                2 | 3 => AggSpec {
                    func: if self.rng.gen_bool(0.5) { AggFunc::Sum } else { AggFunc::Avg },
                    col: Some(int_cols[self.rng.gen_range(0..int_cols.len())].name.clone()),
                },
                _ => AggSpec {
                    func: if self.rng.gen_bool(0.5) { AggFunc::Min } else { AggFunc::Max },
                    col: Some(env[self.rng.gen_range(0..env.len())].name.clone()),
                },
            })
            .collect();
        Proj::Agg { group, aggs }
    }

    /// Error-free predicate: comparisons, IS NULL, IN, BETWEEN, LIKE over
    /// raw columns and literals, combined with AND/OR/NOT. No arithmetic,
    /// so no overflow or division errors — see the module doc for why.
    fn gen_pred(&mut self, env: &[EnvCol], depth: usize) -> QExpr {
        if depth > 0 && self.rng.gen_bool(0.45) {
            let l = self.gen_pred(env, depth - 1);
            if self.rng.gen_bool(0.25) {
                return QExpr::Not(Box::new(l));
            }
            let r = self.gen_pred(env, depth - 1);
            let op = if self.rng.gen_bool(0.5) { QOp::And } else { QOp::Or };
            return QExpr::Bin(op, Box::new(l), Box::new(r));
        }
        let col = &env[self.rng.gen_range(0..env.len())];
        let negated = self.rng.gen_bool(0.3);
        let (cmp_hi, is_null_hi, in_hi, between_hi) = self.profile.pred_bands();
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            // Comparison against a literal (10% deliberately cross-typed:
            // total_cmp rank ordering is part of the contract).
            r if r <= cmp_hi => {
                let lit_ty = if self.rng.gen_bool(0.9) {
                    col.ty
                } else {
                    [ColTy::Int, ColTy::Float, ColTy::Text, ColTy::Bool]
                        [self.rng.gen_range(0..4usize)]
                };
                let lit = self.gen_lit(lit_ty);
                let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
                QExpr::Bin(op, Box::new(QExpr::Col(col.name.clone())), Box::new(QExpr::Lit(lit)))
            }
            r if r <= is_null_hi => {
                QExpr::IsNull { expr: Box::new(QExpr::Col(col.name.clone())), negated }
            }
            r if r <= in_hi => {
                let n = self.rng.gen_range(1..=4usize);
                let mut list: Vec<QExpr> =
                    (0..n).map(|_| QExpr::Lit(self.gen_lit(col.ty))).collect();
                if self.rng.gen_bool(0.15) {
                    list.push(QExpr::Lit(Val::Null));
                }
                QExpr::InList { expr: Box::new(QExpr::Col(col.name.clone())), list, negated }
            }
            r if r <= between_hi => {
                // NULL bounds on purpose: `x BETWEEN NULL AND hi` must
                // still go FALSE when the non-NULL leg decides.
                let mut lo = self.gen_lit(col.ty);
                let mut hi = self.gen_lit(col.ty);
                if self.rng.gen_bool(0.15) {
                    lo = Val::Null;
                }
                if self.rng.gen_bool(0.15) {
                    hi = Val::Null;
                }
                QExpr::Between {
                    expr: Box::new(QExpr::Col(col.name.clone())),
                    lo: Box::new(QExpr::Lit(lo)),
                    hi: Box::new(QExpr::Lit(hi)),
                    negated,
                }
            }
            _ => {
                // LIKE over a text column if one exists, else fall back to
                // a comparison.
                let text_cols: Vec<&EnvCol> = env.iter().filter(|c| c.ty == ColTy::Text).collect();
                match text_cols.is_empty() {
                    true => QExpr::Bin(
                        QOp::Eq,
                        Box::new(QExpr::Col(col.name.clone())),
                        Box::new(QExpr::Lit(self.gen_lit(col.ty))),
                    ),
                    false => {
                        let tc = text_cols[self.rng.gen_range(0..text_cols.len())];
                        let escape = if self.rng.gen_bool(0.3) { Some('#') } else { None };
                        let pattern = self.gen_pattern(escape);
                        QExpr::Like {
                            expr: Box::new(QExpr::Col(tc.name.clone())),
                            pattern,
                            escape,
                            negated,
                        }
                    }
                }
            }
        }
    }

    /// A LIKE pattern that is always well-formed (no trailing escape — the
    /// trailing-escape error path is pinned by unit tests instead, where
    /// row-order doesn't blur which side errored).
    fn gen_pattern(&mut self, escape: Option<char>) -> String {
        let n = self.rng.gen_range(0..=4usize);
        let mut p = String::new();
        for _ in 0..n {
            match self.rng.gen_range(0..100u32) {
                0..=29 => p.push('%'),
                30..=49 => p.push('_'),
                50..=69 if escape.is_some() => {
                    p.push(escape.unwrap());
                    p.push(['%', '_', 'a', '#'][self.rng.gen_range(0..4usize)]);
                }
                _ => p.push(['a', 'b', 'c', 'é'][self.rng.gen_range(0..4usize)]),
            }
        }
        p
    }

    /// SELECT-list scalar of a random type. May overflow or divide by zero
    /// at runtime — that is the point: both sides see the same rows, so
    /// checked-arithmetic error paths get differential coverage.
    fn gen_scalar(&mut self, env: &[EnvCol], depth: usize) -> QExpr {
        let ty = [ColTy::Int, ColTy::Float, ColTy::Text, ColTy::Bool]
            [self.rng.gen_range(0..100u32) as usize % 4];
        self.gen_typed(env, ty, depth)
    }

    fn gen_typed(&mut self, env: &[EnvCol], ty: ColTy, depth: usize) -> QExpr {
        let cols: Vec<&EnvCol> = env.iter().filter(|c| c.ty == ty).collect();
        if depth == 0 || self.rng.gen_bool(0.35) {
            return if !cols.is_empty() && self.rng.gen_bool(0.7) {
                QExpr::Col(cols[self.rng.gen_range(0..cols.len())].name.clone())
            } else {
                QExpr::Lit(self.gen_lit(ty))
            };
        }
        match ty {
            ColTy::Int => {
                let op = ARITH_OPS[self.rng.gen_range(0..ARITH_OPS.len())];
                let l = self.gen_typed(env, ColTy::Int, depth - 1);
                let r = self.gen_typed(env, ColTy::Int, depth - 1);
                if self.rng.gen_bool(0.15) {
                    QExpr::Neg(Box::new(l))
                } else {
                    QExpr::Bin(op, Box::new(l), Box::new(r))
                }
            }
            ColTy::Float => {
                let op = ARITH_OPS[self.rng.gen_range(0..ARITH_OPS.len())];
                // Mixed int/float operands exercise the f64 coercion path.
                let l = self.gen_typed(env, ColTy::Float, depth - 1);
                let r = if self.rng.gen_bool(0.3) {
                    self.gen_typed(env, ColTy::Int, depth - 1)
                } else {
                    self.gen_typed(env, ColTy::Float, depth - 1)
                };
                QExpr::Bin(op, Box::new(l), Box::new(r))
            }
            ColTy::Text => {
                let l = self.gen_typed(env, ColTy::Text, depth - 1);
                let r = self.gen_typed(env, ColTy::Text, depth - 1);
                QExpr::Bin(QOp::Add, Box::new(l), Box::new(r))
            }
            ColTy::Bool => {
                if self.rng.gen_bool(0.5) {
                    self.gen_pred(env, depth - 1)
                } else {
                    let operand_ty =
                        [ColTy::Int, ColTy::Float, ColTy::Text][self.rng.gen_range(0..3usize)];
                    let op = CMP_OPS[self.rng.gen_range(0..CMP_OPS.len())];
                    let l = self.gen_typed(env, operand_ty, depth - 1);
                    let r = self.gen_typed(env, operand_ty, depth - 1);
                    QExpr::Bin(op, Box::new(l), Box::new(r))
                }
            }
        }
    }
}

/// Fisher–Yates over indices (the shim's `SliceRandom::shuffle` needs a
/// `&mut self` borrow that conflicts with `self.rng` field access in
/// closures, so this standalone helper keeps call sites simple).
fn shuffle(rng: &mut StdRng, v: &mut [usize]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = gen_scenario(42);
        let b = gen_scenario(42);
        assert_eq!(a.render_script(), b.render_script());
        let c = gen_scenario(43);
        assert_ne!(a.render_script(), c.render_script());
    }

    #[test]
    fn scenarios_have_substance() {
        // Across a seed range, the generator actually produces the variety
        // it promises: queries, DML, joins, aggregates, windows.
        let (mut queries, mut dml, mut joins, mut aggs, mut windows) = (0, 0, 0, 0, 0);
        for seed in 0..60 {
            let sc = gen_scenario(seed);
            assert!(!sc.tables.is_empty());
            for op in &sc.ops {
                match op {
                    Op::Query(q) => {
                        queries += 1;
                        joins += q.join.is_some() as usize;
                        aggs += matches!(q.proj, Proj::Agg { .. }) as usize;
                        windows += (q.limit.is_some() || q.offset.is_some()) as usize;
                    }
                    _ => dml += 1,
                }
            }
        }
        assert!(queries > 50, "queries: {queries}");
        assert!(dml > 50, "dml: {dml}");
        assert!(joins > 5, "joins: {joins}");
        assert!(aggs > 10, "aggs: {aggs}");
        assert!(windows > 10, "windows: {windows}");
    }

    #[test]
    fn join_heavy_profile_is_join_heavy() {
        // The profile's whole point: multiple tables every time, a join in
        // most queries, and deterministic per (seed, profile).
        let (mut queries, mut joins) = (0usize, 0usize);
        for seed in 0..60 {
            let sc = gen_scenario_with_profile(seed, Profile::JoinHeavy);
            assert!(sc.tables.len() >= 2, "seed {seed}: join-heavy needs ≥2 tables");
            for op in &sc.ops {
                if let Op::Query(q) = op {
                    queries += 1;
                    joins += q.join.is_some() as usize;
                }
            }
        }
        assert!(joins * 10 > queries * 6, "joins: {joins}/{queries} — expected a clear majority");
        let a = gen_scenario_with_profile(7, Profile::JoinHeavy);
        let b = gen_scenario_with_profile(7, Profile::JoinHeavy);
        assert_eq!(a.render_script(), b.render_script());
        // The default profile is untouched by the profile machinery.
        assert_eq!(
            gen_scenario(7).render_script(),
            gen_scenario_with_profile(7, Profile::Default).render_script()
        );
    }

    #[test]
    fn scan_heavy_profile_is_scan_heavy() {
        // Few joins, predicate-dense queries, wider tables, and more seed
        // rows than the default — the mix zone-map pruning feeds on.
        let (mut queries, mut joins, mut filters) = (0usize, 0usize, 0usize);
        let (mut widest, mut seed_rows) = (0usize, 0usize);
        for seed in 0..60 {
            let sc = gen_scenario_with_profile(seed, Profile::ScanHeavy);
            widest = widest.max(sc.tables.iter().map(|t| t.cols.len()).max().unwrap());
            for op in &sc.ops {
                match op {
                    Op::Query(q) => {
                        queries += 1;
                        joins += q.join.is_some() as usize;
                        filters += q.filter.is_some() as usize;
                    }
                    Op::Insert { rows, .. } => seed_rows += rows.len(),
                    _ => {}
                }
            }
        }
        assert!(joins * 4 < queries, "joins: {joins}/{queries} — expected a small minority");
        assert!(filters * 2 > queries, "filters: {filters}/{queries}");
        assert!(widest > 5, "widest table: {widest} — expected >5 columns somewhere");
        assert!(seed_rows > 60 * 20, "seed rows: {seed_rows}");
        let a = gen_scenario_with_profile(7, Profile::ScanHeavy);
        let b = gen_scenario_with_profile(7, Profile::ScanHeavy);
        assert_eq!(a.render_script(), b.render_script());
    }

    #[test]
    fn every_generated_statement_parses() {
        for seed in 0..30 {
            let sc = gen_scenario(seed);
            for sql in sc.setup_sql() {
                unidb::sql::parser::parse(&sql)
                    .unwrap_or_else(|e| panic!("seed {seed}: DDL failed to parse: {e}\n  {sql}"));
            }
            for op in &sc.ops {
                let sql = sc.op_sql(op);
                unidb::sql::parser::parse(&sql)
                    .unwrap_or_else(|e| panic!("seed {seed}: op failed to parse: {e}\n  {sql}"));
            }
        }
    }
}
