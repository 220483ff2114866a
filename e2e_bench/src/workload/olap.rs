//! `olap_scan`: analytical shapes over a fact table 2.7× the buffer pool
//! and a small dimension, every statement with a fresh literal so the
//! result cache never answers.
//!
//! Why it exists: the executor and storage decode are nearly all of the
//! time and wire/parse are noise. The cost of intra-query parallelism on a
//! small box and of `EXPLAIN ANALYZE` are measurable here and invisible in
//! `oltp_point`.
//!
//! Every column is a function of the row's `id` and the seed, so the
//! oracle answers each aggregate from prefix tables built off the same
//! functions — never by asking the engine.

use super::{
    client_rng, inserts, int_row, mix64, Check, ClientStream, Loaded, Op, Row, Schedule, Stmt,
    Workload,
};
use genalg_server::SessionKind;
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use unidb::{Database, Role};

const KINDS: &[&str] =
    &["scan_selective", "scan_filter_project", "order_by_limit", "group_agg", "hash_join"];
const SEL: usize = 0;
const SFP: usize = 1;
const TOPN: usize = 2;
const GRP: usize = 3;
const JOIN: usize = 4;
/// 10% selective, 30% filter-project, 20% Top-N, 20% group, 20% join, spread
/// evenly. The median falls in the filter/Top-N mass and p95 in the
/// group/join mass, neither on a boundary between kinds.
const CYCLE: &[usize] = &[SFP, TOPN, GRP, JOIN, SFP, SEL, TOPN, GRP, JOIN, SFP];

/// Literals are fresh on every statement (so the result cache never
/// answers) but drawn from ranges this narrow, so statements of one kind do
/// within a few percent of the same work and a kind's latency spread is the
/// program's, not the generator's.
const FRESH: usize = 1_000;
const GROUPS: usize = 16;
const VALS: usize = 1000;
/// Multiplier making `score` a bijection of `id` (coprime to both sizes).
const SCORE_MUL: usize = 48_271;

/// The columns of fact row `id` and dimension row `id`.
#[derive(Clone, Copy)]
struct Shape {
    seed: u64,
    n: usize,
    dims: usize,
}

impl Shape {
    fn dim_id(&self, id: usize) -> usize {
        (mix64(self.seed ^ 0xd1 ^ ((id as u64) << 8)) % self.dims as u64) as usize
    }
    fn grp(&self, id: usize) -> usize {
        id % GROUPS
    }
    fn val(&self, id: usize) -> usize {
        (mix64(self.seed ^ 0x7a ^ ((id as u64) << 8)) % VALS as u64) as usize
    }
    fn score(&self, id: usize) -> usize {
        (id * SCORE_MUL + (self.seed % 1000) as usize) % self.n
    }
    fn weight(&self, dim: usize) -> i64 {
        (mix64(self.seed ^ 0x3e ^ ((dim as u64) << 8)) % 100) as i64
    }
}

/// Prefix tables over the generated rows.
struct Oracle {
    shape: Shape,
    /// `val_prefix[i]` = Σ val over ids < i.
    val_prefix: Vec<i64>,
    /// `below[t][g]` = (count, Σ score) over rows with val < t and grp = g.
    below: Vec<[(i64, i64); GROUPS]>,
    /// `id_of_score[s]` = the id whose score is `s`.
    id_of_score: Vec<u32>,
    /// `grp_suffix[i]` = Σ val over ids ≥ i in i's group.
    grp_suffix: Vec<i64>,
    /// `weight_suffix[i]` = Σ weight(dim_id) over ids ≥ i.
    weight_suffix: Vec<i64>,
}

impl Oracle {
    fn new(shape: Shape) -> Oracle {
        let n = shape.n;
        let mut val_prefix = vec![0i64; n + 1];
        let mut by_val = vec![[(0i64, 0i64); GROUPS]; VALS + 1];
        let mut id_of_score = vec![0u32; n];
        let mut grp_suffix = vec![0i64; n + GROUPS];
        let mut weight_suffix = vec![0i64; n + 1];
        for id in 0..n {
            let val = shape.val(id);
            val_prefix[id + 1] = val_prefix[id] + val as i64;
            let cell = &mut by_val[val + 1][shape.grp(id)];
            cell.0 += 1;
            cell.1 += shape.score(id) as i64;
            id_of_score[shape.score(id)] = id as u32;
        }
        for id in (0..n).rev() {
            grp_suffix[id] = shape.val(id) as i64 + grp_suffix[id + GROUPS];
            weight_suffix[id] = shape.weight(shape.dim_id(id)) + weight_suffix[id + 1];
        }
        // by_val[t] held rows with val == t-1; accumulate into val < t.
        for t in 1..=VALS {
            let (done, rest) = by_val.split_at_mut(t);
            for (cell, prev) in rest[0].iter_mut().zip(&done[t - 1]) {
                cell.0 += prev.0;
                cell.1 += prev.1;
            }
        }
        Oracle { shape, val_prefix, below: by_val, id_of_score, grp_suffix, weight_suffix }
    }

    fn scan_selective(&self, lo: usize, hi: usize) -> Vec<Row> {
        vec![int_row(&[(hi - lo) as i64, self.val_prefix[hi] - self.val_prefix[lo]])]
    }

    fn scan_filter_project(&self, t: usize, g: usize, from: usize) -> Vec<Row> {
        let (mut count, mut sum) = (0, 0);
        for (other, cell) in self.below[t].iter().enumerate() {
            if other != g {
                count += cell.0;
                sum += cell.1;
            }
        }
        // The table covers every id; take the first `from` back out.
        let s = &self.shape;
        for id in (0..from).filter(|&id| s.val(id) < t && s.grp(id) != g) {
            count -= 1;
            sum -= s.score(id) as i64;
        }
        vec![int_row(&[count, sum])]
    }

    fn order_by_limit(&self, from: usize, limit: usize) -> Vec<Row> {
        let mut rows = Vec::with_capacity(limit);
        for score in (0..self.shape.n).rev() {
            let id = self.id_of_score[score] as usize;
            if id >= from {
                rows.push(int_row(&[id as i64, score as i64]));
                if rows.len() == limit {
                    break;
                }
            }
        }
        rows
    }

    fn group_agg(&self, from: usize) -> Vec<Row> {
        (0..GROUPS)
            .filter_map(|g| {
                let first = from + (g + GROUPS - from % GROUPS) % GROUPS;
                (first < self.shape.n).then(|| {
                    let count = (self.shape.n - first).div_ceil(GROUPS);
                    int_row(&[g as i64, count as i64, self.grp_suffix[first]])
                })
            })
            .collect()
    }

    fn hash_join(&self, from: usize) -> Vec<Row> {
        vec![int_row(&[(self.shape.n - from) as i64, self.weight_suffix[from]])]
    }
}

pub struct OlapScan {
    seed: u64,
    smoke: bool,
    shape: Shape,
    script: String,
    oracle: Arc<Oracle>,
}

impl OlapScan {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (n, dims) = if smoke { (5_000, 500) } else { (250_000, 25_000) };
        let shape = Shape { seed, n, dims };
        // `id` rises in insert order, so page zones on it are disjoint and
        // a 1% range lets zone maps refute ~99% of the pages.
        let mut script = String::from(
            "CREATE TABLE public.fact (id INT, dim_id INT, grp INT, val INT, score INT);\n\
             CREATE TABLE public.dim (id INT, region INT, weight INT);\n",
        );
        script.push_str(&inserts("public.fact", n, 500, |id, out| {
            out.push_str(&format!(
                "({id},{},{},{},{})",
                shape.dim_id(id),
                shape.grp(id),
                shape.val(id),
                shape.score(id)
            ))
        }));
        script.push_str(&inserts("public.dim", dims, 500, |id, out| {
            out.push_str(&format!("({id},{},{})", id % 10, shape.weight(id)))
        }));
        OlapScan { seed, smoke, shape, script, oracle: Arc::new(Oracle::new(shape)) }
    }
}

impl Workload for OlapScan {
    fn name(&self) -> &'static str {
        "olap_scan"
    }

    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn session(&self) -> SessionKind {
        SessionKind::Public
    }

    fn warmup_ops(&self) -> usize {
        CYCLE.len()
    }

    fn traced_ops(&self) -> usize {
        // Every kind must reach each of the ledger's call levels.
        if self.smoke {
            4 * CYCLE.len()
        } else {
            2 * CYCLE.len()
        }
    }

    fn tables(&self) -> &'static [&'static str] {
        &["public.fact", "public.dim"]
    }

    fn build(&self, _dir: &Path) -> Loaded {
        let db = Arc::new(Database::in_memory());
        let start = Instant::now();
        db.execute_script_as(&self.script, &Role::Maintainer).expect("load fact and dim");
        Loaded {
            db,
            rows: (self.shape.n + self.shape.dims) as u64,
            payload_bytes: (self.shape.n * 40 + self.shape.dims * 24) as u64,
            insert_secs: start.elapsed().as_secs_f64(),
        }
    }

    fn client(&self, idx: usize) -> Box<dyn ClientStream> {
        Box::new(OlapStream {
            oracle: Arc::clone(&self.oracle),
            rng: client_rng(self.seed, "olap_scan", idx),
            schedule: Schedule::new(CYCLE, idx),
        })
    }
}

struct OlapStream {
    oracle: Arc<Oracle>,
    rng: StdRng,
    schedule: Schedule,
}

impl ClientStream for OlapStream {
    fn next_op(&mut self) -> Op {
        let n = self.oracle.shape.n;
        let kind = self.schedule.next_kind();
        let (text, check) = match kind {
            SEL => {
                let width = n / 100;
                let lo = self.rng.gen_range(0..n - width);
                (
                    format!(
                        "SELECT count(*), sum(val) FROM public.fact \
                         WHERE id >= {lo} AND id < {}",
                        lo + width
                    ),
                    Check::Rows(self.oracle.scan_selective(lo, lo + width)),
                )
            }
            SFP => {
                let t = self.rng.gen_range(480..520);
                let g = self.rng.gen_range(0..GROUPS);
                let from = self.rng.gen_range(0..FRESH);
                (
                    format!(
                        "SELECT count(*), sum(score) FROM public.fact \
                         WHERE val < {t} AND grp <> {g} AND id >= {from}"
                    ),
                    Check::Rows(self.oracle.scan_filter_project(t, g, from)),
                )
            }
            TOPN => {
                let from = self.rng.gen_range(0..FRESH);
                (
                    format!(
                        "SELECT id, score FROM public.fact WHERE id >= {from} \
                         ORDER BY score DESC LIMIT 10"
                    ),
                    Check::Rows(self.oracle.order_by_limit(from, 10)),
                )
            }
            GRP => {
                let from = self.rng.gen_range(0..FRESH);
                (
                    format!(
                        "SELECT grp, count(*), sum(val) FROM public.fact \
                         WHERE id >= {from} GROUP BY grp"
                    ),
                    Check::RowSet(self.oracle.group_agg(from)),
                )
            }
            _ => {
                let from = self.rng.gen_range(0..FRESH);
                (
                    format!(
                        "SELECT count(*), sum(d.weight) FROM public.fact f \
                         JOIN public.dim d ON f.dim_id = d.id WHERE f.id >= {from}"
                    ),
                    Check::Rows(self.oracle.hash_join(from)),
                )
            }
        };
        Op::read(kind, Stmt::sql(text, check))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prefix tables against a row-by-row evaluation of the same
    /// predicates over the generator's functions.
    #[test]
    fn oracle_tables_agree_with_brute_force() {
        let shape = Shape { seed: 11, n: 1_000, dims: 100 };
        let o = Oracle::new(shape);
        let ids = || 0..shape.n;
        let sum = |f: &dyn Fn(usize) -> Option<i64>| -> (i64, i64) {
            ids().filter_map(f).fold((0, 0), |(c, s), v| (c + 1, s + v))
        };

        let (c, s) = sum(&|id| (200..210).contains(&id).then(|| shape.val(id) as i64));
        assert_eq!(o.scan_selective(200, 210), vec![int_row(&[c, s])]);

        let (c, s) = sum(&|id| {
            (shape.val(id) < 431 && shape.grp(id) != 5 && id >= 77).then(|| shape.score(id) as i64)
        });
        assert_eq!(o.scan_filter_project(431, 5, 77), vec![int_row(&[c, s])]);

        let mut top: Vec<(usize, usize)> =
            ids().filter(|&id| id >= 300).map(|id| (shape.score(id), id)).collect();
        top.sort_by(|a, b| b.cmp(a));
        let want: Vec<Row> =
            top.iter().take(10).map(|&(s, id)| int_row(&[id as i64, s as i64])).collect();
        assert_eq!(o.order_by_limit(300, 10), want);

        let want: Vec<Row> = (0..GROUPS)
            .map(|g| {
                let (c, s) =
                    sum(&|id| (id >= 37 && shape.grp(id) == g).then(|| shape.val(id) as i64));
                int_row(&[g as i64, c, s])
            })
            .collect();
        assert_eq!(o.group_agg(37), want);

        let (c, s) = sum(&|id| (id >= 37).then(|| shape.weight(shape.dim_id(id))));
        assert_eq!(o.hash_join(37), vec![int_row(&[c, s])]);
    }
}
