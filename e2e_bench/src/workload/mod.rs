//! The four workloads and what they share: the statement/oracle types, the
//! seeded generators (Zipf, per-client streams), and script building.
//!
//! A workload is built from `--seed` alone. Building it generates the data,
//! the set-up scripts and the oracle's tables — harness work, outside every
//! measurement. [`Workload::build`] then runs the scripts against a fresh
//! database: that, and the warm-up, is the program's set-up time.

pub mod genomic;
pub mod mixed;
pub mod olap;
pub mod oltp;

use genalg_server::{Lang, SessionKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use unidb::{Database, Datum, ResultSet};

/// Workload names in suite order.
pub const NAMES: [&str; 4] = ["oltp_point", "olap_scan", "genomic_search", "mixed_rw_durable"];

pub fn create(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "oltp_point" => Box::new(oltp::OltpPoint::new(seed, smoke)),
        "olap_scan" => Box::new(olap::OlapScan::new(seed, smoke)),
        "genomic_search" => Box::new(genomic::GenomicSearch::new(seed, smoke)),
        "mixed_rw_durable" => Box::new(mixed::MixedRwDurable::new(seed, smoke)),
        _ => return None,
    })
}

pub type Row = Vec<Datum>;
pub type Oracle = Box<dyn FnOnce(&ResultSet) -> bool + Send>;

/// What a statement's result is checked against.
pub enum Check {
    /// The statement must succeed (`BEGIN`, `COMMIT`).
    Ok,
    /// DML must report exactly this many affected rows.
    Affected(u64),
    /// These rows, in this order.
    Rows(Vec<Row>),
    /// These rows, in any order.
    RowSet(Vec<Row>),
    /// An oracle cheap enough to run between two requests.
    Inline(Oracle),
    /// An oracle that costs as much as the statement did; it runs after
    /// the timed window so it cannot compete with the server for a core.
    Deferred(Oracle),
}

pub struct Stmt {
    pub lang: Lang,
    pub text: String,
    pub check: Check,
}

impl Stmt {
    pub fn sql(text: String, check: Check) -> Stmt {
        Stmt { lang: Lang::Sql, text, check }
    }
}

/// One operation: what a user would call one request, possibly several
/// statements (`BEGIN … COMMIT`). Its latency is the sum of its round trips.
pub struct Op {
    /// Index into [`Workload::kinds`].
    pub kind: usize,
    pub write: bool,
    pub stmts: Vec<Stmt>,
    /// User payload bytes this operation writes once it commits.
    pub payload_bytes: u64,
}

impl Op {
    pub fn read(kind: usize, stmt: Stmt) -> Op {
        Op { kind, write: false, stmts: vec![stmt], payload_bytes: 0 }
    }
}

/// A freshly built and loaded database.
pub struct Loaded {
    pub db: Arc<Database>,
    /// Rows inserted by the set-up scripts.
    pub rows: u64,
    /// User payload bytes of those rows (INT 8 bytes, TEXT and sequences
    /// one byte per character).
    pub payload_bytes: u64,
    /// Seconds spent inserting rows (DDL and index builds excluded).
    pub insert_secs: f64,
}

pub trait Workload: Send + Sync {
    fn name(&self) -> &'static str;
    /// Operation kinds, indexed by [`Op::kind`].
    fn kinds(&self) -> &'static [&'static str];
    fn session(&self) -> SessionKind;
    /// Client connections in the timed window. One per core of the 2-core
    /// box the benchmark is sized on, unless the workload says otherwise.
    /// Fixed per workload, so a capture means the same on any machine;
    /// `nproc` is recorded beside it.
    fn clients(&self) -> usize {
        2
    }
    /// Durable workloads get a directory and open a real WAL in it.
    fn durable(&self) -> bool {
        false
    }
    /// Operations each client runs between the closing checkpoint and the
    /// reopen, so that recovery replays a WAL tail of fixed length.
    fn wal_tail_ops(&self) -> usize {
        0
    }
    /// The statement classes `(kind, statement index)` of the same read
    /// inside a transaction and in autocommit, where the workload has both.
    fn txn_read_pair(&self) -> Option<[(usize, usize); 2]> {
        None
    }
    /// Operations each client runs, untimed, before the window opens.
    fn warmup_ops(&self) -> usize;
    /// Operations in the traced run's fixed pass.
    fn traced_ops(&self) -> usize;
    /// Tables whose heap pages count towards `space_amp`.
    fn tables(&self) -> &'static [&'static str];
    /// Create, load and index a fresh database. `dir` is an empty directory
    /// for durable workloads to open in.
    fn build(&self, dir: &Path) -> Loaded;
    /// Reopen a durable database after it was dropped: register extensions,
    /// recover. Returns the database and the seconds `recover()` took.
    fn reopen(&self, _dir: &Path) -> Option<(Arc<Database>, f64)> {
        None
    }
    /// The statement stream of one client; a pure function of the seed.
    fn client(&self, idx: usize) -> Box<dyn ClientStream>;
    /// Layer metrics only this workload can measure (direct calls into the
    /// algebra, the adapter and the index on the generator's records).
    fn layer_extras(&self, _loaded: &Loaded) -> BTreeMap<String, f64> {
        BTreeMap::new()
    }
}

pub trait ClientStream: Send {
    fn next_op(&mut self) -> Op;
    /// The operation `next_op` returned last ran to completion and every
    /// inline check passed: fold its effects into the client's model.
    fn ack(&mut self) {}
    /// What must hold once this client has stopped, as statements with
    /// their expected results. Run before and after reopen + `recover()`.
    fn final_checks(&self) -> Vec<Stmt> {
        Vec::new()
    }
}

// -- result comparison -------------------------------------------------------

fn datum_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        // Aggregates over floats sum in partition order, which the engine's
        // parallelism decides; allow for the reordering, not for an error.
        (Datum::Float(x), Datum::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

fn rows_eq(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| datum_eq(p, q)))
}

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut v = rows.to_vec();
    v.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    v
}

/// Outcome of checking one result.
pub enum Checked {
    Pass,
    Fail,
    /// Verdict pending: run the oracle on the kept result after the window.
    Later(Oracle, ResultSet),
}

impl Check {
    pub fn run(self, rs: ResultSet) -> Checked {
        let pass = match self {
            Check::Ok => true,
            Check::Affected(n) => rs.affected == n,
            Check::Rows(want) => rows_eq(&rs.rows, &want),
            Check::RowSet(want) => rows_eq(&sorted(&rs.rows), &sorted(&want)),
            Check::Inline(oracle) => oracle(&rs),
            Check::Deferred(oracle) => return Checked::Later(oracle, rs),
        };
        if pass {
            Checked::Pass
        } else {
            Checked::Fail
        }
    }
}

// -- seeded generators -------------------------------------------------------

/// splitmix64 finaliser: a well-mixed function of its argument, used for
/// data values that must be recomputable from a row's key alone.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG of one client's statement stream: FNV-1a over the workload
/// name, mixed with the seed and the client index.
pub fn client_rng(seed: u64, workload: &str, client: usize) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    StdRng::seed_from_u64(mix64(seed ^ h) ^ mix64(client as u64 + 1))
}

/// Zipf-distributed ranks `0..n` (rank 0 hottest) by inverting a
/// precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fixed repeating order of operation kinds. Every window sees the same
/// mix in the same proportions, so two runs differ in their literals and
/// not in how many slow operations they happened to draw.
pub struct Schedule {
    cycle: &'static [usize],
    at: usize,
}

impl Schedule {
    /// Clients start at different points of the cycle so they do not run
    /// the same kind in lock-step.
    pub fn new(cycle: &'static [usize], client: usize) -> Schedule {
        Schedule { cycle, at: client * cycle.len() / 2 }
    }

    pub fn next_kind(&mut self) -> usize {
        let kind = self.cycle[self.at % self.cycle.len()];
        self.at += 1;
        kind
    }
}

/// Multi-row `INSERT`s of `batch` rows each into `table`. `row` appends one
/// parenthesised tuple.
pub fn inserts(
    table: &str,
    rows: usize,
    batch: usize,
    mut row: impl FnMut(usize, &mut String),
) -> String {
    let mut script = String::with_capacity(rows * 24);
    for at in (0..rows).step_by(batch) {
        script.push_str("INSERT INTO ");
        script.push_str(table);
        script.push_str(" VALUES ");
        for i in at..(at + batch).min(rows) {
            if i > at {
                script.push(',');
            }
            row(i, &mut script);
        }
        script.push_str(";\n");
    }
    script
}

pub fn int_row(values: &[i64]) -> Row {
    values.iter().map(|v| Datum::Int(*v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(w: &dyn Workload, client: usize, n: usize) -> Vec<String> {
        let mut stream = w.client(client);
        let mut out = Vec::new();
        for _ in 0..n {
            let op = stream.next_op();
            out.extend(op.stmts.into_iter().map(|s| s.text));
            stream.ack();
        }
        out
    }

    #[test]
    fn zipf_is_deterministic_and_head_heavy() {
        let z = Zipf::new(2_000, 0.99);
        let draw = |seed| {
            let mut rng = client_rng(seed, "oltp_point", 0);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let ranks = draw(42);
        assert!(ranks.iter().all(|&r| r < 2_000));
        let head = ranks.iter().filter(|&&r| r < 20).count();
        let tail = ranks.iter().filter(|&&r| r >= 1_000).count();
        // Zipf(0.99) over 2000 ranks puts ~44% of draws on the first 1%.
        assert!(head > 1_800 && head > tail * 3, "head {head} tail {tail}");
    }

    #[test]
    fn statement_streams_are_a_pure_function_of_the_seed() {
        for name in NAMES {
            let a = create(name, 7, true).unwrap();
            let b = create(name, 7, true).unwrap();
            let c = create(name, 8, true).unwrap();
            assert_eq!(texts(a.as_ref(), 0, 60), texts(b.as_ref(), 0, 60), "{name}");
            assert_ne!(texts(a.as_ref(), 0, 60), texts(c.as_ref(), 0, 60), "{name}");
            assert_ne!(texts(a.as_ref(), 0, 60), texts(a.as_ref(), 1, 60), "{name}");
        }
    }

    #[test]
    fn row_sets_compare_in_any_order_and_floats_with_tolerance() {
        let want = vec![
            vec![Datum::Text("b".into()), Datum::Float(0.1 + 0.2)],
            vec![Datum::Text("a".into()), Datum::Int(3)],
        ];
        let got = ResultSet {
            columns: vec![],
            rows: vec![
                vec![Datum::Text("a".into()), Datum::Int(3)],
                vec![Datum::Text("b".into()), Datum::Float(0.3)],
            ],
            affected: 0,
            explain: None,
        };
        assert!(matches!(Check::RowSet(want.clone()).run(got.clone()), Checked::Pass));
        assert!(matches!(Check::Rows(want).run(got.clone()), Checked::Fail));
        assert!(matches!(Check::Affected(1).run(got), Checked::Fail));
    }
}
