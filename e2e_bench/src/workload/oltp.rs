//! `oltp_point`: single-row lookups through a unique B-tree, keys drawn
//! Zipf(0.99) so the server's 256-entry plan and result caches (keyed on
//! literal text) see a hot head and a long missing tail.
//!
//! Why it exists: wire, queue, caches, parse and plan are nearly all of the
//! latency here and the executor almost none. A change to the executor must
//! show nothing on this workload; a change to the wire path must show here
//! and nowhere else.

use super::{
    client_rng, inserts, int_row, mix64, Check, ClientStream, Loaded, Op, Stmt, Workload, Zipf,
};
use genalg_server::SessionKind;
use rand::rngs::StdRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use unidb::{Database, Role};

const KINDS: &[&str] = &["point"];
/// Multiplier scattering Zipf ranks over the key space (coprime to both
/// table sizes), so hot keys are not neighbours on one heap page.
const SCATTER: usize = 7919;

pub struct OltpPoint {
    seed: u64,
    keys: usize,
    smoke: bool,
    script: String,
    zipf: Arc<Zipf>,
}

/// The generator's value for key `k`: the oracle for every lookup.
fn value_of(seed: u64, k: usize) -> i64 {
    (mix64(seed ^ (k as u64).wrapping_mul(0x9e37_79b9)) % 1_000_000) as i64
}

impl OltpPoint {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let keys = if smoke { 2_000 } else { 20_000 };
        let mut script = String::from("CREATE TABLE public.hot (k INT, v INT);\n");
        script.push_str(&inserts("public.hot", keys, 250, |k, out| {
            out.push_str(&format!("({k},{})", value_of(seed, k)))
        }));
        script.push_str("CREATE UNIQUE INDEX ON public.hot (k);\n");
        OltpPoint { seed, keys, smoke, script, zipf: Arc::new(Zipf::new(keys, 0.99)) }
    }
}

impl Workload for OltpPoint {
    fn name(&self) -> &'static str {
        "oltp_point"
    }

    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn session(&self) -> SessionKind {
        SessionKind::Public
    }

    /// A point lookup is all hand-offs between threads: with one client per
    /// core the cores idle between a request and its answer, and
    /// wake-from-idle jitter, not the program, sets the figures (run-to-run
    /// spread was twice as wide). Two clients per core keep both cores busy.
    fn clients(&self) -> usize {
        4
    }

    fn warmup_ops(&self) -> usize {
        if self.smoke {
            200
        } else {
            10_000
        }
    }

    fn traced_ops(&self) -> usize {
        if self.smoke {
            400
        } else {
            8_000
        }
    }

    fn tables(&self) -> &'static [&'static str] {
        &["public.hot"]
    }

    fn build(&self, _dir: &Path) -> Loaded {
        let db = Arc::new(Database::in_memory());
        let start = Instant::now();
        db.execute_script_as(&self.script, &Role::Maintainer).expect("load public.hot");
        Loaded {
            db,
            rows: self.keys as u64,
            payload_bytes: self.keys as u64 * 16,
            insert_secs: start.elapsed().as_secs_f64(),
        }
    }

    fn client(&self, idx: usize) -> Box<dyn ClientStream> {
        Box::new(PointStream {
            seed: self.seed,
            keys: self.keys,
            zipf: Arc::clone(&self.zipf),
            rng: client_rng(self.seed, "oltp_point", idx),
        })
    }
}

struct PointStream {
    seed: u64,
    keys: usize,
    zipf: Arc<Zipf>,
    rng: StdRng,
}

impl ClientStream for PointStream {
    fn next_op(&mut self) -> Op {
        let k = self.zipf.sample(&mut self.rng) * SCATTER % self.keys;
        Op::read(
            0,
            Stmt::sql(
                format!("SELECT v FROM public.hot WHERE k = {k}"),
                Check::Rows(vec![int_row(&[value_of(self.seed, k)])]),
            ),
        )
    }
}
