//! One workload against one server: set-up, warm-up, the timed closed-loop
//! window over TCP, and the checks that follow it.
//!
//! The server is an in-process `genalg_server::Server` with
//! `ServerConfig::default()`, reached only through `TcpClient` on loopback.
//! Each client sends its next request when the previous one has been
//! answered (closed loop); every operation's latency is kept as an exact
//! nanosecond sample in memory.

use crate::stats;
use crate::sys;
use crate::workload::{Checked, ClientStream, Loaded, Op, Stmt, Workload};
use genalg_obs::Snapshot;
use genalg_server::{Server, ServerConfig, ServerHandle, SessionKind, TcpClient};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use unidb::{Database, ResultSet, Role};

/// Equal parts, by operation index, the window is cut into.
pub const SLICES: usize = 5;
const PAGE_BYTES: u64 = 8192;
const MAX_PROBLEMS: usize = 8;

use crate::workload::Oracle;

/// Operations attempted and failed, with the first few reasons.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(p);
            }
        }
    }
}

/// What one client saw: a sample per successful operation.
#[derive(Default)]
pub struct ClientLog {
    /// Operation latency, nanoseconds (saturating at ~4.29 s).
    pub lat_ns: Vec<u32>,
    /// Completion time, microseconds since the client started.
    pub end_us: Vec<u32>,
    /// Operation kind; the high bit marks a write.
    pub kind: Vec<u8>,
    pub tally: Tally,
    /// Results whose oracle runs after the window.
    pub deferred: Vec<(Oracle, ResultSet)>,
    /// User payload bytes of the operations that committed.
    pub payload_bytes: u64,
}

pub const WRITE_BIT: u8 = 0x80;

#[derive(Clone, Copy)]
pub enum Until {
    Ops(usize),
    Elapsed(Duration),
}

/// Run one statement and check its result; a deferred oracle is queued in
/// `log` and counts as passed for now.
fn run_stmt(
    conn: &mut TcpClient,
    session: u64,
    stmt: Stmt,
    log: &mut ClientLog,
) -> Result<(), String> {
    let head = || stmt.text.chars().take(70).collect::<String>();
    match conn.query(session, stmt.lang, &stmt.text) {
        Err(e) => Err(format!("`{}` -> {e}", head())),
        Ok(rs) => match stmt.check.run(rs) {
            Checked::Pass => Ok(()),
            Checked::Fail => Err(format!("`{}` -> oracle mismatch", head())),
            Checked::Later(oracle, rs) => {
                log.deferred.push((oracle, rs));
                Ok(())
            }
        },
    }
}

/// Run one operation; returns whether every statement succeeded.
fn run_op(conn: &mut TcpClient, session: u64, op: Op, log: &mut ClientLog) -> bool {
    let in_txn = op.stmts.len() > 1;
    for stmt in op.stmts {
        if let Err(why) = run_stmt(conn, session, stmt, log) {
            log.tally.fail(why);
            if in_txn {
                // Unpin the session; the answer does not matter.
                let _ = conn.query(session, genalg_server::Lang::Sql, "ROLLBACK");
            }
            return false;
        }
    }
    true
}

/// One client's closed loop over its own connection and session.
pub fn drive(
    addr: SocketAddr,
    session_kind: SessionKind,
    stream: &mut dyn ClientStream,
    until: Until,
    gate: Option<&Barrier>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn = TcpClient::connect(addr).expect("connect to the server under test");
    let session = conn.open(session_kind).expect("open session");
    if let Some(gate) = gate {
        gate.wait();
    }
    let origin = Instant::now();
    let mut done = 0usize;
    loop {
        match until {
            Until::Ops(n) if done >= n => break,
            Until::Elapsed(d) if origin.elapsed() >= d => break,
            _ => {}
        }
        let op = stream.next_op();
        let (kind, payload) =
            (op.kind as u8 | if op.write { WRITE_BIT } else { 0 }, op.payload_bytes);
        log.tally.attempted += 1;
        let start = Instant::now();
        let ok = run_op(&mut conn, session, op, &mut log);
        let end = Instant::now();
        if ok {
            stream.ack();
            log.payload_bytes += payload;
            let ns = end.duration_since(start).as_nanos();
            log.lat_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
            let us = end.duration_since(origin).as_micros();
            log.end_us.push(u32::try_from(us).unwrap_or(u32::MAX));
            log.kind.push(kind);
        }
        done += 1;
    }
    let _ = conn.close(session);
    log
}

/// A program under test, set up and warm.
pub struct Instance {
    pub loaded: Loaded,
    pub server: Server,
    handle: ServerHandle,
    pub dir: PathBuf,
    pub streams: Vec<Box<dyn ClientStream>>,
    pub session: SessionKind,
    /// Build + index + server start + warm-up.
    pub setup_secs: f64,
    pub tally: Tally,
    /// Payload bytes loaded and written so far.
    pub payload_bytes: u64,
    /// Results awaiting their deferred oracle.
    deferred: Vec<(Oracle, ResultSet)>,
}

impl Instance {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn db(&self) -> &Arc<Database> {
        &self.loaded.db
    }

    pub fn absorb(&mut self, log: &mut ClientLog) {
        self.tally.absorb(std::mem::take(&mut log.tally));
        self.payload_bytes += log.payload_bytes;
        self.deferred.append(&mut log.deferred);
    }
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Build, load, index, serve and warm up. With `concurrent` the warm-up
/// runs on all clients at once, as the window will; without it, one client
/// after the other, which leaves the database in a state that is the same
/// on every run (the traced run's exact counts depend on that).
pub fn setup(workload: &dyn Workload, concurrent: bool) -> Instance {
    let dir = sys::out_dir().join(format!(
        "db-{}-{}-{}",
        workload.name(),
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");

    let start = Instant::now();
    let loaded = workload.build(&dir);
    let server = Server::new(Arc::clone(&loaded.db), &ServerConfig::default());
    let handle = server.listen("127.0.0.1:0").expect("bind a loopback port");
    let payload_bytes = loaded.payload_bytes;
    let mut instance = Instance {
        loaded,
        server,
        handle,
        dir,
        streams: (0..workload.clients()).map(|i| workload.client(i)).collect(),
        session: workload.session(),
        setup_secs: 0.0,
        tally: Tally::default(),
        payload_bytes,
        deferred: Vec::new(),
    };
    let until = Until::Ops(workload.warmup_ops());
    let mut logs = if concurrent {
        run_clients(&mut instance, until)
    } else {
        let (addr, kind) = (instance.addr(), instance.session.clone());
        instance
            .streams
            .iter_mut()
            .map(|s| drive(addr, kind.clone(), s.as_mut(), until, None))
            .collect()
    };
    instance.setup_secs = start.elapsed().as_secs_f64();
    for log in &mut logs {
        instance.absorb(log);
    }
    instance
}

/// All clients at once, each on its own thread, released together.
fn run_clients(instance: &mut Instance, until: Until) -> Vec<ClientLog> {
    let (addr, kind) = (instance.addr(), instance.session.clone());
    let gate = Barrier::new(instance.streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = instance
            .streams
            .iter_mut()
            .map(|stream| {
                let (kind, gate) = (kind.clone(), &gate);
                scope.spawn(move || drive(addr, kind, stream.as_mut(), until, Some(gate)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// The timed window's raw material.
pub struct Window {
    pub logs: Vec<ClientLog>,
    pub cpu_ms: f64,
    /// Server and engine counters over the window.
    pub counters: Snapshot,
}

pub fn window(instance: &mut Instance, seconds: f64) -> Window {
    let before = instance.server.service().snapshot();
    let cpu_before = sys::cpu_ms();
    let mut logs = run_clients(instance, Until::Elapsed(Duration::from_secs_f64(seconds)));
    let cpu_ms = sys::cpu_ms() - cpu_before;
    let counters = instance.server.service().snapshot().delta_since(&before);
    for log in &mut logs {
        instance.absorb(log);
    }
    Window { logs, cpu_ms, counters }
}

/// Figures of the timed window as the clients saw it.
pub struct ClientView {
    pub ok_ops: usize,
    pub throughput_ops_s: f64,
    pub slice_spread: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    /// The percentile `p95_us` actually is (lower when the window held
    /// fewer than 200 operations).
    pub p95_is: f64,
    pub p99_us: f64,
    pub read_p50_us: f64,
    pub read_p95_us: f64,
    pub write_p50_us: f64,
    pub write_p95_us: f64,
    pub reads: usize,
    pub writes: usize,
}

fn pct_us(sorted: &[u32], p: f64) -> (f64, f64) {
    stats::percentile_capped(sorted, p).map_or((0.0, 0.0), |(ns, is)| (f64::from(ns) / 1e3, is))
}

pub fn client_view(logs: &[ClientLog]) -> ClientView {
    let mut all: Vec<u32> = Vec::new();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut ends: Vec<f64> = Vec::new();
    for log in logs {
        all.extend_from_slice(&log.lat_ns);
        ends.extend(log.end_us.iter().map(|&us| f64::from(us) / 1e6));
        for (ns, kind) in log.lat_ns.iter().zip(&log.kind) {
            if kind & WRITE_BIT != 0 { &mut writes } else { &mut reads }.push(*ns);
        }
    }
    all.sort_unstable();
    reads.sort_unstable();
    writes.sort_unstable();
    ends.sort_by(f64::total_cmp);
    let rates = stats::slice_rates(&ends, SLICES);
    let throughput = stats::median(&rates);
    let spread =
        match (rates.iter().copied().reduce(f64::min), rates.iter().copied().reduce(f64::max)) {
            (Some(lo), Some(hi)) if throughput > 0.0 => (hi - lo) / throughput,
            _ => 0.0,
        };
    let (p95_us, p95_is) = pct_us(&all, 0.95);
    ClientView {
        ok_ops: all.len(),
        throughput_ops_s: throughput,
        slice_spread: spread,
        p50_us: pct_us(&all, 0.5).0,
        p95_us,
        p95_is,
        p99_us: pct_us(&all, 0.99).0,
        read_p50_us: pct_us(&reads, 0.5).0,
        read_p95_us: pct_us(&reads, 0.95).0,
        write_p50_us: pct_us(&writes, 0.5).0,
        write_p95_us: pct_us(&writes, 0.95).0,
        reads: reads.len(),
        writes: writes.len(),
    }
}

/// What is known once the clients have stopped and every check has run.
pub struct Aftermath {
    pub heap_pages: u64,
    pub space_amp: f64,
    pub recover_ms: f64,
    pub checkpoint_ms: f64,
}

fn heap_pages(db: &Database, tables: &[&str]) -> u64 {
    tables
        .iter()
        .map(|t| {
            // A full scan reads every heap page once; the engine's own
            // counter says how many that was.
            let before = db.scan_pages_read();
            let _ = db.execute_as(&format!("SELECT count(*) FROM {t}"), &Role::Maintainer);
            db.scan_pages_read() - before
        })
        .sum()
}

fn check_direct(db: &Database, checks: Vec<Stmt>, tally: &mut Tally, when: &str) {
    for stmt in checks {
        tally.attempted += 1;
        let head: String = stmt.text.chars().take(70).collect();
        match db.execute_as(&stmt.text, &Role::Maintainer) {
            Ok(rs) => {
                if !matches!(stmt.check.run(rs), Checked::Pass) {
                    tally.fail(format!("{when}: `{head}` -> invariant broken"));
                }
            }
            Err(e) => tally.fail(format!("{when}: `{head}` -> {e}")),
        }
    }
}

/// Run the deferred oracles and the clients' final invariants, measure
/// space, then tear the instance down.
///
/// A durable database is checkpointed, takes a fixed tail of further
/// operations, and is then dropped, reopened and recovered: recovery loads
/// the snapshot and replays a WAL tail of the same length on every run
/// (replay finds each updated row by scanning its table, so replaying the
/// whole window would cost more than the window did). Every invariant must
/// hold again afterwards.
pub fn finish(workload: &dyn Workload, mut instance: Instance) -> (Aftermath, Tally) {
    for (oracle, rs) in std::mem::take(&mut instance.deferred) {
        if !oracle(&rs) {
            instance.tally.fail("deferred oracle mismatch".into());
        }
    }
    let final_checks =
        |i: &Instance| i.streams.iter().flat_map(|s| s.final_checks()).collect::<Vec<Stmt>>();
    let checks = final_checks(&instance);
    check_direct(&instance.loaded.db, checks, &mut instance.tally, "after the window");

    let heap_pages = heap_pages(instance.db(), workload.tables());
    let disk_bytes = if workload.durable() { sys::dir_bytes(&instance.dir) } else { 0 };
    let space_amp =
        (heap_pages * PAGE_BYTES + disk_bytes) as f64 / instance.payload_bytes.max(1) as f64;
    let mut aftermath = Aftermath { heap_pages, space_amp, recover_ms: 0.0, checkpoint_ms: 0.0 };

    if workload.durable() {
        let start = Instant::now();
        if let Err(e) = instance.db().checkpoint() {
            instance.tally.fail(format!("checkpoint failed: {e}"));
        }
        aftermath.checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        let (addr, kind) = (instance.addr(), instance.session.clone());
        let until = Until::Ops(workload.wal_tail_ops());
        let mut logs: Vec<ClientLog> = instance
            .streams
            .iter_mut()
            .map(|s| drive(addr, kind.clone(), s.as_mut(), until, None))
            .collect();
        for log in &mut logs {
            instance.absorb(log);
        }
    }

    let checks = final_checks(&instance);
    let Instance { loaded, server, handle, dir, mut tally, .. } = instance;
    drop(handle);
    drop(server);
    let mut db = loaded.db;
    if workload.durable() {
        // Connection threads let go of the database as they notice their
        // peer has gone; wait for the last of them before reopening.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match Arc::try_unwrap(db) {
                Ok(owned) => {
                    drop(owned);
                    break;
                }
                Err(shared) if Instant::now() < deadline => {
                    db = shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => {
                    tally.fail("the server kept the database open after shutdown".into());
                    break;
                }
            }
        }
        if let Some((reopened, recover_secs)) = workload.reopen(&dir) {
            aftermath.recover_ms = recover_secs * 1e3;
            check_direct(&reopened, checks, &mut tally, "after reopen + recover()");
        }
    }
    remove_dir(&dir);
    (aftermath, tally)
}

/// Tear an instance down without checking it (set-up repetitions).
pub fn discard(instance: Instance) {
    let dir = instance.dir.clone();
    drop(instance);
    remove_dir(&dir);
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One `--trace 0` run: every end-to-end metric of one workload.
pub struct E2eRun {
    pub metrics: BTreeMap<&'static str, f64>,
    pub view: ClientView,
    pub tally: Tally,
}

pub fn e2e(workload: &dyn Workload, seconds: f64, setup_reps: usize) -> E2eRun {
    // Set up several times and report the median; the last one is measured.
    let mut setup_samples = Vec::new();
    let mut instance = setup(workload, true);
    for _ in 1..setup_reps {
        setup_samples.push(instance.setup_secs);
        let failed = std::mem::take(&mut instance.tally);
        discard(instance);
        instance = setup(workload, true);
        instance.tally.absorb(failed);
    }
    setup_samples.push(instance.setup_secs);

    let w = window(&mut instance, seconds);
    let view = client_view(&w.logs);
    let (aftermath, tally) = finish(workload, instance);

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", stats::median(&setup_samples));
    metrics.insert("throughput_ops_s", view.throughput_ops_s);
    metrics.insert("latency_p50_us", view.p50_us);
    metrics.insert("latency_p95_us", view.p95_us);
    metrics.insert("cpu_ms_per_op", w.cpu_ms / view.ok_ops.max(1) as f64);
    metrics.insert("space_amp", aftermath.space_amp);
    E2eRun { metrics, view, tally }
}
