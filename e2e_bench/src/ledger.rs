//! The layer ledger, measured purely from outside.
//!
//! One client replays the workload's seeded statement stream serially and
//! times the layers' *public* functions only, nested like this:
//!
//! ```text
//! TcpClient::query            wire + everything below
//!   Client::query             admission queue + worker pool + below
//!     QueryService::execute   caches, routing, observability + below
//!       Database::prepare_as  ⊃ sql::parse      (plan)
//!       Database::execute_prepared              (execute)
//! ```
//!
//! A layer's self time is its call minus the call it contains. Two ways of
//! pairing the calls, by what the statement allows:
//!
//! * **A cacheable read** is differenced against itself. The same text runs
//!   through the engine's calls directly (no cache sees it), then through
//!   the service (first sight: miss, plan hit or result hit, as the stream
//!   has it), then three more times — service, in-process client, TCP — all
//!   answered from the result cache with the statement's real response
//!   bytes. Wire and queue self times are differences of those cheap hits,
//!   so a 100 ms scan does not drown a 50 µs hand-off in its own jitter.
//! * **Anything else** (DML, transaction control, reads inside a
//!   transaction) cannot run twice. Each operation runs at one of the four
//!   levels, rotating per operation kind, and the class medians are
//!   differenced.
//!
//! Nothing is clamped: a self time below zero is kept as measured, and
//! counted when it is below what the contained call's own jitter explains.
//! In-program spans are a later change; what no public call accounts for is
//! reported as `trace.unexplained_us`.

use crate::run::{Instance, Tally};
use crate::stats::{self, Span};
use crate::workload::{Checked, Op, Stmt, Workload};
use genalg_obs::{CacheTier, Execution, FingerprintRegistry};
use genalg_server::protocol::{read_frame, write_frame};
use genalg_server::{
    normalize_sql, Client, Lang, QueryService, Request, Response, ServerError, SessionId, TcpClient,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;
use unidb::exec::stats::OpStatsSnapshot;
use unidb::{Database, ResultSet, Role};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Tcp,
    Client,
    Service,
    Direct,
}
const LEVELS: [Level; 4] = [Level::Tcp, Level::Client, Level::Service, Level::Direct];

/// Which cache answered a statement served through the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// Result cache: no parse, no plan, no execution.
    Result,
    /// Plan cache: execution only.
    Plan,
    /// Neither: parse, plan, execute.
    Miss,
    /// Not a cached read: DML, transaction control, reads in a transaction.
    Bypass,
}

/// Operation kind and statement position within the operation.
type Class = (usize, usize);
const MAX_SPANS: usize = 50_000;
const KEPT_SAMPLES: usize = 256;
/// A self time counts as negative only when it is this many standard
/// errors (plus a microsecond of clock overhead) below zero: less than that
/// and sampling noise explains it.
const NEGATIVE_SIGMAS: f64 = 4.0;

const WIRE: &str = "server.wire.self_us";
const QUEUE: &str = "server.queue.self_us";
const SERVICE: &str = "server.service.self_us";
const TRANSLATE: &str = "bql.translate_us";
const PARSE: &str = "unidb.sql.parse_us";
const PLAN: &str = "unidb.plan.self_us";
const EXECUTE: &str = "unidb.exec.execute_us";
const COMMIT: &str = "unidb.txn.commit_self_us";
/// The layers of one statement's round trip, outermost first.
const LAYERS: [&str; 8] = [WIRE, QUEUE, SERVICE, TRANSLATE, PARSE, PLAN, EXECUTE, COMMIT];

/// Times of the engine's public calls for one statement, microseconds.
#[derive(Default, Clone, Copy)]
struct DirectTimes {
    translate: f64,
    parse: f64,
    prepare: f64,
    execute: f64,
    analyze: f64,
    /// `execute_as` / `txn_execute_as` / `txn_begin`: a statement that is
    /// not a plain read.
    statement: f64,
    commit: f64,
    index_probe: bool,
    /// The statement belongs to a write operation.
    write: bool,
}

/// Statements of one class answered by one cache tier.
#[derive(Default)]
struct Cell {
    statements: usize,
    /// Layer name to one sample per statement (reads paired with
    /// themselves) or one figure from level medians (rotated classes).
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Rotated classes: standard error of each layer's one figure.
    noise: BTreeMap<&'static str, f64>,
    /// Rotated classes: raw samples at the TCP, client and service level.
    levels: [Vec<f64>; 3],
}

impl Cell {
    fn push(&mut self, layer: &'static str, self_us: f64) {
        self.layers.entry(layer).or_default().push(self_us);
    }

    /// Standard error of a layer's value: from its per-statement samples,
    /// or as recorded when it came from differencing two level medians.
    fn standard_error(&self, layer: &str) -> f64 {
        self.noise.get(layer).copied().unwrap_or_else(|| stats::median_se(&self.layers[layer]))
    }
}

/// Exact counts from `explain_analyze`, summed over the fixed pass.
#[derive(Default)]
struct Counts {
    statements: u64,
    rows_out: u64,
    batches: u64,
    partitions: u64,
    build_rows: u64,
    pages_read: u64,
    pages_skipped: u64,
    segments_decoded: u64,
    scan_us: f64,
    join_us: f64,
    agg_us: f64,
    topn_us: f64,
    est_ratios: Vec<f64>,
}

impl Counts {
    fn add_tree(&mut self, node: &OpStatsSnapshot) {
        let children: u64 = node.children.iter().map(|c| c.time_us).sum();
        let own = node.time_us.saturating_sub(children) as f64;
        let family = node.label.split_whitespace().next().unwrap_or("");
        match family {
            "SeqScan" | "IndexEqScan" | "IndexRangeScan" | "UdiScan" | "Filter" => {
                self.scan_us += own
            }
            "HashJoin" | "NestedLoopJoin" => self.join_us += own,
            "Aggregate" | "Distinct" => self.agg_us += own,
            "TopN" | "Sort" | "Limit" => self.topn_us += own,
            _ => {}
        }
        self.batches += node.batches;
        self.partitions += node.partitions;
        self.build_rows += node.build_rows;
        self.pages_read += node.pages_read;
        self.pages_skipped += node.pages_skipped;
        self.segments_decoded += node.segments_decoded;
        for child in &node.children {
            self.add_tree(child);
        }
    }
}

pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    /// Whole-operation round trips, for comparison with the timed window.
    pub op_round_trip_us: Vec<f64>,
    pub tally: Tally,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` and record it as a span; returns its result, its
    /// microseconds and the span's index.
    fn time<T>(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, usize) {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        let idx = self.spans.len();
        if idx < MAX_SPANS {
            self.spans.push(Span {
                name: name.into(),
                request,
                parent,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
        (out, (end - start).as_secs_f64() * 1e6, idx)
    }
}

fn med(v: &[f64]) -> f64 {
    stats::median(v)
}

/// Result-cache hits, plan-cache hits and plan-cache misses so far. Read
/// around a statement of the serial pass, they say which tier answered it.
fn cache_counters(service: &QueryService) -> (u64, u64, u64) {
    let m = service.metrics();
    (
        m.result_cache_hits.load(Ordering::Relaxed),
        m.plan_cache_hits.load(Ordering::Relaxed),
        m.plan_cache_misses.load(Ordering::Relaxed),
    )
}

/// The three ways into the server.
struct Doors<'a> {
    conn: TcpClient,
    in_process: Client,
    service: &'a QueryService,
    session: u64,
}

impl Doors<'_> {
    /// Run one statement through `level` (never `Direct`), timed, and say
    /// which cache tier answered it.
    fn serve(
        &mut self,
        level: Level,
        lang: Lang,
        text: &str,
        request: u64,
        rec: &mut Recorder,
    ) -> (Result<ResultSet, ServerError>, f64, Tier) {
        let before = cache_counters(self.service);
        let session = SessionId(self.session);
        let (out, us, _) = match level {
            Level::Tcp => rec.time("client.tcp_query", request, None, || {
                self.conn.query(self.session, lang, text)
            }),
            Level::Client => rec.time("server.client_query", request, None, || match lang {
                Lang::Sql => self.in_process.query(session, text),
                Lang::Bql => self.in_process.query_bql(session, text),
            }),
            _ => rec.time("server.service_execute", request, None, || {
                self.service.execute(session, lang, text)
            }),
        };
        let after = cache_counters(self.service);
        let tier = if after.0 > before.0 {
            Tier::Result
        } else if after.1 > before.1 {
            Tier::Plan
        } else if after.2 > before.2 {
            Tier::Miss
        } else {
            Tier::Bypass
        };
        (out, us, tier)
    }
}

/// Replay `workload.traced_ops()` operations of client 0's stream and
/// assemble the ledger.
pub fn traced_pass(workload: &dyn Workload, instance: &mut Instance) -> Traced {
    let db = instance.db().clone();
    let service = instance.server.service().clone();
    let role = instance.session.role();
    let mut conn = TcpClient::connect(instance.addr()).expect("connect");
    let session = conn.open(instance.session.clone()).expect("open session");
    let mut doors =
        Doors { conn, in_process: instance.server.client(), service: &service, session };

    let mut rec = Recorder { origin: Instant::now(), spans: Vec::new() };
    let mut tally = Tally::default();
    let mut cells: BTreeMap<(Class, Tier), Cell> = BTreeMap::new();
    let mut engine: BTreeMap<Class, Vec<DirectTimes>> = BTreeMap::new();
    let mut counts = Counts::default();
    let mut hits = Vec::new();
    let mut op_round_trip_us = Vec::new();
    let mut rotation = vec![0usize; workload.kinds().len()];
    let mut kept: Vec<(Request, ResultSet)> = Vec::new();
    let mut stmt_bytes = (0u64, 0u64);
    let mut written = (0u64, 0u64); // payload bytes, commit points
    let mut request = 0u64;

    let before = service.snapshot();
    let wal_path = instance.dir.join("wal.db");
    let wal_len = || std::fs::metadata(&wal_path).map_or(0, |m| m.len());
    let wal_before = wal_len();

    for _ in 0..workload.traced_ops() {
        let Op { kind, write, stmts, payload_bytes } = instance.streams[0].next_op();
        tally.attempted += 1;
        let paired = !write && stmts.len() == 1;
        let level = if paired { Level::Direct } else { LEVELS[rotation[kind] % LEVELS.len()] };
        rotation[kind] += usize::from(!paired);
        let mut failure = None;
        let mut op_us = 0.0;
        let mut txn: Option<u64> = None;
        for (at, Stmt { lang, text, check }) in stmts.into_iter().enumerate() {
            request += 1;
            let class = (kind, at);
            stmt_bytes = (stmt_bytes.0 + text.len() as u64, stmt_bytes.1 + 1);
            let result = if paired {
                // The same text five times: the engine's calls, first sight
                // through the service, then three cache hits. Whichever of
                // the first two runs first pays for cold CPU caches on this
                // statement's data; alternate, so the median of their
                // difference leans neither way.
                let engine_first = engine.get(&class).map_or(0, Vec::len).is_multiple_of(2);
                let mut engine_calls = |rec: &mut Recorder, counts: &mut Counts| {
                    direct(&db, &role, lang, &text, &mut txn, request, rec, counts)
                };
                let early = engine_first.then(|| engine_calls(&mut rec, &mut counts));
                let (first_out, first, tier) =
                    doors.serve(Level::Service, lang, &text, request, &mut rec);
                let (direct_out, d) = early.unwrap_or_else(|| engine_calls(&mut rec, &mut counts));
                engine.entry(class).or_default().push(d);
                let (_, hit, _) = doors.serve(Level::Service, lang, &text, request, &mut rec);
                let (_, client, _) = doors.serve(Level::Client, lang, &text, request, &mut rec);
                let (tcp_out, tcp, _) = doors.serve(Level::Tcp, lang, &text, request, &mut rec);
                let (parse, plan, execute) = match tier {
                    Tier::Result => (0.0, 0.0, 0.0),
                    Tier::Plan => (0.0, 0.0, d.execute),
                    Tier::Miss | Tier::Bypass => (d.parse, d.prepare - d.parse, d.execute),
                };
                let contained = d.translate + parse + plan + execute;
                let cell = cells.entry((class, tier)).or_default();
                cell.statements += 1;
                cell.push(WIRE, tcp - client);
                cell.push(QUEUE, client - hit);
                cell.push(SERVICE, first - contained);
                cell.push(TRANSLATE, d.translate);
                cell.push(PARSE, parse);
                cell.push(PLAN, plan);
                cell.push(EXECUTE, execute);
                cell.push(COMMIT, 0.0);
                hits.push(hit);
                op_us += tcp - hit + first;
                // All three doors and the engine must agree on the answer.
                match (direct_out, first_out, tcp_out) {
                    (Ok(a), Ok(b), Ok(c)) if a.rows == b.rows && b.rows == c.rows => Ok(c),
                    (Ok(_), Ok(_), Ok(_)) => Err(ServerError::Protocol("levels disagree".into())),
                    (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => Err(e),
                }
            } else if level == Level::Direct {
                let (out, mut d) =
                    direct(&db, &role, lang, &text, &mut txn, request, &mut rec, &mut counts);
                d.write = write;
                engine.entry(class).or_default().push(d);
                out
            } else {
                let (out, us, tier) = doors.serve(level, lang, &text, request, &mut rec);
                let cell = cells.entry((class, tier)).or_default();
                cell.statements += 1;
                cell.levels[level as usize].push(us);
                op_us += us;
                out
            };
            match result {
                Ok(rs) => {
                    if kept.len() < KEPT_SAMPLES {
                        let req = Request::Query { session, lang, text: text.clone() };
                        kept.push((req, rs.clone()));
                    }
                    // A deferred oracle costs as much as the statement did;
                    // the timed window runs them on this same stream.
                    if matches!(check.run(rs), Checked::Fail) {
                        failure = Some("oracle mismatch".to_string());
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
            if let Some(why) = &failure {
                let head: String = text.chars().take(70).collect();
                tally.fail(format!("traced `{head}` at {level:?}: {why}"));
                break;
            }
        }
        if failure.is_none() {
            instance.streams[0].ack();
            instance.payload_bytes += payload_bytes;
            if write {
                written = (written.0 + payload_bytes, written.1 + 1);
            }
            if paired || level == Level::Tcp {
                op_round_trip_us.push(op_us);
            }
        } else if let Some(id) = txn {
            let _ = db.txn_rollback(id);
        } else {
            let _ = doors.conn.query(session, Lang::Sql, "ROLLBACK");
        }
    }
    let _ = doors.conn.close(session);
    let pass = service.snapshot().delta_since(&before);
    let wal_bytes = wal_len().saturating_sub(wal_before);

    let mut m = assemble(workload, cells, &engine, &mut tally);
    m.insert("server.cache.hit_us".into(), med(&hits));
    let per_stmt = |x: f64| x / counts.statements.max(1) as f64;
    m.insert("unidb.sql.stmt_bytes".into(), stmt_bytes.0 as f64 / stmt_bytes.1.max(1) as f64);
    m.insert("unidb.exec.scan_us".into(), per_stmt(counts.scan_us));
    m.insert("unidb.exec.join_us".into(), per_stmt(counts.join_us));
    m.insert("unidb.exec.agg_us".into(), per_stmt(counts.agg_us));
    m.insert("unidb.exec.topn_us".into(), per_stmt(counts.topn_us));
    m.insert("unidb.exec.rows_out".into(), counts.rows_out as f64);
    m.insert("unidb.exec.batches".into(), counts.batches as f64);
    m.insert("unidb.exec.partitions".into(), counts.partitions as f64);
    m.insert("unidb.exec.build_rows".into(), counts.build_rows as f64);
    m.insert("unidb.storage.pages_read".into(), counts.pages_read as f64);
    m.insert("unidb.storage.pages_skipped".into(), counts.pages_skipped as f64);
    let visited = counts.pages_read + counts.pages_skipped;
    m.insert(
        "unidb.storage.skip_ratio".into(),
        counts.pages_skipped as f64 / visited.max(1) as f64,
    );
    m.insert("unidb.storage.segments_decoded".into(), counts.segments_decoded as f64);
    m.insert(
        "unidb.storage.pages_read_per_result_row".into(),
        counts.pages_read as f64 / counts.rows_out.max(1) as f64,
    );
    m.insert("unidb.plan.est_rows_ratio".into(), med(&counts.est_ratios));
    let all = || engine.values().flatten();
    let (analyze, execute) = all().fold((0.0, 0.0), |a, d| (a.0 + d.analyze, a.1 + d.execute));
    m.insert(
        "unidb.exec.analyze_overhead_ratio".into(),
        if execute > 0.0 { analyze / execute } else { 1.0 },
    );
    let probes: Vec<f64> = all().filter(|d| d.index_probe).map(|d| d.execute).collect();
    m.insert("unidb.index.btree_probe_us".into(), med(&probes));
    let commits: Vec<f64> = all().filter(|d| d.write && d.commit > 0.0).map(|d| d.commit).collect();
    m.insert("unidb.txn.commit_us".into(), med(&commits));
    let class_med = |class: &Class, f: fn(&DirectTimes) -> f64| {
        engine.get(class).map_or(0.0, |v| med(&v.iter().map(f).collect::<Vec<_>>()))
    };
    let ratio = workload.txn_read_pair().map_or(0.0, |[in_txn, autocommit]| {
        let outside = class_med(&autocommit, |d| d.prepare + d.execute);
        if outside > 0.0 {
            class_med(&in_txn, |d| d.statement) / outside
        } else {
            0.0
        }
    });
    m.insert("unidb.txn.read_in_txn_ratio".into(), ratio);

    // Exact counters of the fixed pass: same operations, same start state.
    let count = |name: &str| pass.value(name).unwrap_or(0) as f64;
    m.insert("unidb.storage.wal_appends".into(), count("wal_appends"));
    m.insert("unidb.storage.wal_syncs".into(), count("wal_syncs"));
    m.insert("unidb.storage.wal_bytes".into(), wal_bytes as f64);
    m.insert(
        "unidb.storage.wal_bytes_per_user_byte".into(),
        wal_bytes as f64 / written.0.max(1) as f64,
    );
    m.insert("unidb.storage.syncs_per_commit".into(), count("wal_syncs") / written.1.max(1) as f64);
    for name in ["begun", "committed", "aborted", "conflicts", "versions_pruned"] {
        m.insert(format!("unidb.txn.{name}"), count(&format!("txn_{name}")));
    }

    codec(&kept, &mut m);
    m.insert(
        "trace.unexplained_us".into(),
        m[WIRE] - m["server.protocol.req_codec_us"] - m["server.protocol.resp_codec_us"],
    );
    Traced { metrics: m, spans: rec.spans, op_round_trip_us, tally }
}

/// One statement through the engine's public calls, each timed.
#[allow(clippy::too_many_arguments)]
fn direct(
    db: &Database,
    role: &Role,
    lang: Lang,
    text: &str,
    txn: &mut Option<u64>,
    request: u64,
    rec: &mut Recorder,
    counts: &mut Counts,
) -> (Result<ResultSet, ServerError>, DirectTimes) {
    let empty = || ResultSet { columns: vec![], rows: vec![], affected: 0, explain: None };
    let mut d = DirectTimes::default();
    let ((), _, root) = rec.time("unidb.direct", request, None, || ());
    let sql = match lang {
        Lang::Sql => text.to_string(),
        Lang::Bql => {
            let (sql, us, _) = rec.time("bql.translate", request, Some(root), || {
                genalg_bql::parse(text).and_then(|q| q.to_sql())
            });
            d.translate = us;
            match sql {
                Ok(sql) => sql,
                Err(e) => return (Err(ServerError::Bql(e.to_string())), d),
            }
        }
    };
    counts.statements += 1;
    let head = sql.split_whitespace().next().unwrap_or("").to_ascii_uppercase();
    let out = if head == "BEGIN" {
        let (id, us, _) = rec.time("unidb.txn_begin", request, Some(root), || db.txn_begin());
        *txn = Some(id);
        d.statement = us;
        Ok(empty())
    } else if head == "COMMIT" {
        match txn.take() {
            None => Err(ServerError::Protocol("COMMIT without BEGIN".into())),
            Some(id) => {
                let (out, us, _) =
                    rec.time("unidb.txn_commit", request, Some(root), || db.txn_commit(id));
                d.commit = us;
                out.map(|()| empty()).map_err(ServerError::Db)
            }
        }
    } else if let Some(id) = *txn {
        let (out, us, _) = rec.time("unidb.txn_execute_as", request, Some(root), || {
            db.txn_execute_as(id, &sql, role)
        });
        d.statement = us;
        out.map_err(ServerError::Db)
    } else if head == "SELECT" {
        // `prepare_as` parses the text itself; the parse span is a separate
        // call of `sql::parse` on the same text, nested to show containment.
        let (plan, prepare_us, span) =
            rec.time("unidb.prepare_as", request, Some(root), || db.prepare_as(&sql, role));
        let (_, parse_us, _) =
            rec.time("unidb.sql.parse", request, Some(span), || unidb::sql::parse(&sql));
        match plan {
            Err(e) => Err(ServerError::Db(e)),
            Ok(plan) => {
                // `explain_analyze` first: it yields the exact counts and
                // leaves the pool as warm for the timed execution as that
                // execution leaves it for the service's.
                let (analyzed, analyze_us, _) =
                    rec.time("unidb.explain_analyze", request, None, || {
                        db.explain_analyze_as(&sql, role)
                    });
                let (out, execute_us, _) =
                    rec.time("unidb.execute_prepared", request, Some(root), || {
                        db.execute_prepared(&plan)
                    });
                d.prepare = prepare_us;
                d.parse = parse_us;
                d.execute = execute_us;
                d.analyze = analyze_us;
                d.index_probe = plan.access_label().starts_with("IndexEqScan");
                if let Ok((_, tree)) = analyzed {
                    counts.add_tree(&tree);
                    counts.rows_out += tree.rows_out;
                    counts
                        .est_ratios
                        .push((plan.estimated_rows() + 1) as f64 / (tree.rows_out + 1) as f64);
                }
                out.map_err(ServerError::Db)
            }
        }
    } else {
        let (out, us, _) =
            rec.time("unidb.execute_as", request, Some(root), || db.execute_as(&sql, role));
        d.statement = us;
        out.map_err(ServerError::Db)
    };
    // Close the root span over everything nested in it.
    let now = rec.origin.elapsed().as_nanos() as u64;
    if let Some(span) = rec.spans.get_mut(root) {
        span.end_ns = now;
    }
    (out, d)
}

/// Cells into mix-weighted layer times that sum to the round trip.
fn assemble(
    workload: &dyn Workload,
    mut cells: BTreeMap<(Class, Tier), Cell>,
    engine: &BTreeMap<Class, Vec<DirectTimes>>,
    tally: &mut Tally,
) -> BTreeMap<String, f64> {
    // A rotated (class, tier) cell seen at fewer than all three served
    // levels cannot be differenced on its own: fold it into the class's
    // fullest cell.
    let keys: Vec<(Class, Tier)> = cells.keys().copied().collect();
    for key in &keys {
        let sparse = cells[key].layers.is_empty() && cells[key].levels.iter().any(Vec::is_empty);
        let fullest = keys
            .iter()
            .filter(|k| k.0 == key.0 && *k != key && cells.contains_key(*k))
            .max_by_key(|k| cells[*k].statements)
            .copied();
        if let (true, Some(into)) = (sparse, fullest) {
            let cell = cells.remove(key).expect("listed above");
            let into = cells.get_mut(&into).expect("listed above");
            into.statements += cell.statements;
            for (level, mut samples) in cell.levels.into_iter().enumerate() {
                into.levels[level].append(&mut samples);
            }
        }
    }
    // Rotated cells: difference the level medians.
    for ((class, _), cell) in &mut cells {
        if !cell.layers.is_empty() {
            continue;
        }
        if cell.levels.iter().any(Vec::is_empty) || !engine.contains_key(class) {
            tally.fail(format!("class {class:?} was not run at every level"));
            continue;
        }
        let column = |f: fn(&DirectTimes) -> f64| engine[class].iter().map(f).collect::<Vec<_>>();
        let (translate, statement, commit) =
            (column(|d| d.translate), column(|d| d.statement), column(|d| d.commit));
        let [tcp, client, service] = &cell.levels;
        let contained = med(&translate) + med(&statement) + med(&commit);
        let se = stats::median_se;
        for (layer, value, error) in [
            (WIRE, med(tcp) - med(client), se(tcp).hypot(se(client))),
            (QUEUE, med(client) - med(service), se(client).hypot(se(service))),
            (
                SERVICE,
                med(service) - contained,
                se(service).hypot(se(&statement)).hypot(se(&commit)),
            ),
            (TRANSLATE, med(&translate), 0.0),
            (PARSE, 0.0, 0.0),
            (PLAN, 0.0, 0.0),
            (EXECUTE, med(&statement), 0.0),
            (COMMIT, med(&commit), 0.0),
        ] {
            cell.layers.insert(layer, vec![value]);
            cell.noise.insert(layer, error);
        }
    }

    let total: usize = cells.values().map(|c| c.statements).sum();
    let mut m: BTreeMap<String, f64> = LAYERS.iter().map(|l| (l.to_string(), 0.0)).collect();
    let mut negative = 0u64;
    for ((class, tier), cell) in cells.iter().filter(|(_, c)| !c.layers.is_empty()) {
        let share = cell.statements as f64 / total.max(1) as f64;
        for layer in LAYERS {
            let value = med(&cell.layers[layer]);
            let allowance = NEGATIVE_SIGMAS * cell.standard_error(layer) + 1.0;
            if value < -allowance {
                negative += 1;
                eprintln!(
                    "[{}] negative self time: {layer} of {}[{}] ({tier:?}, {} statements) = \
                     {value:.1} us, allowance {allowance:.1} us",
                    workload.name(),
                    workload.kinds()[class.0],
                    class.1,
                    cell.statements
                );
            }
            *m.get_mut(layer).expect("seeded above") += share * value;
        }
    }
    let round_trip: f64 = LAYERS.iter().map(|l| m[*l]).sum();
    m.insert("trace.round_trip_us".into(), round_trip);
    m.insert("trace.negative_self_count".into(), negative as f64);
    let dominant: f64 = dominant_layers(workload.name()).iter().map(|name| m[*name]).sum();
    m.insert(
        "trace.dominant_share".into(),
        if round_trip > 0.0 { dominant / round_trip } else { 0.0 },
    );
    m
}

/// The layers the interaction table names as dominant on each workload;
/// together they must account for most of the traced round trip, or the
/// workload is not isolating what it claims to.
pub fn dominant_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "oltp_point" => &[
            "server.wire.self_us",
            "server.queue.self_us",
            "server.service.self_us",
            "unidb.sql.parse_us",
            "unidb.plan.self_us",
        ],
        "mixed_rw_durable" => &[EXECUTE, COMMIT],
        _ => &["unidb.exec.execute_us"],
    }
}

/// Encode, frame and decode the pass's real requests and responses.
fn codec(kept: &[(Request, ResultSet)], m: &mut BTreeMap<String, f64>) {
    let (mut req_us, mut resp_us, mut resp_bytes) = (Vec::new(), Vec::new(), 0u64);
    let mut fingerprint_us = Vec::new();
    let registry = FingerprintRegistry::new(256, 16);
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64() * 1e6
    };
    for (request, result) in kept {
        let response = Response::Ok(result.clone());
        req_us.push(time(&mut || {
            let mut wire = Vec::new();
            write_frame(&mut wire, &request.encode()).expect("frame fits");
            let payload = read_frame(&mut wire.as_slice()).expect("reads back").expect("a frame");
            std::hint::black_box(Request::decode(&payload).expect("decodes"));
        }));
        resp_us.push(time(&mut || {
            let mut wire = Vec::new();
            write_frame(&mut wire, &response.encode()).expect("frame fits");
            let payload = read_frame(&mut wire.as_slice()).expect("reads back").expect("a frame");
            std::hint::black_box(Response::decode(&payload).expect("decodes"));
        }));
        resp_bytes += response.encode().len() as u64;
        if let Request::Query { text, .. } = request {
            let normalized = normalize_sql(text);
            fingerprint_us.push(time(&mut || {
                registry.record(&Execution {
                    normalized: &normalized,
                    latency_us: 100,
                    ok: true,
                    tier: CacheTier::from_label("miss"),
                    rows_out: result.rows.len() as u64,
                    pages_read: 0,
                    pages_skipped: 0,
                    queue_wait_us: 0,
                })
            }));
        }
    }
    m.insert("server.protocol.req_codec_us".into(), med(&req_us));
    m.insert("server.protocol.resp_codec_us".into(), med(&resp_us));
    m.insert("server.protocol.resp_bytes".into(), resp_bytes as f64 / kept.len().max(1) as f64);
    m.insert("obs.fingerprint_us".into(), med(&fingerprint_us));
}
