//! The query service: sessions in, result sets out.
//!
//! [`QueryService::execute`] is the single entry point every transport
//! (TCP handler, in-process client, benches) funnels through. It:
//!
//! 1. resolves the session to a role (public sessions may only read);
//! 2. compiles BQL to the extended SQL of the Unifying Database (§6.4);
//! 3. intercepts the observability statements — `SHOW STATS`,
//!    `SHOW METRICS` (Prometheus text), `SHOW SLOW QUERIES`, `SHOW TRACE`;
//! 4. lexes the text once; the tokens route the statement
//!    ([`unidb::sql::statement_kind`]: reads, writes, `SHOW`,
//!    `BEGIN`/`COMMIT`/`ROLLBACK`, whatever their comments or case), render
//!    its cache key and fingerprint ([`unidb::sql::render`]) and feed the
//!    parser. Text that does not lex fails with `Parse` before any check;
//! 5. keeps transactions per session, and routes an autocommit `SELECT`
//!    through the statement cache and every other statement through
//!    [`Database::run_stmt`] with the session's transaction passed explicitly
//!    — never through an entry that consults the engine's database-wide
//!    ambient transaction. The engine's generation counters invalidate
//!    cached state.
//!
//! Both `SHOW STATS` and `SHOW METRICS` render the same
//! [`genalg_obs::Snapshot`], built in one place ([`QueryService::snapshot`]); the
//! two surfaces can never disagree about a value.

use crate::cache::{Lookup, StatementCache, StatementKey, CACHE_CAPACITY};
use crate::error::{ServerError, ServerResult};
use crate::metrics::Metrics;
use crate::protocol::Lang;
use crate::session::{SessionId, SessionKind, SessionManager};
use genalg_obs::{
    incident_dir, CacheTier, Execution, FingerprintRegistry, IncidentBundle, IncidentRecorder,
    MetricRing, Snapshot, DEFAULT_HISTORY_SLOTS,
};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unidb::sql::{lex, parse_tokens, render, statement_kind, StmtKind, Token};
use unidb::{Database, Datum, DbError, Prepared, ResultSet};

/// Distinct query shapes the workload registry tracks before overflowing.
const FINGERPRINT_CAPACITY: usize = 256;
/// Plan-change audit entries retained (oldest dropped first).
const PLAN_AUDIT_CAPACITY: usize = 128;
/// Minimum spacing between automatically recorded incident bundles.
const INCIDENT_MIN_INTERVAL: Duration = Duration::from_secs(5);
/// Transaction conflicts in one sampler interval that count as a storm.
const CONFLICT_STORM_THRESHOLD: u64 = 256;

/// Tuning knobs for [`QueryService`] and [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Statements executing at once (admission permits). Each runs on the
    /// thread that received it; no thread is spawned per permit.
    pub workers: usize,
    /// Callers allowed to wait for a permit; the caller after that bounces
    /// with `Busy`. `workers + queue_capacity` bounds statements in flight.
    pub queue_capacity: usize,
    /// Statements at or above this latency land in the slow-query log.
    pub slow_query_threshold_us: u64,
    /// How many slowest statements `SHOW SLOW QUERIES` retains (0 = off).
    pub slow_query_capacity: usize,
    /// Enable the process-global span tracer at startup (it can also be
    /// pre-enabled with the `GENALG_TRACE` environment variable).
    pub tracing: bool,
    /// Idle limit for an interactive transaction: a session whose open
    /// transaction has not run a statement for this long is rolled back
    /// on its next use (abandoned `BEGIN`s must not pin snapshots — or
    /// MVCC version chains — forever).
    pub txn_timeout_ms: u64,
    /// Interval of the background metrics sampler feeding
    /// `SHOW HISTORY` and the incident triggers (0 disables it).
    pub sampler_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            queue_capacity: 64,
            slow_query_threshold_us: 100_000,
            slow_query_capacity: 32,
            tracing: false,
            txn_timeout_ms: 30_000,
            sampler_interval_ms: 1_000,
        }
    }
}

/// One statement captured by the slow-query log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The statement's cache key (rendered tokens: lowercased,
    /// single-spaced, comments dropped), so repeats are recognizable.
    pub sql: String,
    /// End-to-end service latency (admission excluded), microseconds.
    pub latency_us: u64,
    /// Session kind label: `public`, `user:<name>`, or `maintainer`.
    pub role: String,
    /// Root plan operator, or a statement-kind tag for uncached paths.
    pub plan: String,
    /// Which cache tier answered: `result`, `plan`, `miss`, or `bypass`.
    pub cache: &'static str,
}

/// Bounded log of the N slowest statements seen so far, slowest first.
#[derive(Debug)]
struct SlowQueryLog {
    entries: Mutex<Vec<SlowQuery>>,
    capacity: usize,
}

impl SlowQueryLog {
    fn new(capacity: usize) -> Self {
        SlowQueryLog { entries: Mutex::new(Vec::new()), capacity }
    }

    fn record(&self, q: SlowQuery) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock();
        entries.push(q);
        entries.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        entries.truncate(self.capacity);
    }

    fn snapshot(&self) -> Vec<SlowQuery> {
        self.entries.lock().clone()
    }
}

/// How a read statement was answered — feeds the slow-query log.
struct QueryPath {
    /// The plan a cached read executed; its label is rendered only if the
    /// statement turns out slow.
    plan: Option<Arc<Prepared>>,
    cache: CacheTier,
}

/// The transport-independent query engine front end.
pub struct QueryService {
    db: Arc<Database>,
    sessions: SessionManager,
    cache: StatementCache,
    metrics: Arc<Metrics>,
    slow_threshold_us: u64,
    slow_log: SlowQueryLog,
    fingerprints: FingerprintRegistry,
    history: MetricRing,
    recorder: IncidentRecorder,
    txn_timeout_ms: u64,
    /// Clock base for the reap rate limiter below.
    reap_epoch: Instant,
    /// Milliseconds (since `reap_epoch`) of the last global expired-txn
    /// sweep — a CAS gate so at most one statement per period pays for it.
    last_reap_ms: std::sync::atomic::AtomicU64,
}

impl QueryService {
    pub fn new(db: Arc<Database>, config: &ServerConfig) -> Self {
        let metrics = Arc::new(Metrics::default());
        if config.tracing {
            // Enable-only: never turn a GENALG_TRACE-enabled tracer off.
            genalg_obs::tracer().set_enabled(true);
        }
        QueryService {
            db,
            sessions: SessionManager::new(Arc::clone(&metrics)),
            cache: StatementCache::new(CACHE_CAPACITY),
            metrics,
            slow_threshold_us: config.slow_query_threshold_us,
            slow_log: SlowQueryLog::new(config.slow_query_capacity),
            fingerprints: FingerprintRegistry::new(FINGERPRINT_CAPACITY, PLAN_AUDIT_CAPACITY),
            history: MetricRing::new(DEFAULT_HISTORY_SLOTS),
            recorder: IncidentRecorder::new(incident_dir(), INCIDENT_MIN_INTERVAL),
            txn_timeout_ms: config.txn_timeout_ms,
            reap_epoch: Instant::now(),
            last_reap_ms: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Current contents of the slow-query log, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log.snapshot()
    }

    /// The workload registry: per-fingerprint statistics and the
    /// plan-change audit ring.
    pub fn fingerprints(&self) -> &FingerprintRegistry {
        &self.fingerprints
    }

    /// The metrics time-series ring behind `SHOW HISTORY`.
    pub fn history(&self) -> &MetricRing {
        &self.history
    }

    /// The incident flight recorder (bundle directory, rate limiting).
    pub fn recorder(&self) -> &IncidentRecorder {
        &self.recorder
    }

    /// One sampler tick: push the current snapshot into the history ring
    /// and run the automatic incident triggers on the resulting delta.
    /// Called by the background [`genalg_obs::Sampler`] the [`crate::Server`]
    /// spawns; public so tests and harnesses can tick deterministically.
    pub fn sample_tick(&self) {
        let delta = self.history.push(self.snapshot());
        if delta.value("server_worker_panics").unwrap_or(0) > 0 {
            self.record_incident("worker_panic");
        } else if delta.value("txn_conflicts").unwrap_or(0) >= CONFLICT_STORM_THRESHOLD {
            self.record_incident("conflict_storm");
        }
    }

    /// Write an incident bundle for `reason` through the rate limiter,
    /// returning the path if one was written.
    pub fn record_incident(&self, reason: &str) -> Option<std::path::PathBuf> {
        let bundle = self.incident_bundle(reason);
        self.recorder.record(&bundle, reason)
    }

    /// Assemble a self-contained diagnostic bundle: current stats, hottest
    /// fingerprints, plan-change tail, metric history for the headline
    /// rates, the slow-query log, and the trace-ring tail.
    pub fn incident_bundle(&self, reason: &str) -> IncidentBundle {
        // An idle server may never have ticked; force one sample so the
        // history section is never empty in a bundle.
        if self.history.is_empty() {
            self.sample_tick();
        }
        let mut bundle = IncidentBundle::new(reason);
        let stats = self
            .snapshot()
            .stats_rows()
            .into_iter()
            .map(|(name, value)| format!("{name} {value}"))
            .collect::<Vec<_>>()
            .join("\n");
        bundle.section("stats", stats);
        let fingerprints = self
            .fingerprints
            .top(10)
            .into_iter()
            .map(|fp| {
                format!(
                    "{} calls={} errors={} p95_us={} rows_out={} plan={} :: {}",
                    fp.id,
                    fp.executions,
                    fp.errors,
                    fp.latency.quantile_us(0.95),
                    fp.rows_out,
                    fp.plan_label,
                    fp.text
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        bundle.section("fingerprints", fingerprints);
        let changes = self
            .fingerprints
            .plan_changes()
            .into_iter()
            .map(|c| {
                format!(
                    "seq={} fp={} {}({} rows) -> {}({} rows) stats_gen={} catalog_gen={} :: {}",
                    c.seq,
                    c.fingerprint,
                    c.before_label,
                    c.before_est_rows,
                    c.after_label,
                    c.after_est_rows,
                    c.stats_generation,
                    c.catalog_generation,
                    c.text
                )
            })
            .collect::<Vec<_>>()
            .join("\n");
        bundle.section("plan changes", changes);
        let mut history = String::new();
        for metric in ["query_ok", "query_err", "txn_conflicts", "query_read_latency_p95_us"] {
            let series = self
                .history
                .history(metric)
                .into_iter()
                .map(|(slot, v)| format!("{slot}:{v}"))
                .collect::<Vec<_>>()
                .join(" ");
            if !series.is_empty() {
                history.push_str(&format!("{metric}: {series}\n"));
            }
        }
        bundle.section("history", history);
        let slow = self
            .slow_log
            .snapshot()
            .into_iter()
            .map(|q| format!("{}us [{}] {} :: {}", q.latency_us, q.cache, q.plan, q.sql))
            .collect::<Vec<_>>()
            .join("\n");
        bundle.section("slow queries", slow);
        let trace = genalg_obs::tracer()
            .spans()
            .into_iter()
            .map(|r| r.render())
            .collect::<Vec<_>>()
            .join("\n");
        bundle.section("trace", trace);
        bundle
    }

    /// Open a session of the given kind.
    pub fn open_session(&self, kind: SessionKind) -> SessionId {
        self.sessions.open(kind)
    }

    /// Close a session (idempotent). A transaction left open by the
    /// session is rolled back — a disconnecting client must not keep a
    /// snapshot pinned — and the return value says whether one was.
    pub fn close_session(&self, id: SessionId) -> bool {
        let Some(txn) = self.sessions.close(id) else { return false };
        let _ = self.db.txn_rollback(txn.id);
        true
    }

    /// Number of currently open sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.count()
    }

    /// Roll back every transaction whose session has been idle past the
    /// timeout, regardless of whether that session ever speaks again.
    /// Returns how many were reaped. Runs automatically (rate-limited)
    /// from the statement path; public so harnesses and tests can force a
    /// deterministic sweep.
    ///
    /// This closes the gap the lazy per-session check leaves open: a
    /// session shed with `Busy` mid-transaction never reaches the service,
    /// so nothing touches its idle clock — and if the client gives up (or
    /// its connection drops without a close frame), the per-session reap
    /// never fires and the transaction would pin its MVCC snapshot
    /// forever. The sweep reaps on *other* sessions' traffic instead.
    pub fn reap_expired_txns(&self) -> usize {
        // SessionId 0 is never issued, so nothing is exempt.
        self.reap_except(SessionId(0))
    }

    fn reap_except(&self, speaking: SessionId) -> usize {
        let expired = self.sessions.take_expired_txns(self.txn_timeout_ms, speaking);
        for txn in &expired {
            let _ = self.db.txn_rollback(txn.id);
        }
        if !expired.is_empty() {
            self.metrics.txn_reaped.fetch_add(expired.len() as u64, Ordering::Relaxed);
        }
        expired.len()
    }

    /// Rate-limited global sweep, paid for by at most one statement per
    /// period (a quarter of the timeout, clamped to [10 ms, 2 s]).
    fn maybe_reap(&self, speaking: SessionId) {
        let now_ms = self.reap_epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let period = (self.txn_timeout_ms / 4).clamp(10, 2_000);
        let last = self.last_reap_ms.load(Ordering::Relaxed);
        if now_ms.saturating_sub(last) < period {
            return;
        }
        // Losing the CAS means another statement is already sweeping.
        if self
            .last_reap_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.reap_except(speaking);
    }

    /// Execute one statement on behalf of a session that did not pass the
    /// admission gate (embedders and harnesses calling the service directly).
    pub fn execute(&self, session: SessionId, lang: Lang, text: &str) -> ServerResult<ResultSet> {
        self.execute_admitted(session, lang, text, 0)
    }

    /// Execute one statement that waited `queue_wait_us` for admission; the
    /// wait is attributed to the statement's fingerprint.
    pub fn execute_admitted(
        &self,
        session: SessionId,
        lang: Lang,
        text: &str,
        queue_wait_us: u64,
    ) -> ServerResult<ResultSet> {
        let result = self.execute_inner(session, lang, text, queue_wait_us);
        match &result {
            Ok(_) => {
                self.metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.metrics.queries_err.fetch_add(1, Ordering::Relaxed);
                // Storage faults are the operator's problem, not the
                // client's — count them separately so `SHOW STATS` makes a
                // sick disk visible.
                if matches!(e, ServerError::Db(DbError::Io(_))) {
                    self.metrics.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        result
    }

    fn execute_inner(
        &self,
        session: SessionId,
        lang: Lang,
        text: &str,
        queue_wait_us: u64,
    ) -> ServerResult<ResultSet> {
        let kind = self.sessions.kind(session).ok_or(ServerError::UnknownSession)?;
        // Abandoned transactions on *other* sessions are reaped by a
        // rate-limited global sweep riding on any statement (including the
        // SHOW family) — the owning session may never speak again (shed
        // with Busy mid-transaction, or its connection dropped), so its
        // own lazy check below would never run.
        self.maybe_reap(session);
        let tracer = genalg_obs::tracer();
        let sql = match lang {
            Lang::Sql => Cow::Borrowed(text),
            Lang::Bql => {
                let _span = tracer.span("server.parse_bql");
                let sql = genalg_bql::parse(text).and_then(|q| q.to_sql());
                Cow::Owned(sql.map_err(|e| ServerError::Bql(e.to_string()))?)
            }
        };
        // The statement's one lex: routing, cache key, fingerprint and
        // parse all read these tokens.
        let tokens = match lex(&sql) {
            Ok(tokens) => tokens,
            Err(e) => {
                // Still a statement on the query path: counted once, as an
                // error, under its raw text.
                self.fingerprints.record(&Execution {
                    normalized: &sql,
                    latency_us: 0,
                    ok: false,
                    tier: CacheTier::Bypass,
                    rows_out: 0,
                    pages_read: 0,
                    pages_skipped: 0,
                    queue_wait_us,
                });
                return Err(e.into());
            }
        };
        let stmt = statement_kind(&tokens);
        let (key, fingerprint) = render(&tokens);
        if stmt == StmtKind::Show {
            match key.as_str() {
                "show stats" => return Ok(self.stats_result()),
                "show metrics" => return Ok(self.metrics_result()),
                "show slow queries" => return Ok(self.slow_queries_result()),
                "show trace" => return Ok(self.trace_result()),
                "show workload" => return Ok(self.workload_result()),
                "show plan changes" => return Ok(self.plan_changes_result()),
                _ => {}
            }
            if let Some(metric) = key.strip_prefix("show history") {
                return self.history_result(metric.trim());
            }
        }
        // The speaking session's reaping stays lazy and inline: the
        // deadline is checked when it next speaks. An expired transaction
        // is rolled back and the statement that found it fails, so the
        // client learns its `BEGIN` is gone before anything half-applies.
        if let Some(txn) = self.sessions.txn(session) {
            let idle_ms = txn.last_used.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
            if idle_ms >= self.txn_timeout_ms {
                self.sessions.clear_txn(session);
                let _ = self.db.txn_rollback(txn.id);
                return Err(ServerError::Db(DbError::Txn(format!(
                    "transaction timed out after {idle_ms} ms idle (limit {} ms) and was \
                     rolled back",
                    self.txn_timeout_ms
                ))));
            }
        }
        let is_read = stmt.is_read();
        if !is_read && !kind.can_write() {
            return Err(ServerError::ReadOnly(
                "public sessions may only run SELECT / EXPLAIN / SHOW STATS".into(),
            ));
        }
        let role = kind.role();
        match stmt {
            StmtKind::Begin => {
                if self.sessions.txn(session).is_some() {
                    return Err(DbError::Txn("nested transactions are not supported".into()).into());
                }
                self.sessions.set_txn(session, self.db.txn_begin());
                return Ok(empty_result());
            }
            StmtKind::Commit | StmtKind::Rollback => {
                let verb = if stmt == StmtKind::Commit { "COMMIT" } else { "ROLLBACK" };
                let open = self.sessions.clear_txn(session);
                let txn = open.ok_or_else(|| DbError::Txn(format!("{verb} without BEGIN")))?;
                match stmt {
                    StmtKind::Commit => self.db.txn_commit(txn.id)?,
                    _ => self.db.txn_rollback(txn.id)?,
                }
                return Ok(empty_result());
            }
            _ => {}
        }
        let mut span = tracer.span("server.query");
        span.field("read", is_read);
        let mut path = QueryPath { plan: None, cache: CacheTier::Bypass };
        // Attribution inputs: the admission wait the caller measured, and
        // the engine's page counters before execution (deltas are
        // approximate under concurrency — shared counters attribute
        // *somebody's* pages to concurrent statements).
        let pages_before = (self.db.scan_pages_read(), self.db.scan_pages_skipped());
        let start = Instant::now();
        let txn = self.sessions.txn(session).map(|txn| txn.id);
        let result = if txn.is_none() && stmt == StmtKind::Select {
            let key =
                StatementKey { normalized_sql: key.clone(), space: role.default_space().into() };
            self.execute_cached(tokens, key, &fingerprint, &role, &mut path, span.id())
        } else {
            // A write, EXPLAIN, or a statement inside the session's
            // transaction (where a cached latest-state result would violate
            // snapshot isolation).
            let _exec = tracer.span_with_parent("server.execute", span.id());
            let outcome =
                parse_tokens(tokens).and_then(|parsed| self.db.run_stmt(txn, parsed, &role));
            if txn.is_some() {
                path.cache = CacheTier::Txn;
                self.sessions.touch_txn(session);
            }
            outcome.map_err(ServerError::Db)
        };
        let elapsed = start.elapsed();
        let hist = if is_read { &self.metrics.read_latency } else { &self.metrics.write_latency };
        hist.record(elapsed);
        let latency_us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        span.field("latency_us", latency_us);
        let rows_out = match &result {
            Ok(rs) if !rs.rows.is_empty() => rs.rows.len() as u64,
            Ok(rs) => rs.affected,
            Err(_) => 0,
        };
        self.fingerprints.record(&Execution {
            normalized: &fingerprint,
            latency_us,
            ok: result.is_ok(),
            tier: path.cache,
            rows_out,
            pages_read: self.db.scan_pages_read().saturating_sub(pages_before.0),
            pages_skipped: self.db.scan_pages_skipped().saturating_sub(pages_before.1),
            queue_wait_us,
        });
        if result.is_ok() && latency_us >= self.slow_threshold_us {
            self.slow_log.record(SlowQuery {
                plan: path.plan.map_or_else(|| statement_tag(&key), |p| p.root_label()),
                sql: key,
                latency_us,
                role: kind_label(&kind),
                cache: path.cache.label(),
            });
        }
        result
    }

    /// An autocommit `SELECT`, through the statement cache: one probe, and a
    /// parse only when a plan must be built.
    fn execute_cached(
        &self,
        tokens: Vec<Token>,
        key: StatementKey,
        fingerprint: &str,
        role: &unidb::Role,
        path: &mut QueryPath,
        parent: u64,
    ) -> ServerResult<ResultSet> {
        let tracer = genalg_obs::tracer();
        let lookup = {
            let _span = tracer.span_with_parent("server.cache_lookup", parent);
            let catalog_gen = self.db.catalog_generation();
            self.cache.lookup(&key, catalog_gen, |ids| self.db.table_versions(ids))
        };
        let mut cached_plan = match lookup {
            Lookup::Result(rs) => {
                self.metrics.result_cache_hits.fetch_add(1, Ordering::Relaxed);
                path.cache = CacheTier::Result;
                return Ok((*rs).clone());
            }
            Lookup::Plan(plan) => {
                self.metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                path.cache = CacheTier::Plan;
                Some(plan)
            }
            Lookup::Miss => None,
        };
        self.metrics.result_cache_misses.fetch_add(1, Ordering::Relaxed);
        let (mut tokens, mut stmt) = (Some(tokens), None);
        // Two attempts: a plan can go stale between lookup and execution if
        // DDL slips in; re-prepare once and retry before giving up.
        for attempt in 0..2 {
            let plan = match cached_plan.take() {
                Some(plan) => plan,
                None => {
                    self.metrics.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                    path.cache = CacheTier::Miss;
                    let _span = tracer.span_with_parent("server.plan", parent);
                    if let Some(tokens) = tokens.take() {
                        stmt = Some(parse_tokens(tokens)?);
                    }
                    Arc::new(self.db.prepare_stmt(stmt.as_ref().expect("parsed above"), role)?)
                }
            };
            path.plan = Some(Arc::clone(&plan));
            // Every planned execution reports its plan hash; the registry
            // records an audit entry only when the hash flips. The audit
            // carries the access path, not the root label — an index
            // swapping in under an unchanged root is the interesting case.
            self.fingerprints.observe_plan(
                fingerprint,
                plan.plan_hash(),
                &plan.access_label(),
                plan.estimated_rows(),
                plan.stats_generation(),
                plan.catalog_generation(),
            );
            // Version snapshot *before* execution: a write landing in the
            // window makes the cached entry miss (safe), never hit stale.
            let versions = self.db.table_versions(plan.table_ids());
            let outcome = {
                let _span = tracer.span_with_parent("server.execute", parent);
                self.db.execute_prepared(&plan)
            };
            match outcome {
                Ok(rs) => {
                    let _span = tracer.span_with_parent("server.cache_fill", parent);
                    self.cache.store(key, plan, Some((Arc::new(rs.clone()), versions)));
                    return Ok(rs);
                }
                Err(DbError::Stale(_)) if attempt == 0 => continue,
                Err(e) => {
                    // The plan stands even when its execution failed.
                    self.cache.store(key, plan, None);
                    return Err(ServerError::Db(e));
                }
            }
        }
        unreachable!("second attempt either returns or errors")
    }

    /// The one snapshot both `SHOW STATS` and `SHOW METRICS` render: the
    /// server's own registry plus the engine-level (`exec_*`, `wal_*`,
    /// `cache_*_entries`) and process-level (`etl_*`, `obs_*`)
    /// families. Public so harnesses can take phase baselines and diff
    /// them with [`Snapshot::delta_since`].
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        self.metrics.collect_into(&mut s);
        let (entries, results, plan_bytes, result_bytes) = self.cache.sizes();
        s.gauge("cache_plan_entries", entries as u64);
        s.gauge("cache_plan_bytes", plan_bytes as u64);
        s.gauge("cache_result_entries", results as u64);
        s.gauge("cache_result_bytes", result_bytes as u64);
        s.counter("exec_scan_pages_read", self.db.scan_pages_read());
        s.counter("exec_scan_pages_skipped", self.db.scan_pages_skipped());
        s.counter("exec_stats_rebuilt", self.db.stats_rebuilt());
        let wal = self.db.wal_stats();
        s.counter("wal_appends", wal.appends);
        s.counter("wal_syncs", wal.syncs);
        s.counter("wal_sync_failures", wal.sync_failures);
        let txn = self.db.txn_stats();
        s.counter("txn_begun", txn.begun);
        s.counter("txn_committed", txn.committed);
        s.counter("txn_aborted", txn.aborted);
        s.counter("txn_conflicts", txn.conflicts);
        s.counter("txn_versions_pruned", txn.versions_pruned);
        s.histogram("txn_duration", self.db.txn_duration());
        let etl = genalg_obs::etl_counters();
        let g = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        s.counter("etl_refresh_rounds", g(&etl.refresh_rounds));
        s.counter("etl_deltas", g(&etl.deltas));
        s.counter("etl_upserts", g(&etl.upserts));
        s.counter("etl_deletes", g(&etl.deletes));
        s.counter("etl_source_failures", g(&etl.source_failures));
        s.counter("etl_retries", g(&etl.retries));
        let tracer = genalg_obs::tracer();
        s.counter("obs_spans_recorded", tracer.recorded());
        s.counter("obs_spans_dropped", tracer.dropped());
        s.gauge("obs_tracing_enabled", u64::from(tracer.enabled()));
        s.gauge("obs_fingerprints", self.fingerprints.len() as u64);
        s.counter("obs_fingerprint_overflow", self.fingerprints.overflow());
        s.counter("obs_plan_changes", self.fingerprints.plan_change_count());
        s.gauge("obs_history_slots", self.history.len() as u64);
        s.counter("obs_incidents_written", self.recorder.written());
        // Per-fingerprint families carry only the stable 16-hex id as a
        // label (never the SQL text) so exposition output stays bounded;
        // the id → text mapping lives in `SHOW WORKLOAD`. Labeled samples
        // render in `SHOW METRICS` only — `stats_rows()` ignores them, so
        // the pinned golden stat-name list stays workload-independent.
        for fp in self.fingerprints.snapshot() {
            let labels: &[(&str, &str)] = &[("fingerprint", &fp.id)];
            s.labeled_counter("query_fingerprint_executions", labels, fp.executions);
            s.labeled_counter("query_fingerprint_errors", labels, fp.errors);
            s.labeled_counter("query_fingerprint_rows_out", labels, fp.rows_out);
        }
        s
    }

    /// `SHOW STATS` as a two-column result set, sorted by name (which
    /// groups counters by subsystem prefix).
    fn stats_result(&self) -> ResultSet {
        let rows = self
            .snapshot()
            .stats_rows()
            .into_iter()
            .map(|(name, value)| vec![Datum::Text(name), Datum::Int(value as i64)])
            .collect();
        ResultSet { columns: vec!["stat".into(), "value".into()], rows, affected: 0, explain: None }
    }

    /// `SHOW METRICS`: the same snapshot in Prometheus text exposition
    /// format, one line per row.
    fn metrics_result(&self) -> ResultSet {
        let text = self.snapshot().prometheus("genalg");
        let rows = text.lines().map(|l| vec![Datum::Text(l.to_string())]).collect();
        ResultSet { columns: vec!["metrics".into()], rows, affected: 0, explain: None }
    }

    /// `SHOW SLOW QUERIES`: the retained slowest statements, slowest first.
    fn slow_queries_result(&self) -> ResultSet {
        let rows = self
            .slow_log
            .snapshot()
            .into_iter()
            .map(|q| {
                vec![
                    Datum::Text(q.sql),
                    Datum::Int(q.latency_us as i64),
                    Datum::Text(q.role),
                    Datum::Text(q.plan),
                    Datum::Text(q.cache.to_string()),
                ]
            })
            .collect();
        ResultSet {
            columns: vec![
                "query".into(),
                "latency_us".into(),
                "role".into(),
                "plan".into(),
                "cache".into(),
            ],
            rows,
            affected: 0,
            explain: None,
        }
    }

    /// `SHOW WORKLOAD`: every tracked query fingerprint, hottest first —
    /// per-shape execution counts, latency quantiles, cache-tier hits, and
    /// cumulative resource attribution.
    fn workload_result(&self) -> ResultSet {
        let rows = self
            .fingerprints
            .snapshot()
            .into_iter()
            .map(|fp| {
                vec![
                    Datum::Text(fp.id),
                    Datum::Text(fp.text),
                    Datum::Int(fp.executions as i64),
                    Datum::Int(fp.errors as i64),
                    Datum::Int(fp.latency.quantile_us(0.5) as i64),
                    Datum::Int(fp.latency.quantile_us(0.95) as i64),
                    Datum::Int(fp.tiers[0] as i64),
                    Datum::Int(fp.tiers[1] as i64),
                    Datum::Int(fp.rows_out as i64),
                    Datum::Int(fp.pages_read as i64),
                    Datum::Int(fp.pages_skipped as i64),
                    Datum::Int(fp.queue_wait_us as i64),
                    Datum::Text(fp.plan_label),
                ]
            })
            .collect();
        ResultSet {
            columns: vec![
                "fingerprint".into(),
                "query".into(),
                "calls".into(),
                "errors".into(),
                "p50_us".into(),
                "p95_us".into(),
                "result_hits".into(),
                "plan_hits".into(),
                "rows_out".into(),
                "pages_read".into(),
                "pages_skipped".into(),
                "queue_wait_us".into(),
                "plan".into(),
            ],
            rows,
            affected: 0,
            explain: None,
        }
    }

    /// `SHOW PLAN CHANGES`: the plan-flip audit ring, oldest first — what
    /// the planner chose before and after, its row estimates, and the
    /// stats/catalog generations the new plan was built under.
    fn plan_changes_result(&self) -> ResultSet {
        let rows = self
            .fingerprints
            .plan_changes()
            .into_iter()
            .map(|c| {
                vec![
                    Datum::Int(c.seq as i64),
                    Datum::Text(c.fingerprint),
                    Datum::Text(c.text),
                    Datum::Text(c.before_label),
                    Datum::Text(c.after_label),
                    Datum::Text(format!("{:016x}", c.before_hash)),
                    Datum::Text(format!("{:016x}", c.after_hash)),
                    Datum::Int(c.before_est_rows as i64),
                    Datum::Int(c.after_est_rows as i64),
                    Datum::Int(c.stats_generation as i64),
                    Datum::Int(c.catalog_generation as i64),
                ]
            })
            .collect();
        ResultSet {
            columns: vec![
                "seq".into(),
                "fingerprint".into(),
                "query".into(),
                "before_plan".into(),
                "after_plan".into(),
                "before_hash".into(),
                "after_hash".into(),
                "before_est_rows".into(),
                "after_est_rows".into(),
                "stats_gen".into(),
                "catalog_gen".into(),
            ],
            rows,
            affected: 0,
            explain: None,
        }
    }

    /// `SHOW HISTORY <metric>`: the per-interval values of one metric from
    /// the sampler's ring, oldest slot first. Any name that appears in
    /// `SHOW STATS` works, including derived histogram rows.
    fn history_result(&self, metric: &str) -> ServerResult<ResultSet> {
        if metric.is_empty() {
            return Err(ServerError::Db(DbError::Unsupported(
                "SHOW HISTORY needs a metric name, e.g. SHOW HISTORY query_ok".into(),
            )));
        }
        // An idle or sampler-disabled server still answers: take one
        // sample on demand so the ring is never empty here.
        if self.history.is_empty() {
            self.sample_tick();
        }
        let series = self.history.history(metric);
        if series.is_empty() && !self.history.metric_names().iter().any(|n| n == metric) {
            return Err(ServerError::Db(DbError::Unsupported(format!(
                "unknown metric '{metric}' (try any SHOW STATS name, e.g. query_ok)"
            ))));
        }
        let rows = series
            .into_iter()
            .map(|(slot, v)| vec![Datum::Int(slot as i64), Datum::Int(v as i64)])
            .collect();
        Ok(ResultSet {
            columns: vec!["slot".into(), "value".into()],
            rows,
            affected: 0,
            explain: None,
        })
    }

    /// `SHOW TRACE`: the tracer's ring of finished spans, oldest first.
    /// Empty unless tracing is enabled (config or `GENALG_TRACE`).
    fn trace_result(&self) -> ResultSet {
        let rows = genalg_obs::tracer()
            .spans()
            .into_iter()
            .map(|r| vec![Datum::Text(r.render())])
            .collect();
        ResultSet { columns: vec!["span".into()], rows, affected: 0, explain: None }
    }
}

pub(crate) fn empty_result() -> ResultSet {
    ResultSet { columns: Vec::new(), rows: Vec::new(), affected: 0, explain: None }
}

/// Coarse statement tag for slow-log entries that never reach the planner
/// (writes, EXPLAIN, cache-bypass reads).
fn statement_tag(normalized: &str) -> String {
    normalized.split_whitespace().next().unwrap_or("statement").to_string()
}

fn kind_label(kind: &SessionKind) -> String {
    match kind {
        SessionKind::Public => "public".to_string(),
        SessionKind::User(name) => format!("user:{name}"),
        SessionKind::Maintainer => "maintainer".to_string(),
    }
}

/// Convenience: pull one named counter out of a `SHOW STATS` result.
pub fn stat_value(rs: &ResultSet, name: &str) -> Option<i64> {
    rs.rows.iter().find_map(|row| match (&row[0], &row[1]) {
        (Datum::Text(n), Datum::Int(v)) if n == name => Some(*v),
        _ => None,
    })
}
