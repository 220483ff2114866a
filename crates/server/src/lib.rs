//! # genalg-server — the concurrent query-service layer
//!
//! §5 of the paper puts the Unifying Database at the center of a *Genomics
//! Research Warehouse* that many researchers query at once: the public
//! space holds curated data every user reads, user spaces hold private
//! work, and the maintainer loads new releases. This crate is that service
//! tier — everything between a client connection and
//! [`unidb::Database::execute_as`]:
//!
//! * **sessions** ([`SessionManager`]) with the §5.1 role split: public
//!   (anonymous, read-only), user, maintainer;
//! * **bounded admission** ([`Admission`]): a statement runs on the thread
//!   that received it once it holds one of `workers` permits; a bounded
//!   number of callers may wait their turn, and a saturated server rejects
//!   with a structured [`ServerError::Busy`] carrying a retry hint instead
//!   of queueing unboundedly;
//! * **a statement cache** ([`cache`]): one LRU entry per lexed statement
//!   holds its plan and result, invalidated by the engine's catalog / table
//!   generation counters — repeated public-space queries (the warehouse's
//!   dominant workload) skip parse, plan, and execution;
//! * a **wire protocol** ([`protocol`]) of length-prefixed binary frames
//!   carrying SQL or BQL text out and tuple-encoded rows back, served over
//!   TCP ([`Server::listen`]) or in process ([`Server::client`]);
//! * **observability** — one [`genalg_obs::Snapshot`] feeds both
//!   `SHOW STATS` (counters, grouped by `<subsystem>_` prefix) and
//!   `SHOW METRICS` (Prometheus text exposition); `SHOW SLOW QUERIES`
//!   returns the N slowest statements with plan and cache attribution, and
//!   `SHOW TRACE` drains the structured span ring when tracing is on;
//! * a **workload observatory** — `SHOW WORKLOAD` lists per-fingerprint
//!   statistics (normalized query shapes with latency quantiles, cache-tier
//!   hits, and resource attribution), `SHOW PLAN CHANGES` renders the
//!   plan-flip audit ring, `SHOW HISTORY <metric>` reads the background
//!   sampler's per-second delta ring, and an incident flight recorder dumps
//!   self-contained diagnostic bundles to `target/incidents/` on worker
//!   panics, conflict storms, and load-harness SLO violations.
//!
//! The engine itself runs reads concurrently (shared read lock; see
//! [`unidb::Database`]), so the permits translate directly into parallel
//! SELECT throughput across connections.
//!
//! ```
//! use genalg_server::{Server, ServerConfig, SessionKind};
//! use std::sync::Arc;
//! use unidb::Database;
//!
//! let db = Arc::new(Database::in_memory());
//! db.execute("CREATE TABLE public.t (x INT)").ok();
//! let server = Server::new(db, &ServerConfig::default());
//! let client = server.client();
//! let session = client.open(SessionKind::Public);
//! let rs = client.query(session, "SELECT 1 + 1").unwrap();
//! assert_eq!(rs.rows[0][0], unidb::Datum::Int(2));
//! client.close(session);
//! ```

pub mod admission;
pub mod cache;
pub mod error;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;
pub mod session;

pub use admission::{Admission, Permit};
pub use cache::{normalize_sql, StatementKey};
pub use error::{ServerError, ServerResult};
pub use metrics::{Histogram, Metrics};
pub use protocol::{Lang, Request, Response};
pub use server::{Client, Server, ServerHandle, TcpClient};
pub use service::{stat_value, QueryService, ServerConfig, SlowQuery};
pub use session::{SessionId, SessionKind, SessionManager};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use unidb::{Database, Datum};

    fn seeded_server(config: &ServerConfig) -> Server {
        let db = Arc::new(Database::in_memory());
        db.execute_as("CREATE TABLE public.genes (id INT, name TEXT)", &unidb::Role::Maintainer)
            .unwrap();
        db.execute_as(
            "INSERT INTO public.genes VALUES (1, 'lacZ'), (2, 'recA'), (3, 'rpoB')",
            &unidb::Role::Maintainer,
        )
        .unwrap();
        Server::new(db, config)
    }

    #[test]
    fn end_to_end_select_in_process() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let rs = client.query(s, "SELECT name FROM public.genes WHERE id = 2").unwrap();
        assert_eq!(rs.rows, vec![vec![Datum::Text("recA".into())]]);
        client.close(s);
    }

    #[test]
    fn public_sessions_cannot_write() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let err = client.query(s, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap_err();
        assert!(matches!(err, ServerError::ReadOnly(_)), "got {err:?}");
        // User sessions hit the engine's ACL instead (public is curated).
        let u = client.open(SessionKind::User("alice".into()));
        let err = client.query(u, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::AccessDenied(_))), "got {err:?}");
        // The maintainer may write.
        let m = client.open(SessionKind::Maintainer);
        let rs = client.query(m, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();
        assert_eq!(rs.affected, 1);
    }

    #[test]
    fn repeated_query_hits_plan_and_result_cache() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let sql = "SELECT id, name FROM public.genes WHERE id <= 2";
        let first = client.query(s, sql).unwrap();
        // Same text modulo case/whitespace must share the cache entry.
        let second = client.query(s, "select  id, name from public.genes where id <= 2").unwrap();
        let third = client.query(s, sql).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, third);

        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "cache_result_hits"), Some(2));
        assert_eq!(stat_value(&stats, "cache_result_misses"), Some(1));
        assert_eq!(stat_value(&stats, "cache_plan_misses"), Some(1));
        assert_eq!(stat_value(&stats, "query_ok"), Some(3));
    }

    #[test]
    fn dml_invalidates_cached_results() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let reader = client.open(SessionKind::Public);
        let writer = client.open(SessionKind::Maintainer);
        let sql = "SELECT count(*) FROM public.genes";
        let before = client.query(reader, sql).unwrap();
        assert_eq!(before.rows[0][0], Datum::Int(3));
        client.query(writer, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();
        // The cached result must not survive the write.
        let after = client.query(reader, sql).unwrap();
        assert_eq!(after.rows[0][0], Datum::Int(4));
    }

    #[test]
    fn ddl_invalidates_cached_plans() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let m = client.open(SessionKind::Maintainer);
        let sql = "SELECT count(*) FROM public.genes";
        client.query(m, sql).unwrap();
        client.query(m, "CREATE TABLE public.other (x INT)").unwrap();
        // The plan was prepared under the old catalog; the service must
        // re-prepare transparently rather than surface a Stale error.
        let rs = client.query(m, sql).unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn bql_is_compiled_and_dispatched() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        // Invalid BQL surfaces as a typed Bql error.
        let err = client.query_bql(s, "FROB the database").unwrap_err();
        assert!(matches!(err, ServerError::Bql(_)), "got {err:?}");
        // Valid BQL compiles to SQL and reaches the engine; without the
        // warehouse schema installed the engine reports what is missing,
        // proving the text made it through compilation and dispatch.
        let err = client.query_bql(s, "COUNT sequences BY organism").unwrap_err();
        assert!(matches!(err, ServerError::Db(_)), "got {err:?}");
    }

    #[test]
    fn tcp_round_trip() {
        let server = seeded_server(&ServerConfig::default());
        let handle = server.listen("127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(handle.addr()).unwrap();
        let session = client.open(SessionKind::User("remote".into())).unwrap();
        let rs =
            client.query(session, Lang::Sql, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        assert_eq!(rs.rows, vec![vec![Datum::Text("lacZ".into())]]);
        // Errors travel as structured responses, not dropped connections.
        let err = client.query(session, Lang::Sql, "SELEC oops").unwrap_err();
        assert!(matches!(err, ServerError::Db(_)), "got {err:?}");
        // Unknown sessions are rejected.
        let err = client.query(9999, Lang::Sql, "SELECT 1").unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession), "got {err:?}");
        client.close(session).unwrap();
        handle.stop();
    }

    #[test]
    fn saturated_queue_returns_busy_to_clients() {
        // One permit, one waiting place: hold the permit, park a waiter,
        // then the next query must bounce with Busy — deterministically.
        let config = ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::Public);

        let held = server.admission().acquire().unwrap();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| client.query(s, "SELECT count(*) FROM public.genes"));
            while server.service().metrics().queue_depth.load(Ordering::Relaxed) != 1 {
                std::thread::yield_now();
            }
            let err = client.query(s, "SELECT 1").unwrap_err();
            match err {
                ServerError::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
                other => panic!("expected Busy, got {other:?}"),
            }
            // The server recovers as soon as the permit comes back: the
            // parked statement runs, and so does whatever comes next.
            drop(held);
            let rs = waiter.join().unwrap().unwrap();
            assert_eq!(rs.rows[0][0], Datum::Int(3));
        });
        // The rejection and the wait are visible in SHOW STATS.
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "server_rejected_busy"), Some(1));
        assert_eq!(stat_value(&stats, "server_queue_peak"), Some(1));
        assert_eq!(stat_value(&stats, "server_queue_depth"), Some(0));
    }

    /// A statement runs on the thread that asked: no hand-off to a pool.
    #[test]
    fn statements_execute_on_the_calling_thread() {
        let server = seeded_server(&ServerConfig::default());
        let ran_on = Arc::new(parking_lot::Mutex::new(None));
        let seen = Arc::clone(&ran_on);
        server
            .service()
            .database()
            .register_scalar(
                "whoami",
                Arc::new(move |_: &[Datum]| -> unidb::DbResult<Datum> {
                    *seen.lock() = Some(std::thread::current().id());
                    Ok(Datum::Int(1))
                }),
            )
            .unwrap();
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT whoami()").unwrap();
        assert_eq!(*ran_on.lock(), Some(std::thread::current().id()));
    }

    /// A panicking statement answers *its* caller with a structured error,
    /// is counted, gives its permit back, and the session carries on.
    #[test]
    fn panicking_statement_is_contained() {
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = seeded_server(&config);
        server
            .service()
            .database()
            .register_scalar(
                "boom",
                Arc::new(|_: &[Datum]| -> unidb::DbResult<Datum> { panic!("injected panic") }),
            )
            .unwrap();
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let err = client.query(s, "SELECT boom()").unwrap_err();
        assert!(matches!(err, ServerError::Io(_)), "got {err:?}");
        // The only permit came back: this would wait forever otherwise.
        let rs = client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(3));
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "server_worker_panics"), Some(1));
        assert_eq!(stat_value(&stats, "server_jobs_completed"), Some(1));
        // Submitted counts the SHOW STATS statement that is reading it.
        assert_eq!(stat_value(&stats, "server_jobs_submitted"), Some(3));
        assert_eq!(stat_value(&stats, "query_queue_wait_count"), Some(3));
    }

    /// Satellite: a connection may only name the sessions it opened. Ids
    /// are sequential, so anything less lets a `Public` client borrow a
    /// `Maintainer` session by guessing a small integer.
    #[test]
    fn sessions_belong_to_the_connection_that_opened_them() {
        let server = seeded_server(&ServerConfig::default());
        let handle = server.listen("127.0.0.1:0").unwrap();
        let mut owner = TcpClient::connect(handle.addr()).unwrap();
        let maintainer = owner.open(SessionKind::Maintainer).unwrap();
        let mut intruder = TcpClient::connect(handle.addr()).unwrap();
        intruder.open(SessionKind::Public).unwrap();

        let write = "INSERT INTO public.genes VALUES (4, 'gyrA')";
        let err = intruder.query(maintainer, Lang::Sql, write).unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession), "got {err:?}");
        let err = intruder.close(maintainer).unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession), "got {err:?}");
        // The owner's session is untouched and still works.
        assert_eq!(owner.query(maintainer, Lang::Sql, write).unwrap().affected, 1);
        owner.close(maintainer).unwrap();
        // Once closed, the id is gone for its former owner too.
        let err = owner.query(maintainer, Lang::Sql, "SELECT 1").unwrap_err();
        assert!(matches!(err, ServerError::UnknownSession), "got {err:?}");
        handle.stop();
    }

    /// Satellite: a connection that ends without `CloseSession` takes its
    /// sessions with it.
    #[test]
    fn dropped_connection_closes_its_sessions() {
        let server = seeded_server(&ServerConfig::default());
        let handle = server.listen("127.0.0.1:0").unwrap();
        let active = || server.service().metrics().active_sessions.load(Ordering::Relaxed);
        let before = active();
        {
            let mut doomed = TcpClient::connect(handle.addr()).unwrap();
            doomed.open(SessionKind::Public).unwrap();
            doomed.open(SessionKind::User("alice".into())).unwrap();
            assert_eq!(active(), before + 2);
            // Connection drops here — no CloseSession frame ever arrives.
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while active() != before {
            assert!(std::time::Instant::now() < deadline, "sessions outlived their connection");
            std::thread::yield_now();
        }
        assert_eq!(server.service().session_count(), before as usize);
        handle.stop();
    }

    /// Satellite: `SHOW STATS` rows group by subsystem prefix. The exact
    /// name list is the golden contract — adding a counter means updating
    /// this list *and* keeping its `<subsystem>_<name>` shape.
    #[test]
    fn show_stats_names_are_grouped_by_subsystem() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let stats = client.query(s, "SHOW STATS").unwrap();
        let names: Vec<String> = stats
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(n) => n.clone(),
                other => panic!("stat name should be text, got {other:?}"),
            })
            .collect();
        let golden = vec![
            "cache_plan_bytes",
            "cache_plan_entries",
            "cache_plan_hits",
            "cache_plan_misses",
            "cache_result_bytes",
            "cache_result_entries",
            "cache_result_hits",
            "cache_result_misses",
            "etl_deletes",
            "etl_deltas",
            "etl_refresh_rounds",
            "etl_retries",
            "etl_source_failures",
            "etl_upserts",
            "exec_scan_pages_read",
            "exec_scan_pages_skipped",
            "exec_stats_rebuilt",
            "obs_fingerprint_overflow",
            "obs_fingerprints",
            "obs_history_slots",
            "obs_incidents_written",
            "obs_plan_changes",
            "obs_spans_dropped",
            "obs_spans_recorded",
            "obs_tracing_enabled",
            "query_err",
            "query_ok",
            "query_queue_wait_count",
            "query_queue_wait_mean_us",
            "query_queue_wait_p50_us",
            "query_queue_wait_p95_us",
            "query_read_latency_count",
            "query_read_latency_mean_us",
            "query_read_latency_p50_us",
            "query_read_latency_p95_us",
            "query_write_latency_count",
            "query_write_latency_mean_us",
            "query_write_latency_p50_us",
            "query_write_latency_p95_us",
            "server_active_sessions",
            "server_io_errors",
            "server_jobs_completed",
            "server_jobs_submitted",
            "server_queue_depth",
            "server_queue_peak",
            "server_rejected_busy",
            "server_worker_panics",
            "txn_aborted",
            "txn_begun",
            "txn_committed",
            "txn_conflicts",
            "txn_duration_count",
            "txn_duration_mean_us",
            "txn_duration_p50_us",
            "txn_duration_p95_us",
            "txn_reaped",
            "txn_versions_pruned",
            "wal_appends",
            "wal_sync_failures",
            "wal_syncs",
        ];
        assert_eq!(names, golden, "SHOW STATS names changed — update the golden list");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "rows must stay lexicographically sorted");
    }

    #[test]
    fn show_metrics_emits_parseable_prometheus() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        let rs = client.query(s, "SHOW METRICS").unwrap();
        assert_eq!(rs.columns, vec!["metrics".to_string()]);
        let text: Vec<String> = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(l) => l.clone(),
                other => panic!("metrics line should be text, got {other:?}"),
            })
            .collect();
        let text = text.join("\n");
        assert!(text.contains("# TYPE genalg_query_ok counter"));
        assert!(text.contains("# TYPE genalg_query_read_latency_us histogram"));
        assert!(text.contains("genalg_query_read_latency_us_bucket{le=\"+Inf\"}"));
        // Every line is either a TYPE comment or `name{labels?} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(name.starts_with("genalg_"), "unprefixed family: {line}");
            assert!(value.parse::<u64>().is_ok(), "bad value: {line}");
        }
    }

    #[test]
    fn slow_queries_are_captured_with_attribution() {
        // Threshold 0: every successful statement counts as slow, so the
        // test needs no sleeps; capacity 2 exercises the bound.
        let config = ServerConfig {
            slow_query_threshold_us: 0,
            slow_query_capacity: 2,
            ..ServerConfig::default()
        };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::User("alice".into()));
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        let rs = client.query(s, "SHOW SLOW QUERIES").unwrap();
        assert_eq!(rs.columns, vec!["query", "latency_us", "role", "plan", "cache"]);
        assert_eq!(rs.rows.len(), 2, "log keeps only the slowest N");
        // Slowest first, and every entry carries full attribution.
        let lat = |row: &Vec<Datum>| match row[1] {
            Datum::Int(v) => v,
            _ => panic!("latency should be an int"),
        };
        assert!(lat(&rs.rows[0]) >= lat(&rs.rows[1]));
        for row in &rs.rows {
            assert_eq!(row[2], Datum::Text("user:alice".into()));
            match (&row[0], &row[3], &row[4]) {
                (Datum::Text(sql), Datum::Text(plan), Datum::Text(cache)) => {
                    assert!(sql.starts_with("select"), "normalized sql: {sql}");
                    assert!(!plan.is_empty());
                    assert!(["result", "plan", "miss", "bypass"].contains(&cache.as_str()));
                }
                other => panic!("bad slow-query row: {other:?}"),
            }
        }
        // SHOW statements themselves never land in the log.
        let again = client.query(s, "SHOW SLOW QUERIES").unwrap();
        assert!(again
            .rows
            .iter()
            .all(|r| !matches!(&r[0], Datum::Text(q) if q.starts_with("show"))));
    }

    /// Tentpole: interactive BEGIN/COMMIT/ROLLBACK over the wire. A
    /// transaction pins its session, its buffered writes stay invisible to
    /// other sessions (and to the result cache) until COMMIT, and ROLLBACK
    /// discards them.
    #[test]
    fn wire_transactions_begin_commit_rollback() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let writer = client.open(SessionKind::Maintainer);
        let reader = client.open(SessionKind::Public);
        let count_sql = "SELECT count(*) FROM public.genes";

        client.query(writer, "BEGIN").unwrap();
        client.query(writer, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();
        // The writer sees its own buffered insert; the reader must not —
        // and its (cacheable) count must stay pinned at the committed state.
        let own = client.query(writer, count_sql).unwrap();
        assert_eq!(own.rows[0][0], Datum::Int(4));
        let other = client.query(reader, count_sql).unwrap();
        assert_eq!(other.rows[0][0], Datum::Int(3));
        client.query(writer, "COMMIT").unwrap();
        // COMMIT advances the commit epoch, so the cached count is stale
        // and the reader observes the new row.
        let after = client.query(reader, count_sql).unwrap();
        assert_eq!(after.rows[0][0], Datum::Int(4));

        // ROLLBACK discards buffered work without a trace.
        client.query(writer, "BEGIN").unwrap();
        client.query(writer, "DELETE FROM public.genes WHERE id = 4").unwrap();
        client.query(writer, "ROLLBACK").unwrap();
        let still = client.query(reader, count_sql).unwrap();
        assert_eq!(still.rows[0][0], Datum::Int(4));

        let stats = client.query(reader, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "txn_begun"), Some(2));
        assert_eq!(stat_value(&stats, "txn_committed"), Some(1));
        assert_eq!(stat_value(&stats, "txn_aborted"), Some(1));
        assert_eq!(stat_value(&stats, "txn_conflicts"), Some(0));
    }

    /// Satellite: transaction-control misuse and write-write conflicts
    /// travel the TCP wire as structured, exactly-typed errors — never as
    /// dropped connections.
    #[test]
    fn txn_misuse_and_conflicts_are_structured_over_tcp() {
        let server = seeded_server(&ServerConfig::default());
        let handle = server.listen("127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(handle.addr()).unwrap();
        let a = client.open(SessionKind::Maintainer).unwrap();
        let b = client.open(SessionKind::Maintainer).unwrap();

        // COMMIT / ROLLBACK without BEGIN are structured Txn errors.
        let err = client.query(a, Lang::Sql, "COMMIT").unwrap_err();
        assert!(
            matches!(&err, ServerError::Db(unidb::DbError::Txn(m)) if m == "COMMIT without BEGIN"),
            "got {err:?}"
        );
        let err = client.query(a, Lang::Sql, "ROLLBACK").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Txn(_))), "got {err:?}");

        // Nested BEGIN on the same session is rejected, txn survives.
        client.query(a, Lang::Sql, "BEGIN").unwrap();
        let err = client.query(a, Lang::Sql, "begin").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Txn(_))), "got {err:?}");

        // Two sessions race an update of the same row: the first committer
        // wins, the loser's COMMIT decodes as a retryable Conflict.
        client.query(b, Lang::Sql, "BEGIN").unwrap();
        client.query(a, Lang::Sql, "UPDATE public.genes SET name = 'a' WHERE id = 1").unwrap();
        client.query(b, Lang::Sql, "UPDATE public.genes SET name = 'b' WHERE id = 1").unwrap();
        client.query(a, Lang::Sql, "COMMIT").unwrap();
        let err = client.query(b, Lang::Sql, "COMMIT").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Conflict(_))), "got {err:?}");
        let rs = client.query(a, Lang::Sql, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        assert_eq!(rs.rows, vec![vec![Datum::Text("a".into())]]);

        // Public sessions cannot open transactions at all.
        let p = client.open(SessionKind::Public).unwrap();
        let err = client.query(p, Lang::Sql, "BEGIN").unwrap_err();
        assert!(matches!(err, ServerError::ReadOnly(_)), "got {err:?}");
        handle.stop();
    }

    /// Transaction control is recognised from the parsed statement, so a
    /// comment, odd case or a stray semicolon still opens and closes the
    /// *session's* transaction — never the engine's database-wide ambient
    /// one, which would swallow every other session's writes.
    #[test]
    fn commented_transaction_control_stays_in_its_session() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let a = client.open(SessionKind::Maintainer);
        let b = client.open(SessionKind::Maintainer);
        let count_sql = "SELECT count(*) FROM public.genes";

        client.query(a, "BEGIN -- x").unwrap();
        client.query(a, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();
        // b is not inside a's transaction: its insert commits on the spot
        // and b reads it back.
        let rs = client.query(b, "INSERT INTO public.genes VALUES (5, 'dnaA')").unwrap();
        assert_eq!(rs.affected, 1);
        assert_eq!(client.query(b, count_sql).unwrap().rows[0][0], Datum::Int(4));
        assert_eq!(client.query(a, count_sql).unwrap().rows[0][0], Datum::Int(4), "3 + its own");

        // a's rollback discards a's work only.
        client.query(a, "-- y\n  RollBack ;").unwrap();
        assert_eq!(client.query(a, count_sql).unwrap().rows[0][0], Datum::Int(4));
        let err = client.query(b, "ROLLBACK -- nothing open here").unwrap_err();
        assert!(
            matches!(&err, ServerError::Db(unidb::DbError::Txn(m)) if m == "ROLLBACK without BEGIN"),
            "got {err:?}"
        );

        client.query(b, "begin;").unwrap();
        client.query(b, "DELETE FROM public.genes WHERE id = 5").unwrap();
        client.query(b, "COMMIT -- done").unwrap();
        assert_eq!(client.query(a, count_sql).unwrap().rows[0][0], Datum::Int(3));
        let stats = client.query(a, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "txn_begun"), Some(2));
        assert_eq!(stat_value(&stats, "txn_committed"), Some(1));
        assert_eq!(stat_value(&stats, "txn_aborted"), Some(1));
    }

    /// Reads and writes are told apart by the statement's first keyword
    /// after comments, not by the first word of its text: a comment-led
    /// `SELECT` is a read a public session may run and the caches serve,
    /// and a `SHOW` with a trailing comment is still a `SHOW`.
    #[test]
    fn comment_led_reads_are_reads() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let public = client.open(SessionKind::Public);
        let sql = "-- note\nSELECT name FROM public.genes WHERE id = 1";
        for _ in 0..2 {
            let rs = client.query(public, sql).unwrap();
            assert_eq!(rs.rows, vec![vec![Datum::Text("lacZ".into())]]);
        }
        let stats = client.query(public, "SHOW STATS -- x").unwrap();
        assert_eq!(stat_value(&stats, "cache_result_hits"), Some(1), "the repeat is a hit");
        assert_eq!(stat_value(&stats, "query_read_latency_count"), Some(2));

        let maintainer = client.open(SessionKind::Maintainer);
        client.query(maintainer, "  -- a\n-- b\n select count(*) FROM public.genes").unwrap();
        let stats = client.query(maintainer, "-- x\nshow stats;").unwrap();
        assert_eq!(stat_value(&stats, "cache_result_misses"), Some(2));
        assert_eq!(stat_value(&stats, "query_read_latency_count"), Some(3));
        assert_eq!(stat_value(&stats, "query_write_latency_count"), Some(0));
        // A write behind a comment is still a write.
        let err = client.query(public, "-- SELECT\nDELETE FROM public.genes").unwrap_err();
        assert!(matches!(err, ServerError::ReadOnly(_)), "got {err:?}");

        // An apostrophe in a comment must not fold the case of a literal
        // into a shared cache key, wherever the comment stands.
        for sql in [
            "-- user's query\nSELECT id FROM public.genes WHERE name = '{}'",
            "SELECT id -- user's query\nFROM public.genes WHERE name = '{}'",
        ] {
            let found = client.query(public, &sql.replace("{}", "lacZ")).unwrap();
            assert_eq!(found.rows, vec![vec![Datum::Int(1)]]);
            let none = client.query(public, &sql.replace("{}", "LACZ")).unwrap();
            assert!(none.rows.is_empty(), "{sql:?} served {:?}", none.rows);
        }
    }

    /// A statement that panics inside a session's transaction is contained
    /// by admission — and must leave the transaction where `ROLLBACK`, a
    /// closing session and the reaper can still end it.
    #[test]
    fn a_panicking_statement_does_not_wedge_its_transaction() {
        let db = Arc::new(Database::in_memory());
        db.execute_as("CREATE TABLE public.t (k INT, v INT)", &unidb::Role::Maintainer).unwrap();
        db.execute_as("INSERT INTO public.t VALUES (1, 10)", &unidb::Role::Maintainer).unwrap();
        db.register_scalar("boom", Arc::new(|_| panic!("boom() always panics"))).unwrap();
        let server = Server::new(db, &ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Maintainer);

        client.query(s, "BEGIN").unwrap();
        let err = client.query(s, "SELECT boom() FROM public.t").unwrap_err();
        assert!(matches!(err, ServerError::Io(_)), "got {err:?}");
        client.query(s, "ROLLBACK").expect("the transaction is still there to roll back");

        // Same again, ended by the session closing instead.
        client.query(s, "BEGIN").unwrap();
        client.query(s, "SELECT boom() FROM public.t").unwrap_err();
        client.close(s);

        let s = client.open(SessionKind::Maintainer);
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "server_worker_panics"), Some(2));
        assert_eq!(stat_value(&stats, "txn_begun"), Some(2));
        assert_eq!(stat_value(&stats, "txn_aborted"), Some(2));
        // Nothing is left pinning versions: autocommit churn prunes none.
        for i in 0..20 {
            client.query(s, &format!("UPDATE public.t SET v = {i} WHERE k = 1")).unwrap();
        }
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "txn_versions_pruned"), Some(0));
    }

    /// Satellite: an abandoned transaction is reaped lazily — the next
    /// statement finds it expired, the engine rolls it back, and the
    /// session learns via a structured Txn error.
    #[test]
    fn abandoned_transactions_time_out_and_roll_back() {
        let config = ServerConfig { txn_timeout_ms: 0, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let m = client.open(SessionKind::Maintainer);
        client.query(m, "BEGIN").unwrap();
        let err = client.query(m, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap_err();
        assert!(
            matches!(&err, ServerError::Db(unidb::DbError::Txn(msg)) if msg.contains("timed out")),
            "got {err:?}"
        );
        // The pin is gone: COMMIT now reports there is nothing to commit,
        // and no buffered work leaked into the table.
        let err = client.query(m, "COMMIT").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Txn(_))), "got {err:?}");
        let rs = client.query(m, "SELECT count(*) FROM public.genes").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(3));
    }

    /// Closing (or dropping) a session rolls back its open transaction.
    #[test]
    fn closing_a_session_rolls_back_its_transaction() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let m = client.open(SessionKind::Maintainer);
        client.query(m, "BEGIN").unwrap();
        client.query(m, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();
        client.close(m);
        let s = client.open(SessionKind::Public);
        let rs = client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(3));
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "txn_aborted"), Some(1));
    }

    /// Tentpole: `SHOW WORKLOAD` collapses literal-differing statements
    /// into one fingerprint with cumulative attribution.
    #[test]
    fn show_workload_groups_statements_by_fingerprint() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        client.query(s, "SELECT name FROM public.genes WHERE id = 2").unwrap();
        client.query(s, "SELECT name FROM public.genes WHERE id = 2").unwrap();
        let rs = client.query(s, "SHOW WORKLOAD").unwrap();
        assert_eq!(rs.columns[0], "fingerprint");
        let row = rs
            .rows
            .iter()
            .find(|r| {
                matches!(&r[1], Datum::Text(q) if q == "select name from public.genes where id = ?")
            })
            .expect("literal-differing statements share one fingerprint");
        assert_eq!(row[2], Datum::Int(3), "calls");
        assert_eq!(row[3], Datum::Int(0), "errors");
        // Third execution repeated the second's text, so the result cache
        // answered it.
        assert_eq!(row[6], Datum::Int(1), "result_hits");
        // Rows out accumulate across executions (one row each).
        assert_eq!(row[8], Datum::Int(3), "rows_out");
        match &row[0] {
            Datum::Text(id) => {
                assert_eq!(id.len(), 16, "fingerprint id is 16 hex digits: {id}");
                assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
            }
            other => panic!("fingerprint should be text, got {other:?}"),
        }
        // Errors are attributed too (same shape, bad table ⇒ new shape;
        // use a failing statement of the *same* shape instead: a type
        // error inside the where clause still parses the same text).
        // SHOW statements themselves never register.
        assert!(rs.rows.iter().all(|r| !matches!(&r[1], Datum::Text(q) if q.starts_with("show"))));
    }

    /// Tentpole: DDL that flips a fingerprint's plan (seq scan → index
    /// scan) lands in the audit ring with both sides attributed.
    #[test]
    fn show_plan_changes_records_plan_flips() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let m = client.open(SessionKind::Maintainer);
        let sql = "SELECT name FROM public.genes WHERE id = 2";
        client.query(m, sql).unwrap();
        let before = client.query(m, "SHOW PLAN CHANGES").unwrap();
        assert!(before.rows.is_empty(), "no flip yet");
        client.query(m, "CREATE INDEX ON public.genes (id)").unwrap();
        client.query(m, sql).unwrap();
        let rs = client.query(m, "SHOW PLAN CHANGES").unwrap();
        assert_eq!(rs.rows.len(), 1, "exactly one flip recorded");
        let row = &rs.rows[0];
        assert_eq!(row[0], Datum::Int(1), "seq");
        match (&row[3], &row[4], &row[5], &row[6]) {
            (
                Datum::Text(before_plan),
                Datum::Text(after_plan),
                Datum::Text(before_hash),
                Datum::Text(after_hash),
            ) => {
                assert_ne!(before_plan, after_plan, "plan label changed");
                assert!(after_plan.contains("Index"), "index plan after DDL: {after_plan}");
                assert_ne!(before_hash, after_hash);
            }
            other => panic!("bad plan-change row: {other:?}"),
        }
        // Re-running the same (now stable) plan adds nothing.
        client.query(m, sql).unwrap();
        let again = client.query(m, "SHOW PLAN CHANGES").unwrap();
        assert_eq!(again.rows.len(), 1);
        let stats = client.query(m, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "obs_plan_changes"), Some(1));
    }

    /// Creating a domain index is DDL: it moves the catalog generation, so
    /// a `contains` statement cached (result and plan) before the k-mer index
    /// is attached is re-planned onto it, and the flip is audited.
    #[test]
    fn attaching_a_domain_index_replans_cached_statements() {
        let db = Arc::new(Database::in_memory());
        let adapter = genalg_adapter::Adapter::install(&db).unwrap();
        db.execute_as("CREATE TABLE public.frags (id INT, s dna)", &unidb::Role::Maintainer)
            .unwrap();
        let rows: Vec<String> = (0..200)
            .map(|i| {
                let motif = if i % 10 == 0 { "ATTGCCATAGGC" } else { "CCCCCCCCCCCC" };
                let filler = ["ACGTTGCA", "GGCATTCA", "TTAGCCGA", "CAGTACGT"][i % 4];
                format!("({i}, dna('{filler}{motif}{filler}'))")
            })
            .collect();
        let insert = format!("INSERT INTO public.frags VALUES {}", rows.join(","));
        db.execute_as(&insert, &unidb::Role::Maintainer).unwrap();
        let server = Server::new(Arc::clone(&db), &ServerConfig::default());
        let client = server.client();
        let m = client.open(SessionKind::Maintainer);
        let sql = "SELECT id FROM public.frags WHERE contains(s, 'ATTGCCATAGGC')";
        let scanned = client.query(m, sql).unwrap();
        assert_eq!(scanned.rows.len(), 20);
        assert_eq!(client.query(m, sql).unwrap().rows, scanned.rows, "served from the cache");
        assert!(client.query(m, "SHOW PLAN CHANGES").unwrap().rows.is_empty());

        adapter.attach_kmer_index(&db, "public.frags", "s", 8).unwrap();
        assert_eq!(client.query(m, sql).unwrap().rows, scanned.rows);
        let changes = client.query(m, "SHOW PLAN CHANGES").unwrap();
        assert_eq!(changes.rows.len(), 1, "{changes:?}");
        match (&changes.rows[0][3], &changes.rows[0][4]) {
            (Datum::Text(before), Datum::Text(after)) => {
                assert!(before.starts_with("SeqScan"), "{before}");
                assert!(after.starts_with("UdiScan"), "{after}");
            }
            other => panic!("bad plan-change row: {other:?}"),
        }
    }

    /// Tentpole: `SHOW HISTORY <metric>` reads the sampler ring; an
    /// explicit tick makes the test deterministic (no background timing).
    #[test]
    fn show_history_returns_per_slot_deltas() {
        // Sampler off: ticks happen only where the test forces them.
        let config = ServerConfig { sampler_interval_ms: 0, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        server.service().sample_tick();
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        client.query(s, "SELECT name FROM public.genes WHERE id = 2").unwrap();
        server.service().sample_tick();
        let rs = client.query(s, "SHOW HISTORY query_ok").unwrap();
        assert_eq!(rs.columns, vec!["slot".to_string(), "value".to_string()]);
        assert_eq!(rs.rows.len(), 2);
        // First slot holds everything since start (1 query), the second
        // the delta between ticks (2 queries).
        assert_eq!(rs.rows[0], vec![Datum::Int(1), Datum::Int(1)]);
        assert_eq!(rs.rows[1], vec![Datum::Int(2), Datum::Int(2)]);
        // Derived histogram rows work too.
        let hist = client.query(s, "SHOW HISTORY query_read_latency_count").unwrap();
        assert_eq!(hist.rows.len(), 2);
        // Unknown metrics fail with a hint; a bare SHOW HISTORY also fails.
        let err = client.query(s, "SHOW HISTORY no_such_metric").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Unsupported(_))), "got {err:?}");
        let err = client.query(s, "SHOW HISTORY").unwrap_err();
        assert!(matches!(err, ServerError::Db(unidb::DbError::Unsupported(_))), "got {err:?}");
    }

    /// Even with the sampler disabled and no prior tick, `SHOW HISTORY`
    /// self-primes rather than returning an empty ring.
    #[test]
    fn show_history_self_primes_an_idle_ring() {
        let config = ServerConfig { sampler_interval_ms: 0, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let rs = client.query(s, "SHOW HISTORY query_ok").unwrap();
        assert_eq!(rs.rows.len(), 1, "on-demand tick primes the ring");
    }

    /// Satellite: per-fingerprint Prometheus families carry the stable id
    /// as a label and render under one `# TYPE` line per family.
    #[test]
    fn show_metrics_carries_per_fingerprint_labels() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        client.query(s, "SELECT name FROM public.genes WHERE id = 7").unwrap();
        let rs = client.query(s, "SHOW METRICS").unwrap();
        let text = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(l) => l.as_str(),
                other => panic!("metrics line should be text, got {other:?}"),
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(text.matches("# TYPE genalg_query_fingerprint_executions counter").count(), 1);
        let sample = text
            .lines()
            .find(|l| l.starts_with("genalg_query_fingerprint_executions{fingerprint=\""))
            .expect("labeled executions sample");
        let (_, value) = sample.rsplit_once(' ').unwrap();
        // Both literal variants collapsed into one fingerprint's counter.
        assert_eq!(value.parse::<u64>().unwrap(), 2);
        // SHOW STATS stays label-free: no per-fingerprint rows leak in.
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert!(stats
            .rows
            .iter()
            .all(|r| !matches!(&r[0], Datum::Text(n) if n.contains("fingerprint{"))));
    }

    /// Satellite: the caches report their heap footprint in bytes, and the
    /// gauge moves with the cached payload.
    #[test]
    fn cache_byte_gauges_track_cached_payload() {
        let server = seeded_server(&ServerConfig::default());
        let client = server.client();
        let s = client.open(SessionKind::Public);
        let stats = client.query(s, "SHOW STATS").unwrap();
        assert_eq!(stat_value(&stats, "cache_plan_bytes"), Some(0));
        assert_eq!(stat_value(&stats, "cache_result_bytes"), Some(0));
        client.query(s, "SELECT id, name FROM public.genes").unwrap();
        let stats = client.query(s, "SHOW STATS").unwrap();
        let plan_bytes = stat_value(&stats, "cache_plan_bytes").unwrap();
        let result_bytes = stat_value(&stats, "cache_result_bytes").unwrap();
        assert!(plan_bytes > 0, "cached plan accounts bytes");
        // 3 rows × (one Datum-sized int cell + a text cell with payload).
        assert!(result_bytes > 0, "cached result accounts bytes");
        assert!(
            stat_value(&stats, "cache_plan_entries") == Some(1)
                && stat_value(&stats, "cache_result_entries") == Some(1)
        );
    }

    /// Tentpole: an incident bundle assembles every observatory section.
    #[test]
    fn incident_bundle_contains_all_sections() {
        let config = ServerConfig { sampler_interval_ms: 0, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT name FROM public.genes WHERE id = 1").unwrap();
        let bundle = server.service().incident_bundle("test_reason");
        assert_eq!(
            bundle.section_titles(),
            vec!["stats", "fingerprints", "plan changes", "history", "slow queries", "trace"]
        );
        let text = bundle.render();
        assert!(text.starts_with("incident: test_reason"));
        assert!(text.contains("select name from public.genes where id = ?"));
        // The history section self-primed even though no sampler ran.
        assert!(text.contains("query_ok: 1:"), "history series present:\n{text}");
    }

    #[test]
    fn show_trace_surfaces_spans_when_tracing_enabled() {
        let config = ServerConfig { tracing: true, ..ServerConfig::default() };
        let server = seeded_server(&config);
        let client = server.client();
        let s = client.open(SessionKind::Public);
        client.query(s, "SELECT count(*) FROM public.genes").unwrap();
        let rs = client.query(s, "SHOW TRACE").unwrap();
        assert_eq!(rs.columns, vec!["span".to_string()]);
        let spans: Vec<String> = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Datum::Text(t) => t.clone(),
                other => panic!("span row should be text, got {other:?}"),
            })
            .collect();
        assert!(
            spans.iter().any(|l| l.starts_with("server.query")),
            "expected a server.query span in {spans:?}"
        );
        assert!(
            spans.iter().any(|l| l.starts_with("exec.query")),
            "expected an exec.query span in {spans:?}"
        );
    }
}
