//! Stress: many sessions hammering one server with a mixed
//! SELECT / INSERT / UPDATE workload. Checks three properties:
//!
//! * **no deadlocks** — the test completes (threads join);
//! * **no lost updates** — every INSERT lands, every UPDATE increment is
//!   reflected in the final counter;
//! * **result-cache coherence** — readers hitting the cached count never
//!   observe it going backwards, and the final cached read equals the true
//!   row count.

use genalg_server::{stat_value, Server, ServerConfig, ServerError, SessionKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use unidb::{Database, Datum, Role};

const WRITERS: usize = 4;
const READERS: usize = 4;
const OPS_PER_WRITER: i64 = 50;

fn retrying<T>(mut f: impl FnMut() -> Result<T, ServerError>) -> T {
    loop {
        match f() {
            Ok(v) => return v,
            Err(ServerError::Busy { retry_after_ms }) => {
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(5)));
            }
            Err(e) => panic!("unexpected server error: {e}"),
        }
    }
}

#[test]
fn mixed_workload_under_contention() {
    let db = Arc::new(Database::in_memory());
    db.execute_script_as(
        "CREATE TABLE public.events (tid INT, seq INT);
         CREATE TABLE public.counters (id INT, n INT);
         INSERT INTO public.counters VALUES (0, 0);",
        &Role::Maintainer,
    )
    .unwrap();
    let config = ServerConfig { workers: 8, queue_capacity: 128, ..ServerConfig::default() };
    let server = Server::new(Arc::clone(&db), &config);
    let client = server.client();

    let done = Arc::new(AtomicBool::new(false));

    // 4 writer sessions: interleave inserts with read-modify-write updates.
    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let client = client.clone();
            std::thread::spawn(move || {
                let s = client.open(SessionKind::Maintainer);
                for seq in 0..OPS_PER_WRITER {
                    retrying(|| {
                        client.query(s, &format!("INSERT INTO public.events VALUES ({tid}, {seq})"))
                    });
                    retrying(|| {
                        client.query(s, "UPDATE public.counters SET n = n + 1 WHERE id = 0")
                    });
                }
                client.close(s);
            })
        })
        .collect();

    // 4 reader sessions: the same two queries over and over, so most runs
    // come from the result cache. Coherence check: counts never regress.
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let client = client.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let s = client.open(SessionKind::Public);
                let mut last_events = 0i64;
                let mut last_counter = 0i64;
                let mut observations = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let rs = retrying(|| client.query(s, "SELECT count(*) FROM public.events"));
                    let events = rs.rows[0][0].as_int().unwrap();
                    let rs =
                        retrying(|| client.query(s, "SELECT n FROM public.counters WHERE id = 0"));
                    let counter = rs.rows[0][0].as_int().unwrap();
                    assert!(events >= last_events, "events regressed: {events} < {last_events}");
                    assert!(
                        counter >= last_counter,
                        "counter regressed: {counter} < {last_counter}"
                    );
                    last_events = events;
                    last_counter = counter;
                    observations += 1;
                }
                client.close(s);
                observations
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread panicked (deadlock or lost update?)");
    }
    done.store(true, Ordering::Relaxed);
    let mut total_observations = 0;
    for r in readers {
        total_observations += r.join().expect("reader thread panicked");
    }
    assert!(total_observations > 0, "readers never observed anything");

    // No lost updates, through the same (possibly cached) read path.
    let s = client.open(SessionKind::Public);
    let expected = (WRITERS as i64) * OPS_PER_WRITER;
    let rs = retrying(|| client.query(s, "SELECT count(*) FROM public.events"));
    assert_eq!(rs.rows[0][0], Datum::Int(expected), "lost INSERTs");
    let rs = retrying(|| client.query(s, "SELECT n FROM public.counters WHERE id = 0"));
    assert_eq!(rs.rows[0][0], Datum::Int(expected), "lost UPDATE increments");
    // Per-writer rows all present.
    for tid in 0..WRITERS {
        let rs = retrying(|| {
            client.query(s, &format!("SELECT count(*) FROM public.events WHERE tid = {tid}"))
        });
        assert_eq!(rs.rows[0][0], Datum::Int(OPS_PER_WRITER), "writer {tid} lost rows");
    }

    // The cache did real work during the run and agrees with the engine:
    // bypassing the service gives the same counts.
    let stats = retrying(|| client.query(s, "SHOW STATS"));
    assert!(stat_value(&stats, "query_ok").unwrap() > 0);
    let direct = db.execute("SELECT count(*) FROM public.events").unwrap();
    assert_eq!(direct.rows[0][0], Datum::Int(expected));
}

#[test]
fn sixteen_concurrent_readonly_sessions_complete() {
    // 16 read-only sessions each running a scan-heavy query repeatedly;
    // exercises the shared read lock end to end.
    let db = Arc::new(Database::in_memory());
    db.execute_as("CREATE TABLE public.seqs (id INT, gc FLOAT)", &Role::Maintainer).unwrap();
    for chunk in 0..4 {
        let rows: Vec<String> = (0..64)
            .map(|i| {
                let id = chunk * 64 + i;
                format!("({id}, 0.{:02})", id % 100)
            })
            .collect();
        db.execute_as(
            &format!("INSERT INTO public.seqs VALUES {}", rows.join(", ")),
            &Role::Maintainer,
        )
        .unwrap();
    }
    let config = ServerConfig { workers: 16, queue_capacity: 64, ..ServerConfig::default() };
    let server = Server::new(db, &config);
    let client = server.client();
    let handles: Vec<_> = (0..16)
        .map(|t| {
            let client = client.clone();
            std::thread::spawn(move || {
                let s = client.open(SessionKind::Public);
                for i in 0..20 {
                    // A distinct bound per statement: every one misses the
                    // statement cache and runs through the engine.
                    let bound = t * 20 + i;
                    let rs = retrying(|| {
                        client.query(
                            s,
                            &format!(
                                "SELECT count(*) FROM public.seqs WHERE gc > 0.25 AND id < {bound}"
                            ),
                        )
                    });
                    let want = (0..bound.min(256)).filter(|id| id % 100 > 25).count();
                    assert_eq!(rs.rows, vec![vec![Datum::Int(want as i64)]], "id < {bound}");
                }
                client.close(s);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = client.open(SessionKind::Public);
    let stats = retrying(|| client.query(s, "SHOW STATS"));
    assert_eq!(stat_value(&stats, "cache_result_hits"), Some(0));
}
