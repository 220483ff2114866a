//! Two invariants of the server under concurrent wire traffic, each driven
//! by several [`TcpClient`]s against one server listening on loopback:
//!
//! * **Conflicting increments lose no update.** Clients loop `BEGIN` /
//!   `UPDATE … SET v = v + 1` on one of four hot keys / `COMMIT`. First
//!   committer wins and the losers' transactions abort, so afterwards
//!   `sum(v)` is exactly the number of successful commits — no lost
//!   update, no double apply — and the server has counted the conflicts
//!   (one pair is interleaved on purpose, so there is always one).
//! * **An ETL refresh is never seen half done.** Two maintainers replace
//!   whole organisms (`DELETE` + reload in one transaction) over disjoint
//!   organisms while readers count the table: in autocommit, twice inside
//!   one snapshot, and once more in a snapshot taken before the storm.
//!   Every refresh keeps the row count, so every read must see all of it.

use genalg_server::{
    stat_value, Lang, Server, ServerConfig, ServerError, ServerHandle, SessionKind, TcpClient,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unidb::{Database, DbError, ResultSet, Role};

/// A server over a database seeded by `script`, listening on an ephemeral
/// loopback port until the handle drops.
fn serve(script: &str) -> (Server, ServerHandle) {
    let db = Arc::new(Database::in_memory());
    db.execute_script_as(script, &Role::Maintainer).unwrap();
    let server = Server::new(db, &ServerConfig::default());
    let handle = server.listen("127.0.0.1:0").unwrap();
    (server, handle)
}

/// One connection with one open session.
struct Conn {
    tcp: TcpClient,
    session: u64,
}

impl Conn {
    fn open(addr: SocketAddr, kind: SessionKind) -> Conn {
        let mut tcp = TcpClient::connect(addr).unwrap();
        let session = tcp.open(kind).unwrap();
        Conn { tcp, session }
    }

    /// Run `sql`, again while admission sheds it (a shed statement never
    /// reached the session, so repeating it is safe).
    fn run(&mut self, sql: &str) -> Result<ResultSet, ServerError> {
        loop {
            match self.tcp.query(self.session, Lang::Sql, sql) {
                Err(ServerError::Busy { .. }) => std::thread::sleep(Duration::from_millis(1)),
                other => return other,
            }
        }
    }

    fn int(&mut self, sql: &str) -> i64 {
        let rs = self.run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        rs.rows[0][0].as_int().unwrap_or_else(|| panic!("{sql}: {:?}", rs.rows))
    }
}

fn is_conflict(e: &ServerError) -> bool {
    matches!(e, ServerError::Db(DbError::Conflict(_)))
}

const HOT_KEYS: u64 = 4;
const TXN_CLIENTS: u64 = 4;
const TXN_CYCLES: u64 = 60;

#[test]
fn conflicting_increments_lose_no_update() {
    let (_server, handle) = serve(
        "CREATE TABLE public.hot (k INT, v INT);
         INSERT INTO public.hot VALUES (0, 0), (1, 0), (2, 0), (3, 0);
         CREATE UNIQUE INDEX ON public.hot (k);",
    );
    let addr = handle.addr();
    // One conflict for certain: two transactions interleaved on key 0, the
    // second to commit loses.
    let (mut first, mut second) =
        (Conn::open(addr, SessionKind::Maintainer), Conn::open(addr, SessionKind::Maintainer));
    let bump = "UPDATE public.hot SET v = v + 1 WHERE k = 0";
    for conn in [&mut first, &mut second] {
        conn.run("BEGIN").unwrap();
        conn.run(bump).unwrap();
    }
    first.run("COMMIT").unwrap();
    assert!(second.run("COMMIT").is_err_and(|e| is_conflict(&e)));
    let (commits, conflicts) = (AtomicU64::new(1), AtomicU64::new(1));
    std::thread::scope(|scope| {
        for client in 0..TXN_CLIENTS {
            let (commits, conflicts) = (&commits, &conflicts);
            scope.spawn(move || {
                let mut conn = Conn::open(addr, SessionKind::Maintainer);
                let mut rng = StdRng::seed_from_u64(client);
                for _ in 0..TXN_CYCLES {
                    conn.run("BEGIN").unwrap();
                    let k = rng.gen_range(0..HOT_KEYS);
                    match conn.run(&format!("UPDATE public.hot SET v = v + 1 WHERE k = {k}")) {
                        // COMMIT ends the transaction whether it wins or loses.
                        Ok(_) => match conn.run("COMMIT") {
                            Ok(_) => commits.fetch_add(1, Ordering::Relaxed),
                            Err(e) if is_conflict(&e) => conflicts.fetch_add(1, Ordering::Relaxed),
                            Err(e) => panic!("COMMIT: {e}"),
                        },
                        // A statement that meets a row committed after the
                        // snapshot dooms the transaction; roll it back.
                        Err(e) if is_conflict(&e) => {
                            conn.run("ROLLBACK").unwrap();
                            conflicts.fetch_add(1, Ordering::Relaxed)
                        }
                        Err(e) => panic!("UPDATE: {e}"),
                    };
                }
            });
        }
    });
    let (commits, conflicts) = (commits.into_inner(), conflicts.into_inner());
    assert!(commits > 1, "no looping transaction committed");
    let mut conn = Conn::open(addr, SessionKind::Public);
    let total = conn.int("SELECT sum(v) FROM public.hot");
    assert_eq!(
        total, commits as i64,
        "sum(v) is {total} after {commits} committed increments ({conflicts} conflicts)"
    );
    let stats = conn.run("SHOW STATS").unwrap();
    let counted = stat_value(&stats, "txn_conflicts").unwrap();
    assert!(counted > 0, "clients saw {conflicts} conflicts the server never counted");
}

const ORGANISMS: u64 = 8;
const PER_ORGANISM: u64 = 250;
const GENES: i64 = (ORGANISMS * PER_ORGANISM) as i64;
const WAVES: u64 = 6;
const READERS: usize = 2;
const MIN_READS: u64 = 12;

/// `INSERT` of one organism's rows for one load (`wave` 0 is the seed).
fn organism_rows(organism: u64, wave: u64) -> String {
    let rows: Vec<String> = (0..PER_ORGANISM)
        .map(|i| {
            let id = (wave * ORGANISMS + organism) * PER_ORGANISM + i;
            format!("({id}, 'g{id:07}', 'org{organism}', {})", 100 + id * 37 % 9_900)
        })
        .collect();
    format!("INSERT INTO public.genes VALUES {}", rows.join(", "))
}

#[test]
fn etl_refresh_storm_is_never_seen_half_done() {
    let mut script =
        String::from("CREATE TABLE public.genes (id INT, name TEXT, organism TEXT, len INT);\n");
    for organism in 0..ORGANISMS {
        script.push_str(&organism_rows(organism, 0));
        script.push_str(";\n");
    }
    let (_server, handle) = serve(&script);
    let addr = handle.addr();
    let (waves_committed, maintainers_done) = (AtomicU64::new(0), AtomicUsize::new(0));
    let count = "SELECT count(*) FROM public.genes";
    // A snapshot taken before the storm and read again after it: every
    // wave commits between the two reads.
    let mut pinned = Conn::open(addr, SessionKind::User("reader".into()));
    pinned.run("BEGIN").unwrap();
    assert_eq!(pinned.int(count), GENES);
    std::thread::scope(|scope| {
        for maintainer in 0..2 {
            let (waves_committed, maintainers_done) = (&waves_committed, &maintainers_done);
            scope.spawn(move || {
                // Each maintainer owns half the organisms.
                let mut conn = Conn::open(addr, SessionKind::Maintainer);
                for wave in 1..=WAVES {
                    let organism = maintainer * ORGANISMS / 2 + wave % (ORGANISMS / 2);
                    conn.run("BEGIN").unwrap();
                    let wrote = conn
                        .run(&format!("DELETE FROM public.genes WHERE organism = 'org{organism}'"))
                        .and_then(|_| conn.run(&organism_rows(organism, wave)));
                    match wrote.and_then(|_| conn.run("COMMIT")) {
                        Ok(_) => {
                            waves_committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) if is_conflict(&e) => {
                            // Doomed mid-wave: still open; lost at COMMIT: ended.
                            let _ = conn.run("ROLLBACK");
                        }
                        Err(e) => panic!("refresh of org{organism}: {e}"),
                    }
                }
                maintainers_done.fetch_add(1, Ordering::Relaxed);
            });
        }
        for _ in 0..READERS {
            let maintainers_done = &maintainers_done;
            scope.spawn(move || {
                let mut conn = Conn::open(addr, SessionKind::User("reader".into()));
                let mut reads = 0;
                while reads < MIN_READS || maintainers_done.load(Ordering::Relaxed) < 2 {
                    assert_eq!(conn.int(count), GENES, "autocommit read {reads}");
                    // Two reads in one snapshot, so refreshes commit between
                    // the snapshot and its reads.
                    conn.run("BEGIN").unwrap();
                    assert_eq!(conn.int(count), GENES, "snapshot read {reads}");
                    assert_eq!(conn.int(count), GENES, "second snapshot read {reads}");
                    conn.run("COMMIT").unwrap();
                    reads += 1;
                }
            });
        }
    });
    assert!(waves_committed.into_inner() > 0, "no refresh wave committed");
    assert_eq!(pinned.int(count), GENES, "the snapshot taken before the storm");
    pinned.run("COMMIT").unwrap();
    let mut conn = Conn::open(addr, SessionKind::Public);
    assert_eq!(conn.int(count), GENES);
    let per_organism = conn
        .run("SELECT organism, count(*) FROM public.genes GROUP BY organism ORDER BY organism")
        .unwrap();
    assert_eq!(per_organism.rows.len(), ORGANISMS as usize);
    for row in &per_organism.rows {
        assert_eq!(row[1].as_int(), Some(PER_ORGANISM as i64), "{row:?}");
    }
}
