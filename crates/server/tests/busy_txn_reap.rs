//! The Busy-mid-transaction pin bug (ISSUE 7 satellite): admission
//! rejection happens *before* a statement reaches the service, so a
//! session shed with `Busy` inside an open transaction never touches its
//! transaction's idle clock — and the old lazy, per-session reap only ran
//! when that same session spoke again. A client that gave up after Busy
//! (or whose connection dropped without a close frame) left its
//! transaction pinning an MVCC snapshot forever.
//!
//! The fix is the global sweep ([`genalg_server::QueryService::
//! reap_expired_txns`]): *any* session's traffic reaps other sessions'
//! expired transactions, rate-limited so at most one statement per period
//! pays for the scan.

use genalg_server::{stat_value, Lang, Server, ServerConfig, ServerError, SessionKind, TcpClient};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unidb::{Database, Datum, Role};

fn seeded_server(config: &ServerConfig) -> Server {
    let db = Arc::new(Database::in_memory());
    db.execute_script_as(
        "CREATE TABLE public.genes (id INT, name TEXT);
         INSERT INTO public.genes VALUES (1, 'lacZ'), (2, 'recA'), (3, 'rpoB');",
        &Role::Maintainer,
    )
    .unwrap();
    Server::new(db, config)
}

/// Full end-to-end repro: a transaction whose owner was shed with `Busy`
/// and never returns is reaped by other sessions' traffic.
#[test]
fn busy_shed_mid_transaction_is_reaped_by_other_traffic() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        txn_timeout_ms: 50,
        ..ServerConfig::default()
    };
    let server = seeded_server(&config);
    let client = server.client();

    // Session A opens a transaction and buffers a write.
    let a = client.open(SessionKind::Maintainer);
    client.query(a, "BEGIN").unwrap();
    client.query(a, "INSERT INTO public.genes VALUES (4, 'gyrA')").unwrap();

    // Saturate the gate: hold the only permit, park a caller in the only
    // waiting place.
    let held = server.admission().acquire().unwrap();
    std::thread::scope(|scope| {
        let parked = scope.spawn(|| {
            let s = client.open(SessionKind::Public);
            client.query(s, "SELECT 1").unwrap();
        });
        while server.service().metrics().queue_depth.load(Ordering::Relaxed) != 1 {
            std::thread::yield_now();
        }
        // A's next in-transaction statement is shed at admission — it never
        // reaches the service, so nothing touches the transaction's idle
        // clock. A gives up here: no COMMIT, no ROLLBACK, no close.
        let err = client.query(a, "INSERT INTO public.genes VALUES (5, 'rpoC')").unwrap_err();
        assert!(matches!(err, ServerError::Busy { .. }), "got {err:?}");
        drop(held);
        parked.join().unwrap();
    });

    // Other sessions keep talking. Once A's transaction has sat idle past
    // the timeout, their traffic must reap it — A never speaks again.
    let b = client.open(SessionKind::Public);
    let deadline = Instant::now() + Duration::from_secs(10);
    let reaped = loop {
        std::thread::sleep(Duration::from_millis(20));
        let stats = client.query(b, "SHOW STATS").unwrap();
        if stat_value(&stats, "txn_reaped") == Some(1) {
            break stats;
        }
        assert!(Instant::now() < deadline, "transaction was never reaped: {stats:?}");
    };
    assert_eq!(stat_value(&reaped, "txn_begun"), Some(1));
    assert_eq!(stat_value(&reaped, "txn_aborted"), Some(1));
    assert_eq!(stat_value(&reaped, "txn_committed"), Some(0));

    // The buffered insert died with the transaction...
    let rs = client.query(b, "SELECT count(*) FROM public.genes").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(3));
    // ...and the engine is fully open for new writers on the same rows.
    let w = client.open(SessionKind::Maintainer);
    client.query(w, "BEGIN").unwrap();
    client.query(w, "UPDATE public.genes SET name = 'fresh' WHERE id = 1").unwrap();
    client.query(w, "COMMIT").unwrap();
    let rs = client.query(b, "SELECT name FROM public.genes WHERE id = 1").unwrap();
    assert_eq!(rs.rows, vec![vec![Datum::Text("fresh".into())]]);
}

/// A TCP connection that drops mid-transaction without a close frame is
/// the same leak through a different door: no close, no further
/// statements, nothing to trigger the per-session check.
#[test]
fn dropped_connection_mid_transaction_is_reaped() {
    let config = ServerConfig { txn_timeout_ms: 50, ..ServerConfig::default() };
    let server = seeded_server(&config);
    let handle = server.listen("127.0.0.1:0").unwrap();

    {
        let mut doomed = TcpClient::connect(handle.addr()).unwrap();
        let s = doomed.open(SessionKind::Maintainer).unwrap();
        doomed.query(s, Lang::Sql, "BEGIN").unwrap();
        doomed.query(s, Lang::Sql, "DELETE FROM public.genes WHERE id = 2").unwrap();
        // Connection drops here — no CloseSession frame ever arrives.
    }

    let mut survivor = TcpClient::connect(handle.addr()).unwrap();
    let s = survivor.open(SessionKind::Public).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let stats = survivor.query(s, Lang::Sql, "SHOW STATS").unwrap();
        if stat_value(&stats, "txn_reaped") == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "dropped connection's txn never reaped");
    }
    // The buffered delete is gone with its transaction.
    let rs = survivor.query(s, Lang::Sql, "SELECT count(*) FROM public.genes").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(3));
    handle.stop();
}

/// The public sweep API reaps deterministically without waiting for
/// traffic, doesn't touch unexpired transactions, and is idempotent.
#[test]
fn explicit_sweep_reaps_only_expired_transactions() {
    let config = ServerConfig { txn_timeout_ms: 40, ..ServerConfig::default() };
    let server = seeded_server(&config);
    let client = server.client();

    let stale = client.open(SessionKind::Maintainer);
    client.query(stale, "BEGIN").unwrap();
    client.query(stale, "INSERT INTO public.genes VALUES (10, 'stale')").unwrap();

    // Not yet expired: the sweep must leave it alone.
    assert_eq!(server.service().reap_expired_txns(), 0);

    // No traffic while the transaction ages past the timeout, so only the
    // explicit call below can reap it.
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(server.service().reap_expired_txns(), 1);
    assert_eq!(server.service().reap_expired_txns(), 0, "sweep is idempotent");

    // The stale session learns its transaction is gone on next use, and
    // its buffered insert never landed.
    let err = client.query(stale, "COMMIT").unwrap_err();
    assert!(matches!(err, ServerError::Db(unidb::DbError::Txn(_))), "got {err:?}");
    let r = client.open(SessionKind::Public);
    let rs = client.query(r, "SELECT count(*) FROM public.genes").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(3));

    // A fresh transaction on the same table commits cleanly afterwards.
    let live = client.open(SessionKind::Maintainer);
    client.query(live, "BEGIN").unwrap();
    client.query(live, "INSERT INTO public.genes VALUES (11, 'live')").unwrap();
    client.query(live, "COMMIT").unwrap();
    let rs = client.query(r, "SELECT count(*) FROM public.genes").unwrap();
    assert_eq!(rs.rows[0][0], Datum::Int(4));
}
