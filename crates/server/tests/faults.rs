//! Graceful degradation under storage faults: a session whose statement
//! hits an injected IO error gets a structured [`ServerError::Db`] reply,
//! the worker pool stays healthy, other sessions keep being served, and
//! once the "disk" recovers the same server accepts writes again — no
//! restart required.

use genalg_server::{stat_value, Server, ServerConfig, ServerError, SessionKind};
use std::path::Path;
use std::sync::Arc;
use unidb::{Database, DbError, FaultConfig, FaultVfs};

fn faulty_server(vfs: &FaultVfs) -> Server {
    vfs.disarm();
    let db = Database::open_with_vfs(Path::new("/srvdb"), Arc::new(vfs.clone()))
        .expect("open with faults disarmed");
    db.recover().expect("recover with faults disarmed");
    db.execute_as("CREATE TABLE public.genes (id INT, name TEXT)", &unidb::Role::Maintainer)
        .unwrap();
    db.execute_as("INSERT INTO public.genes VALUES (1, 'lacZ')", &unidb::Role::Maintainer).unwrap();
    Server::new(Arc::new(db), &ServerConfig { workers: 2, ..ServerConfig::default() })
}

#[test]
fn io_faults_degrade_to_structured_errors_not_dead_workers() {
    let vfs = FaultVfs::new(FaultConfig::transient(0x5E4E));
    let server = faulty_server(&vfs);
    let client = server.client();
    let writer = client.open(SessionKind::Maintainer);
    let reader = client.open(SessionKind::Public);

    // Hammer writes with faults armed: some fail, and every failure must
    // surface as the engine's structured Io error — never a panic, a hung
    // worker, or a dropped session.
    vfs.arm();
    let mut io_errors = 0;
    for i in 0..120 {
        match client.query(writer, &format!("INSERT INTO public.genes VALUES ({}, 'g{i}')", i + 2))
        {
            Ok(_) => {}
            Err(ServerError::Db(DbError::Io(_))) => io_errors += 1,
            Err(other) => panic!("expected structured Io error, got {other:?}"),
        }
    }
    assert!(io_errors > 0, "fault config injected nothing; test proves nothing");

    // A different session still gets answers while the disk is bad — reads
    // are served from the in-memory heaps and caches.
    let rs = client.query(reader, "SELECT count(*) FROM public.genes").unwrap();
    assert!(rs.rows[0][0].as_int().unwrap() >= 1);

    // The fault counter is operator-visible.
    let stats = client.query(reader, "SHOW STATS").unwrap();
    assert_eq!(stat_value(&stats, "server_io_errors"), Some(io_errors));
    assert_eq!(stat_value(&stats, "server_worker_panics"), Some(0));

    // Disk recovers: the same server, same sessions, writes flow again.
    vfs.disarm();
    let rs = client.query(writer, "INSERT INTO public.genes VALUES (9999, 'post')").unwrap();
    assert_eq!(rs.affected, 1);
    let rs = client.query(reader, "SELECT name FROM public.genes WHERE id = 9999").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn database_reopens_cleanly_after_service_under_faults() {
    let vfs = FaultVfs::new(FaultConfig::transient(0xC0FF));
    let mut ok_ids = Vec::new();
    {
        let server = faulty_server(&vfs);
        let client = server.client();
        let writer = client.open(SessionKind::Maintainer);
        vfs.arm();
        for i in 0..80i64 {
            if client
                .query(writer, &format!("INSERT INTO public.genes VALUES ({}, 'x')", i + 2))
                .is_ok()
            {
                ok_ids.push(i + 2);
            }
        }
        vfs.disarm();
    } // server drops; pool drains

    // A fresh open on the surviving image recovers every acknowledged row.
    let db = Database::open_with_vfs(Path::new("/srvdb"), Arc::new(vfs.clone())).unwrap();
    db.recover().unwrap();
    for id in &ok_ids {
        let rs = db.execute(&format!("SELECT id FROM public.genes WHERE id = {id}")).unwrap();
        assert_eq!(rs.rows.len(), 1, "acknowledged insert of id {id} lost after reopen");
    }
}
