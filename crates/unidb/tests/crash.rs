//! Property-style crash-recovery harness: randomized workloads against a
//! model table, swept across fault seeds and crash points.
//!
//! The property checked is **prefix consistency**: after a crash (or a run
//! of transient IO faults) and a fresh `Database::open` + `recover()` on
//! the surviving disk image, the recovered table must equal the model
//! state after some prefix of the workload — at least every operation
//! that returned `Ok` (autocommit syncs, so `Ok` means durable), with
//! explicit transactions applied atomically and uncommitted work
//! invisible. Secondary indexes must come back consistent with the heap,
//! and a domain index must come back at all — from the snapshot or the WAL
//! tail, with nothing but `recover()` — answering as a scan does.
//!
//! Every fault decision derives from a seed, so a failing (seed, crash
//! point) pair from the CI fault matrix reproduces exactly. The sweep is
//! sharded via `FAULT_SEED_START` / `FAULT_SEED_COUNT`; failing seeds are
//! appended to `target/fault-matrix/failing-seeds.txt` for artifact
//! upload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use unidb::catalog::Role;
use unidb::storage::wal::{read_log, WalRecord};
use unidb::{Database, DbError, FaultConfig, FaultVfs};

mod parity;
use parity::register_parity;

const DB_DIR: &str = "/crashdb";
const OPS_PER_WORKLOAD: usize = 40;

/// The model: id → val, mirroring `public.t (id INT, val TEXT)`.
type Model = BTreeMap<i64, String>;

/// One generated workload step.
#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: i64,
        val: String,
    },
    Update {
        id: i64,
        val: String,
    },
    Delete {
        id: i64,
    },
    /// One multi-row `INSERT`.
    InsertMany(Vec<(i64, String)>),
    /// One `UPDATE` of every row with `lo <= id <= hi`.
    UpdateRange {
        lo: i64,
        hi: i64,
        val: String,
    },
    /// One `DELETE` of every row with `lo <= id <= hi`.
    DeleteRange {
        lo: i64,
        hi: i64,
    },
    /// BEGIN; inner ops; COMMIT — applied atomically or not at all.
    Txn(Vec<Op>),
}

impl Op {
    fn apply_to(&self, model: &mut Model) {
        match self {
            Op::Insert { id, val } | Op::Update { id, val } => {
                model.insert(*id, val.clone());
            }
            Op::Delete { id } => {
                model.remove(id);
            }
            Op::InsertMany(rows) => model.extend(rows.iter().cloned()),
            Op::UpdateRange { lo, hi, val } => {
                model.range_mut(lo..=hi).for_each(|(_, v)| v.clone_from(val));
            }
            Op::DeleteRange { lo, hi } => model.retain(|id, _| !(lo..=hi).contains(&id)),
            Op::Txn(ops) => ops.iter().for_each(|op| op.apply_to(model)),
        }
    }

    fn sql(&self) -> Vec<String> {
        match self {
            Op::Insert { id, val } => {
                vec![format!("INSERT INTO public.t VALUES ({id}, '{val}')")]
            }
            Op::Update { id, val } => {
                vec![format!("UPDATE public.t SET val = '{val}' WHERE id = {id}")]
            }
            Op::Delete { id } => vec![format!("DELETE FROM public.t WHERE id = {id}")],
            Op::InsertMany(rows) => {
                let tuples: Vec<String> =
                    rows.iter().map(|(id, val)| format!("({id}, '{val}')")).collect();
                vec![format!("INSERT INTO public.t VALUES {}", tuples.join(", "))]
            }
            Op::UpdateRange { lo, hi, val } => {
                vec![format!("UPDATE public.t SET val = '{val}' WHERE id >= {lo} AND id <= {hi}")]
            }
            Op::DeleteRange { lo, hi } => {
                vec![format!("DELETE FROM public.t WHERE id >= {lo} AND id <= {hi}")]
            }
            Op::Txn(ops) => {
                let mut stmts = vec!["BEGIN".to_string()];
                stmts.extend(ops.iter().flat_map(Op::sql));
                stmts.push("COMMIT".to_string());
                stmts
            }
        }
    }
}

/// Deterministically generate a workload from a seed: single-row statements
/// targeted by unique id, and multi-row `INSERT`/`UPDATE`/`DELETE`s. The
/// model applies each statement whole — a statement of any width either
/// fully applies or leaves no trace, also across a crash, and a recovered
/// state that holds part of one matches no model prefix.
fn generate_workload(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut next_id = 0i64;
    let mut live: Vec<i64> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    let single = |rng: &mut StdRng, next_id: &mut i64, live: &mut Vec<i64>| {
        let roll: f64 = rng.gen();
        let mut fresh = |rng: &mut StdRng, live: &mut Vec<i64>| {
            let id = *next_id;
            *next_id += 1;
            live.push(id);
            (id, format!("v{id}-{}", rng.gen_range(0..1000)))
        };
        if live.is_empty() || roll < 0.45 {
            let (id, val) = fresh(rng, live);
            Op::Insert { id, val }
        } else if roll < 0.55 {
            Op::InsertMany((0..rng.gen_range(2..=4)).map(|_| fresh(rng, live)).collect())
        } else if roll < 0.72 {
            let id = live[rng.gen_range(0..live.len())];
            Op::Update { id, val: format!("u{id}-{}", rng.gen_range(0..1000)) }
        } else if roll < 0.8 {
            let lo = live[rng.gen_range(0..live.len())];
            let val = format!("r{lo}-{}", rng.gen_range(0..1000));
            Op::UpdateRange { lo, hi: lo + rng.gen_range(1..=5), val }
        } else if roll < 0.93 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            Op::Delete { id }
        } else {
            let lo = live[rng.gen_range(0..live.len())];
            let hi = lo + rng.gen_range(1..=3);
            live.retain(|id| !(lo..=hi).contains(id));
            Op::DeleteRange { lo, hi }
        }
    };
    while ops.len() < len {
        if rng.gen_bool(0.15) {
            let n = rng.gen_range(2..=4);
            let inner: Vec<Op> =
                (0..n).map(|_| single(&mut rng, &mut next_id, &mut live)).collect();
            ops.push(Op::Txn(inner));
        } else {
            ops.push(single(&mut rng, &mut next_id, &mut live));
        }
    }
    ops
}

/// Open the database on `vfs`, register the `parity` index kind (and its
/// function), and run recovery.
fn open_db(vfs: &FaultVfs) -> Result<Database, DbError> {
    let db = Database::open_with_vfs(Path::new(DB_DIR), Arc::new(vfs.clone()))?;
    register_parity(&db);
    db.recover()?;
    Ok(db)
}

/// Create the schema (table + unique secondary index) with faults disarmed.
fn setup(vfs: &FaultVfs) -> Database {
    vfs.disarm();
    let db = open_db(vfs).expect("setup open must not fail with faults disarmed");
    db.execute_script_as(
        "CREATE TABLE public.t (id INT, val TEXT);
         CREATE UNIQUE INDEX ON public.t (id);",
        &Role::Maintainer,
    )
    .expect("setup DDL must not fail with faults disarmed");
    db
}

/// Read the recovered table back into a model, via a full scan.
fn dump_table(db: &Database) -> Model {
    let rs = db
        .execute_as("SELECT id, val FROM public.t", &Role::Maintainer)
        .expect("post-recovery scan must succeed");
    rs.rows
        .iter()
        .map(|r| (r[0].as_int().expect("int id"), r[1].as_text().expect("text val").to_string()))
        .collect()
}

/// Outcome of running a workload against the engine.
struct RunOutcome {
    /// Model states s_0..s_n (state after each op attempt).
    states: Vec<Model>,
    /// Largest index whose op returned Ok — recovery may not land before it.
    floor: usize,
    /// Errors observed (each must be DbError::Io).
    io_errors: usize,
    /// Index at which a crash stopped the run, if any.
    crashed_at: Option<usize>,
}

/// Drive the workload. In-memory effects track the model regardless of IO
/// errors (mutations precede logging); durability is what recovery checks.
fn run_workload(db: &Database, vfs: &FaultVfs, ops: &[Op]) -> RunOutcome {
    let mut states = vec![Model::new()];
    let mut floor = 0usize;
    let mut io_errors = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let mut ok = true;
        for stmt in op.sql() {
            match db.execute_as(&stmt, &Role::Maintainer) {
                Ok(_) => {}
                Err(DbError::Io(_)) => {
                    ok = false;
                    io_errors += 1;
                }
                Err(other) => panic!("op {i} ({stmt:?}): expected DbError::Io, got {other:?}"),
            }
        }
        let mut next = states.last().expect("nonempty").clone();
        op.apply_to(&mut next);
        states.push(next);
        if vfs.crashed() {
            return RunOutcome { states, floor, io_errors, crashed_at: Some(i) };
        }
        if ok {
            // Every statement of the op succeeded; autocommit (and COMMIT)
            // sync the WAL, so this state is durable.
            floor = states.len() - 1;
        }
    }
    RunOutcome { states, floor, io_errors, crashed_at: None }
}

/// Check prefix consistency: `recovered` equals some states[k], k ≥ floor.
///
/// One subtlety: an op that errored (never reached the durable floor) may
/// still have *partially* persisted if a later successful sync flushed the
/// buffered tail of a mid-transaction statement... it cannot — `sync` only
/// returns Ok after writing every buffered record, and the floor advances
/// past the errored op on the next Ok. So recovered must be an exact
/// model state.
fn check_prefix_consistency(outcome: &RunOutcome, recovered: &Model) -> Result<usize, String> {
    for (k, state) in outcome.states.iter().enumerate().skip(outcome.floor) {
        if state == recovered {
            return Ok(k);
        }
    }
    Err(format!(
        "recovered state matches no model prefix ≥ {}: recovered {} rows {:?}, floor state {:?}",
        outcome.floor,
        recovered.len(),
        recovered.iter().take(8).collect::<Vec<_>>(),
        outcome.states[outcome.floor].iter().take(8).collect::<Vec<_>>(),
    ))
}

/// Post-recovery invariants beyond row contents: the unique index answers
/// point queries consistently with the heap and still enforces uniqueness.
fn check_index_consistency(db: &Database, recovered: &Model) -> Result<(), String> {
    for (id, val) in recovered.iter().take(5) {
        let rs = db
            .execute_as(&format!("SELECT val FROM public.t WHERE id = {id}"), &Role::Maintainer)
            .map_err(|e| format!("index point query failed: {e}"))?;
        if rs.rows.len() != 1 || rs.rows[0][0].as_text() != Some(val.as_str()) {
            return Err(format!("index lookup for id {id} disagrees with heap"));
        }
    }
    if let Some(id) = recovered.keys().next() {
        match db
            .execute_as(&format!("INSERT INTO public.t VALUES ({id}, 'dup')"), &Role::Maintainer)
        {
            Err(DbError::Constraint(_)) => {}
            other => return Err(format!("unique index not enforced after recovery: {other:?}")),
        }
    }
    Ok(())
}

/// Record a failing combo for the CI artifact and return the message.
fn report_failure(kind: &str, seed: u64, detail: &str) -> String {
    let line = format!("{kind} seed={seed}: {detail}");
    let dir = Path::new("target/fault-matrix");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("failing-seeds.txt");
    let mut existing = std::fs::read_to_string(&path).unwrap_or_default();
    existing.push_str(&line);
    existing.push('\n');
    let _ = std::fs::write(&path, existing);
    line
}

fn seed_range() -> (u64, u64) {
    let start = std::env::var("FAULT_SEED_START").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let count = std::env::var("FAULT_SEED_COUNT").ok().and_then(|v| v.parse().ok()).unwrap_or(25);
    (start, count)
}

/// Crash-point sweep: for each seed, freeze the disk at a range of points
/// in the IO stream, then recover on the frozen image and check prefix
/// consistency + index integrity. ≥ 200 (seed, crash point) combinations
/// at the default 25-seed range.
#[test]
fn crash_points_recover_to_a_consistent_prefix() {
    let (start, count) = seed_range();
    let crash_points: &[u64] = &[1, 2, 3, 5, 8, 13, 21, 34];
    let mut combos = 0u64;
    let mut crashed = 0u64;
    let mut failures = Vec::new();
    for seed in start..start + count {
        let ops = generate_workload(seed, OPS_PER_WORKLOAD);
        for &point in crash_points {
            combos += 1;
            let vfs = FaultVfs::new(FaultConfig::crash_at(seed ^ (point << 32), point));
            let db = setup(&vfs);
            vfs.arm();
            let outcome = run_workload(&db, &vfs, &ops);
            drop(db);
            if outcome.crashed_at.is_none() {
                // Workload finished before the crash point fired (short
                // workloads with late points) — nothing to recover.
                continue;
            }
            crashed += 1;
            // "Restart the process": clear the crashed flag, keep the
            // frozen image, reopen, recover.
            vfs.reset_after_crash();
            let db = match open_db(&vfs) {
                Ok(db) => db,
                Err(e) => {
                    failures.push(report_failure(
                        "crash",
                        seed,
                        &format!("point={point}: recovery failed: {e}"),
                    ));
                    continue;
                }
            };
            let recovered = dump_table(&db);
            if let Err(msg) = check_prefix_consistency(&outcome, &recovered) {
                failures.push(report_failure("crash", seed, &format!("point={point}: {msg}")));
                continue;
            }
            if let Err(msg) = check_index_consistency(&db, &recovered) {
                failures.push(report_failure("crash", seed, &format!("point={point}: {msg}")));
            }
        }
    }
    println!(
        "crash sweep: {combos} (seed, crash point) combinations, {crashed} crashed mid-workload, {} failed",
        failures.len()
    );
    assert!(combos >= 8, "sweep ran no combinations");
    assert!(crashed * 2 >= combos, "too few combos actually crashed ({crashed}/{combos})");
    assert!(failures.is_empty(), "{} failing combos:\n{}", failures.len(), failures.join("\n"));
}

/// A domain index after a crash answers as the scan. The `parity` index on
/// `t.id` is created with a quarter of the workload applied, either before
/// a checkpoint (recovery reads it from the snapshot, which logs the rows
/// first and the index after) or after one (from the WAL tail); the rest of
/// the workload then runs into a crash. After `recover()` alone the index
/// is the plan for `same_parity`, and its answer equals the same
/// predicate's on a table that never had the index, loaded with the
/// recovered rows.
#[test]
fn a_domain_index_after_a_crash_answers_as_the_scan() {
    let (start, count) = seed_range();
    let crash_points: &[u64] = &[2, 5, 13, 34];
    let (mut combos, mut crashed, mut rows_compared) = (0u64, 0u64, 0usize);
    let mut failures = Vec::new();
    let query = |n: i64| format!("SELECT id, val FROM public.t WHERE same_parity(id, {n})");
    let sorted = |db: &Database, sql: &str| -> Result<Vec<Vec<unidb::Datum>>, String> {
        let mut rows = db.execute_as(sql, &Role::Maintainer).map_err(|e| e.to_string())?.rows;
        rows.sort_by_key(|r| r[0].as_int());
        Ok(rows)
    };
    for seed in start..start + count {
        let ops = generate_workload(seed ^ 0xD0_0D, OPS_PER_WORKLOAD);
        let (first, rest) = ops.split_at(OPS_PER_WORKLOAD / 4);
        for &point in crash_points {
            for index_in_snapshot in [true, false] {
                combos += 1;
                let vfs =
                    FaultVfs::new(FaultConfig::crash_at(seed ^ (point << 32) ^ 0xD0_0D, point));
                let db = setup(&vfs);
                run_workload(&db, &vfs, first); // disarmed: all Ok
                let create = || {
                    db.execute_as("CREATE INDEX ON public.t USING parity (id)", &Role::Maintainer)
                };
                if index_in_snapshot {
                    create().expect("index before the checkpoint");
                }
                db.checkpoint().expect("disarmed checkpoint");
                if !index_in_snapshot {
                    create().expect("index after the checkpoint");
                }
                vfs.arm();
                let outcome = run_workload(&db, &vfs, rest);
                drop(db);
                if outcome.crashed_at.is_none() {
                    continue;
                }
                crashed += 1;
                vfs.reset_after_crash();
                let combo = format!("point={point} index_in_snapshot={index_in_snapshot}");
                let db = match open_db(&vfs) {
                    Ok(db) => db,
                    Err(e) => {
                        failures.push(report_failure(
                            "udi",
                            seed,
                            &format!("{combo}: recovery failed: {e}"),
                        ));
                        continue;
                    }
                };
                let plain = Database::in_memory();
                register_parity(&plain);
                plain
                    .execute_as("CREATE TABLE public.t (id INT, val TEXT)", &Role::Maintainer)
                    .unwrap();
                for (id, val) in dump_table(&db) {
                    plain
                        .execute_as(
                            &format!("INSERT INTO public.t VALUES ({id}, '{val}')"),
                            &Role::Maintainer,
                        )
                        .unwrap();
                }
                for n in [0, 1] {
                    let plan = db.execute_as(&format!("EXPLAIN {}", query(n)), &Role::Maintainer);
                    let plan = plan
                        .map(|r| r.explain.unwrap_or_default())
                        .unwrap_or_else(|e| e.to_string());
                    if !plan.contains("UdiScan") {
                        failures.push(report_failure(
                            "udi",
                            seed,
                            &format!("{combo}: not probed: {plan}"),
                        ));
                        continue;
                    }
                    let (probed, scanned) = (sorted(&db, &query(n)), sorted(&plain, &query(n)));
                    if probed != scanned {
                        failures.push(report_failure(
                            "udi",
                            seed,
                            &format!("{combo} n={n}: index {probed:?} != scan {scanned:?}"),
                        ));
                    }
                    rows_compared += scanned.map_or(0, |rows| rows.len());
                }
            }
        }
    }
    println!(
        "udi crash sweep: {combos} combinations, {crashed} crashed, {rows_compared} rows compared, {} failed",
        failures.len()
    );
    assert!(crashed * 2 >= combos, "too few combos actually crashed ({crashed}/{combos})");
    assert!(rows_compared >= crashed as usize, "recovered tables were nearly empty");
    assert!(failures.is_empty(), "{} failing combos:\n{}", failures.len(), failures.join("\n"));
}

/// Crash with an *interactive* transaction in flight: one explicit
/// `txn_begin` transaction buffers inserts on a disjoint id range while
/// autocommit traffic ticks the fault clock, and the crash can land
/// before, during, or after the transaction's COMMIT. After recovery the
/// transaction must be all-or-nothing: invisible if COMMIT was never
/// attempted (its statements are buffered and do no IO, so no partial
/// frame can exist), fully present if COMMIT returned Ok, and either —
/// but never partial — if COMMIT itself hit the crash. The autocommit
/// stream must independently recover to a consistent prefix.
#[test]
fn crash_inside_open_transactions_leaves_no_trace() {
    /// Ids the open transaction writes; autocommit ids stay far below.
    const TXN_BASE: i64 = 100_000;
    let (start, count) = seed_range();
    let crash_points: &[u64] = &[1, 2, 3, 5, 8, 13, 21, 34];
    let mut combos = 0u64;
    let mut crashed = 0u64;
    let mut failures = Vec::new();
    for seed in start..start + count {
        // Autocommit stream: every statement on its own, single- and
        // multi-row alike (the ambient-transaction sweep above covers
        // `Op::Txn`). Each is all-or-nothing, so the model prefix is exact.
        let ops: Vec<Op> = generate_workload(seed ^ 0x7A31_0000, OPS_PER_WORKLOAD)
            .into_iter()
            .flat_map(|op| match op {
                Op::Txn(inner) => inner,
                single => vec![single],
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x51C7_C1B5).wrapping_add(7));
        let txn_rows: Vec<(i64, String)> = (0..rng.gen_range(3..=6))
            .map(|j| (TXN_BASE + j, format!("t{j}-{}", rng.gen_range(0..1000))))
            .collect();
        let commit_at = rng.gen_range(ops.len() / 2..ops.len());
        for &point in crash_points {
            combos += 1;
            let vfs = FaultVfs::new(FaultConfig::crash_at(seed ^ (point << 16) ^ 0xABCD, point));
            let db = setup(&vfs);
            vfs.arm();
            // Open the transaction and buffer its writes *after* arming:
            // buffered statements must not touch the fault clock at all.
            let txn = db.txn_begin();
            for (id, val) in &txn_rows {
                db.txn_execute_as(
                    txn,
                    &format!("INSERT INTO public.t VALUES ({id}, '{val}')"),
                    &Role::Maintainer,
                )
                .expect("buffered transaction insert must do no IO");
            }
            // Drive the autocommit stream, attempting COMMIT partway in.
            let mut states = vec![Model::new()];
            let mut floor = 0usize;
            let mut crashed_at = None;
            let mut commit_result: Option<Result<(), DbError>> = None;
            for (i, op) in ops.iter().enumerate() {
                if i == commit_at {
                    commit_result = Some(db.txn_commit(txn));
                    if vfs.crashed() {
                        crashed_at = Some(i);
                        break;
                    }
                }
                let mut ok = true;
                for stmt in op.sql() {
                    match db.execute_as(&stmt, &Role::Maintainer) {
                        Ok(_) => {}
                        Err(DbError::Io(_)) => ok = false,
                        Err(other) => panic!("op {i} ({stmt:?}): expected Io, got {other:?}"),
                    }
                }
                let mut next = states.last().expect("nonempty").clone();
                op.apply_to(&mut next);
                states.push(next);
                if vfs.crashed() {
                    crashed_at = Some(i);
                    break;
                }
                if ok {
                    floor = states.len() - 1;
                }
            }
            drop(db);
            if crashed_at.is_none() {
                continue;
            }
            crashed += 1;
            vfs.reset_after_crash();
            let db = match open_db(&vfs) {
                Ok(db) => db,
                Err(e) => {
                    failures.push(report_failure(
                        "txn-crash",
                        seed,
                        &format!("point={point}: recovery failed: {e}"),
                    ));
                    continue;
                }
            };
            let full = dump_table(&db);
            let auto_rec: Model = full
                .iter()
                .filter(|(id, _)| **id < TXN_BASE)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let txn_rec: Model = full
                .iter()
                .filter(|(id, _)| **id >= TXN_BASE)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            let expected_txn: Model = txn_rows.iter().cloned().collect();
            let txn_ok = match &commit_result {
                // COMMIT acknowledged: the frame was synced, rows survive.
                Some(Ok(())) => txn_rec == expected_txn,
                // COMMIT hit the crash: atomic either way, never partial.
                Some(Err(_)) => txn_rec.is_empty() || txn_rec == expected_txn,
                // Crash before COMMIT: buffered work leaves no trace.
                None => txn_rec.is_empty(),
            };
            if !txn_ok {
                failures.push(report_failure(
                    "txn-crash",
                    seed,
                    &format!(
                        "point={point}: commit {commit_result:?} but {} of {} txn rows recovered",
                        txn_rec.len(),
                        expected_txn.len()
                    ),
                ));
                continue;
            }
            let outcome = RunOutcome { states, floor, io_errors: 0, crashed_at };
            if let Err(msg) = check_prefix_consistency(&outcome, &auto_rec) {
                failures.push(report_failure("txn-crash", seed, &format!("point={point}: {msg}")));
            }
        }
    }
    println!(
        "txn crash sweep: {combos} (seed, crash point) combinations, {crashed} crashed mid-workload, {} failed",
        failures.len()
    );
    assert!(combos >= 8, "sweep ran no combinations");
    assert!(failures.is_empty(), "{} failing combos:\n{}", failures.len(), failures.join("\n"));
}

/// Recovery must rebuild the *derived* read-path state — per-page zone
/// maps and catalog statistics — not just row contents. After each crash
/// and recover: the maintained zone maps must exactly equal a fresh
/// rebuild from the heap (exact, not merely conservative — pruning
/// correctness rides on it), a zone-pruned scan must agree with the full
/// scan, and a second independent recovery of the same frozen image must
/// land on the identical statistics fingerprint — replay is
/// deterministic, so "crash + replay" and a clean open see the same
/// statistics.
#[test]
fn recovery_rebuilds_zone_maps_and_statistics() {
    let (start, count) = seed_range();
    let crash_points: &[u64] = &[3, 8, 21, 34];
    let mut crashed = 0u64;
    let mut failures = Vec::new();
    for seed in start..start + count {
        let ops = generate_workload(seed ^ 0x20E5_AB1E, OPS_PER_WORKLOAD);
        for &point in crash_points {
            let vfs = FaultVfs::new(FaultConfig::crash_at(seed ^ (point << 24), point));
            let db = setup(&vfs);
            vfs.arm();
            let outcome = run_workload(&db, &vfs, &ops);
            drop(db);
            if outcome.crashed_at.is_none() {
                continue;
            }
            crashed += 1;
            vfs.reset_after_crash();
            let db = match open_db(&vfs) {
                Ok(db) => db,
                Err(e) => {
                    failures.push(report_failure(
                        "zones",
                        seed,
                        &format!("point={point}: recovery failed: {e}"),
                    ));
                    continue;
                }
            };
            // Replayed zone maps must match a fresh rebuild exactly.
            match db.verify_zone_maps("public.t") {
                Ok(true) => {}
                Ok(false) => {
                    failures.push(report_failure(
                        "zones",
                        seed,
                        &format!("point={point}: replayed zone maps diverge from a fresh rebuild"),
                    ));
                    continue;
                }
                Err(e) => {
                    failures.push(report_failure(
                        "zones",
                        seed,
                        &format!("point={point}: verify_zone_maps failed: {e}"),
                    ));
                    continue;
                }
            }
            // A scan filtered through the replayed zones agrees with the heap.
            let recovered = dump_table(&db);
            if let Some((&max_id, _)) = recovered.iter().next_back() {
                let cutoff = max_id / 2;
                let rs = db
                    .execute_as(
                        &format!("SELECT id, val FROM public.t WHERE id >= {cutoff}"),
                        &Role::Maintainer,
                    )
                    .expect("pruned scan after recovery must succeed");
                let got: Model = rs
                    .rows
                    .iter()
                    .map(|r| (r[0].as_int().unwrap(), r[1].as_text().unwrap().to_string()))
                    .collect();
                let expect: Model =
                    recovered.range(cutoff..).map(|(k, v)| (*k, v.clone())).collect();
                if got != expect {
                    failures.push(report_failure(
                        "zones",
                        seed,
                        &format!(
                            "point={point}: pruned scan returned {} rows, full scan has {}",
                            got.len(),
                            expect.len()
                        ),
                    ));
                    continue;
                }
            }
            // Statistics are a pure function of the disk image: a second
            // recovery of the same image reproduces the same fingerprint.
            let fp1 = db.stats_fingerprint("public.t");
            drop(db);
            let db2 = match open_db(&vfs) {
                Ok(db) => db,
                Err(e) => {
                    failures.push(report_failure(
                        "zones",
                        seed,
                        &format!("point={point}: second recovery failed: {e}"),
                    ));
                    continue;
                }
            };
            let fp2 = db2.stats_fingerprint("public.t");
            match (&fp1, &fp2) {
                (Ok(a), Ok(b)) if a == b => {}
                other => failures.push(report_failure(
                    "zones",
                    seed,
                    &format!(
                        "point={point}: stats fingerprints diverge across recoveries: {other:?}"
                    ),
                )),
            }
        }
    }
    println!(
        "zone/stats rebuild sweep: {crashed} crashed combos checked, {} failed",
        failures.len()
    );
    assert!(crashed >= 4, "too few combos actually crashed ({crashed})");
    assert!(failures.is_empty(), "{} failing combos:\n{}", failures.len(), failures.join("\n"));
}

/// Transient-fault sweep: no crash, but writes/syncs/reads can fail. Every
/// error must be a structured `DbError::Io`; the database must stay usable
/// in-process, and a fresh open on the same disk must recover a consistent
/// prefix that includes every op that reported Ok.
#[test]
fn transient_io_faults_leave_database_reopenable() {
    let (start, count) = seed_range();
    let mut failures = Vec::new();
    let mut total_io_errors = 0usize;
    for seed in start..start + count {
        let ops = generate_workload(seed ^ 0xDEAD_BEEF, OPS_PER_WORKLOAD);
        let vfs = FaultVfs::new(FaultConfig::transient(seed));
        let db = setup(&vfs);
        vfs.arm();
        let outcome = run_workload(&db, &vfs, &ops);
        total_io_errors += outcome.io_errors;
        assert!(outcome.crashed_at.is_none(), "transient config must not crash");

        // The engine must still answer queries in-process after IO errors.
        db.execute_as("SELECT count(*) FROM public.t", &Role::Maintainer)
            .expect("reads must survive WAL-layer faults");

        // A fresh open on the same (still faulty-history) disk: disarm and
        // recover, as an administrator would after fixing the disk.
        vfs.disarm();
        drop(db);
        let db = match open_db(&vfs) {
            Ok(db) => db,
            Err(e) => {
                failures.push(report_failure("transient", seed, &format!("reopen failed: {e}")));
                continue;
            }
        };
        let recovered = dump_table(&db);
        if let Err(msg) = check_prefix_consistency(&outcome, &recovered) {
            failures.push(report_failure("transient", seed, &msg));
            continue;
        }
        // The reopened database must accept new writes.
        if let Err(e) =
            db.execute_as("INSERT INTO public.t VALUES (100000, 'post')", &Role::Maintainer)
        {
            failures.push(report_failure("transient", seed, &format!("post-recovery write: {e}")));
        }
    }
    println!("transient sweep: {count} seeds, {total_io_errors} injected IO errors surfaced");
    assert!(failures.is_empty(), "{} failing seeds:\n{}", failures.len(), failures.join("\n"));
}

/// Crash during checkpoint: the epoch scheme must prevent double apply
/// (old WAL replayed on top of a new snapshot) at every crash offset.
#[test]
fn crash_during_checkpoint_never_double_applies() {
    let (start, count) = seed_range();
    let mut failures = Vec::new();
    for seed in start..start + count.min(10) {
        let ops = generate_workload(seed ^ 0x5EED, 20);
        for point in 1..=12u64 {
            let vfs = FaultVfs::new(FaultConfig::crash_at(seed.wrapping_add(point), point));
            let db = setup(&vfs);
            let outcome = run_workload(&db, &vfs, &ops); // disarmed: all Ok
            assert_eq!(outcome.io_errors, 0);
            vfs.arm(); // the crash clock now ticks inside checkpoint()
            let checkpoint_result = db.checkpoint();
            drop(db);
            vfs.reset_after_crash();
            let db = match open_db(&vfs) {
                Ok(db) => db,
                Err(e) => {
                    failures.push(report_failure(
                        "checkpoint",
                        seed,
                        &format!("point={point}: recovery failed: {e} (checkpoint was {checkpoint_result:?})"),
                    ));
                    continue;
                }
            };
            let recovered = dump_table(&db);
            let expected = outcome.states.last().expect("nonempty");
            if recovered != *expected {
                failures.push(report_failure(
                    "checkpoint",
                    seed,
                    &format!(
                        "point={point}: recovered {} rows, expected {} (checkpoint was {checkpoint_result:?})",
                        recovered.len(),
                        expected.len()
                    ),
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{} failing combos:\n{}", failures.len(), failures.join("\n"));
}

/// The WAL shape of a commit point. A statement (or transaction) that
/// writes one row appends exactly that one record — a CRC'd record is atomic
/// on its own, and frame markers would grow a small update's log by half —
/// while one that writes `n > 1` rows appends `n + 2`: its records between
/// `TxnBegin` and `TxnCommit`, which is what lets replay drop a torn one
/// whole. A statement that fails or matches nothing appends nothing.
#[test]
fn wal_frames_exactly_the_multi_row_commits() {
    let vfs = FaultVfs::new(FaultConfig::reliable());
    let db = setup(&vfs);
    let log = || read_log(&vfs, &Path::new(DB_DIR).join("wal.db")).expect("readable log");
    let appended = |script: &str| -> Vec<WalRecord> {
        let before = log().len();
        let outcome = db.execute_script_as(script, &Role::Maintainer);
        let records = log().split_off(before);
        assert_eq!(db.wal_stats().appends as usize, before + records.len(), "{script}: unsynced");
        assert!(outcome.is_ok() || records.is_empty(), "{script}: failed, yet logged {records:?}");
        records
    };
    let framed = |records: &[WalRecord], rows: usize| {
        records.len() == rows + 2
            && records[0] == WalRecord::TxnBegin
            && records[rows + 1] == WalRecord::TxnCommit
            && !records[1..=rows]
                .iter()
                .any(|r| matches!(r, WalRecord::TxnBegin | WalRecord::TxnCommit))
    };
    use WalRecord::{Delete, Insert, Update};
    let one = appended("INSERT INTO public.t VALUES (1, 'a')");
    assert!(matches!(one[..], [Insert { .. }]), "{one:?}");
    let many = appended("INSERT INTO public.t VALUES (2, 'b'), (3, 'c'), (4, 'd')");
    assert!(framed(&many, 3), "{many:?}");
    let one = appended("UPDATE public.t SET val = 'x' WHERE id = 1");
    assert!(matches!(one[..], [Update { .. }]), "{one:?}");
    // Alone in its write-set, even an update that moves its unique key.
    let one = appended("UPDATE public.t SET id = 9 WHERE id = 1");
    assert!(matches!(one[..], [Update { .. }]), "{one:?}");
    let many = appended("UPDATE public.t SET val = 'y' WHERE id <= 4");
    assert!(framed(&many, 3), "{many:?}");
    let one = appended(
        "BEGIN; UPDATE public.t SET val = 'p' WHERE id = 2; \
                        UPDATE public.t SET val = 'q' WHERE id = 2; COMMIT",
    );
    assert!(matches!(one[..], [Update { .. }]), "{one:?}");
    let many = appended(
        "BEGIN; INSERT INTO public.t VALUES (5, 'e'); \
                         DELETE FROM public.t WHERE id = 3; COMMIT",
    );
    assert!(framed(&many, 2), "{many:?}");
    assert!(appended("UPDATE public.t SET val = 'z' WHERE id = 77").is_empty());
    assert!(appended("INSERT INTO public.t VALUES (6, 'f'), (2, 'dup')").is_empty());
    assert!(appended("BEGIN; INSERT INTO public.t VALUES (7, 'g'); ROLLBACK").is_empty());
    let one = appended("DELETE FROM public.t WHERE id = 9");
    assert!(matches!(one[..], [Delete { .. }]), "{one:?}");
    let many = appended("DELETE FROM public.t WHERE id >= 2");
    assert!(framed(&many, 3), "{many:?}");
    drop(db);
    let db = open_db(&vfs).expect("reopen");
    assert!(dump_table(&db).is_empty());
}
