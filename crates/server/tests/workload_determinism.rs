//! Fingerprint determinism.
//!
//! The workload registry is first-come bounded (no eviction), fingerprints
//! are a pure function of statement text, and plan hashes are FxHash over
//! deterministic `EXPLAIN` trees — so running the *same* seeded qdiff
//! statement stream twice must produce identical fingerprint sets and
//! identical per-fingerprint plan hashes. Divergence would mean some part
//! of the observatory keyed on something other than the statement stream.

use genalg_server::{Lang, QueryService, ServerConfig, SessionKind};
use qdiff::gen_scenario;
use std::collections::BTreeMap;
use std::sync::Arc;
use unidb::Database;

/// Drive one scenario through a fresh service; return
/// `fingerprint id -> (text, plan_hash)`.
fn run_stream(seed: u64) -> BTreeMap<String, (String, u64)> {
    let db = Arc::new(Database::in_memory());
    let svc = QueryService::new(db, &ServerConfig::default());
    let s = svc.open_session(SessionKind::Maintainer);
    let sc = gen_scenario(seed);
    for ddl in sc.setup_sql() {
        svc.execute(s, Lang::Sql, &ddl).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    for op in &sc.ops {
        // Errors are part of the stream too: a failing statement still
        // registers its fingerprint, identically on every run.
        let _ = svc.execute(s, Lang::Sql, &sc.op_sql(op));
    }
    svc.fingerprints().snapshot().into_iter().map(|fp| (fp.id, (fp.text, fp.plan_hash))).collect()
}

#[test]
fn repeated_runs_are_identical() {
    // Same stream twice: byte-for-byte identical registry contents (guards
    // against any ambient nondeterminism — time, hashing, iteration order —
    // leaking into the observatory).
    for seed in 0..8u64 {
        let a = run_stream(seed);
        assert!(!a.is_empty(), "seed {seed}: scenario registered no fingerprints");
        assert_eq!(a, run_stream(seed), "seed {seed}");
    }
}
