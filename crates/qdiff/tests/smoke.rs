//! Always-on differential smoke sweep: a bounded seed range must produce
//! zero divergences between the engine and the reference oracle. The CI
//! qdiff job covers a much wider range; this keeps `cargo test` honest.

use qdiff::{check_scenario, gen_scenario};

#[test]
fn seeds_0_to_47_agree_with_the_oracle() {
    let mut failures = Vec::new();
    for seed in 0..48 {
        if let Some(d) = check_scenario(&gen_scenario(seed)) {
            failures.push(format!("seed {seed}: {d}"));
        }
    }
    assert!(failures.is_empty(), "engine/oracle divergences:\n{}", failures.join("\n"));
}

#[test]
fn concurrent_txn_seeds_agree_with_the_si_oracle() {
    // Interleaved-transaction sweep: 300 seeds of BEGIN/COMMIT interleavings
    // across three slots plus racing auto-commit statements, compared event
    // by event against the snapshot-isolation reference model.
    let mut failures = Vec::new();
    for seed in 0..300 {
        if let Some(d) = qdiff::check_txn_scenario(&qdiff::gen_txn_scenario(seed)) {
            failures.push(format!("txn seed {seed}: {d}"));
        }
    }
    assert!(failures.is_empty(), "engine/oracle divergences:\n{}", failures.join("\n"));
}

#[test]
fn scenarios_replay_deterministically() {
    // Same seed, two runs, same SQL — the whole design rests on this.
    for seed in [0, 7, 23] {
        let a = gen_scenario(seed).render_script();
        let b = gen_scenario(seed).render_script();
        assert_eq!(a, b, "seed {seed} not deterministic");
    }
}
