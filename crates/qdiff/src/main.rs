//! qdiff CLI: sweep a seed range, report divergences, shrink and dump
//! reproducible counterexamples.
//!
//! ```text
//! cargo run -p qdiff -- --seeds 500
//! QDIFF_SEED_START=125 QDIFF_SEED_COUNT=125 cargo run -p qdiff
//! ```
//!
//! Exit status is non-zero iff any seed diverged. Each divergent seed is
//! written to `<out>/seed-<n>.sql` as a self-contained SQL script whose
//! trailing comments describe the disagreement — paste it into any unidb
//! shell to replay.

use qdiff::{
    check_scenario, check_txn_scenario, gen_scenario_with_profile, gen_txn_scenario, shrink,
    shrink_txn, Profile,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    start: u64,
    count: u64,
    txn_count: u64,
    shrink_budget: usize,
    out: PathBuf,
    profile: Profile,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        start: 0,
        count: 200,
        txn_count: 200,
        shrink_budget: 400,
        out: PathBuf::from("target/qdiff"),
        profile: Profile::Default,
    };
    // Env overrides first (the CI shard matrix sets these), flags on top.
    if let Ok(s) = std::env::var("QDIFF_SEED_START") {
        args.start = s.parse().map_err(|_| format!("bad QDIFF_SEED_START: {s}"))?;
    }
    if let Ok(s) = std::env::var("QDIFF_PROFILE") {
        args.profile = Profile::from_name(&s).ok_or_else(|| format!("bad QDIFF_PROFILE: {s}"))?;
    }
    if let Ok(s) = std::env::var("QDIFF_SEED_COUNT") {
        args.count = s.parse().map_err(|_| format!("bad QDIFF_SEED_COUNT: {s}"))?;
    }
    if let Ok(s) = std::env::var("QDIFF_TXN_SEED_COUNT") {
        args.txn_count = s.parse().map_err(|_| format!("bad QDIFF_TXN_SEED_COUNT: {s}"))?;
    }
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.count = parse(&val("--seeds")?)?,
            "--txn-seeds" => args.txn_count = parse(&val("--txn-seeds")?)?,
            "--start" => args.start = parse(&val("--start")?)?,
            "--shrink-budget" => args.shrink_budget = parse::<usize>(&val("--shrink-budget")?)?,
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--profile" => {
                let name = val("--profile")?;
                args.profile =
                    Profile::from_name(&name).ok_or_else(|| format!("bad --profile: {name}"))?;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: qdiff [--seeds N] [--txn-seeds N] [--start S] [--shrink-budget B] \
                     [--out DIR] [--profile default|join-heavy|scan-heavy]\n\
                     env: QDIFF_SEED_START, QDIFF_SEED_COUNT, QDIFF_TXN_SEED_COUNT, QDIFF_PROFILE"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number: {s}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qdiff: {e}");
            return ExitCode::from(2);
        }
    };

    let mut divergent = 0u64;
    for seed in args.start..args.start + args.count {
        let sc = gen_scenario_with_profile(seed, args.profile);
        let Some(first) = check_scenario(&sc) else { continue };
        divergent += 1;
        eprintln!("seed {seed}: DIVERGENCE — {first}");

        // Minimize, then re-check to get the divergence of the *shrunk*
        // scenario (shrinking can move the failing op index around).
        let mut fails = |s: &qdiff::Scenario| check_scenario(s).is_some();
        let small = shrink(&sc, &mut fails, args.shrink_budget);
        let report = check_scenario(&small)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "shrunk scenario no longer diverges (flaky?)".into());

        let mut script = small.render_script();
        script.push_str("\n-- DIVERGENCE:\n");
        for line in report.lines() {
            script.push_str("--   ");
            script.push_str(line);
            script.push('\n');
        }
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("qdiff: cannot create {}: {e}", args.out.display());
            return ExitCode::from(2);
        }
        let path = args.out.join(format!("seed-{seed}.sql"));
        match std::fs::write(&path, &script) {
            Ok(()) => eprintln!("  shrunk repro written to {}", path.display()),
            Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
        }
        for line in report.lines() {
            eprintln!("  {line}");
        }
    }

    // Concurrent-transaction sweep: interleaved BEGIN/COMMIT events across
    // slots, checked against the snapshot-isolation oracle. CI cuts its
    // shards from the scalar range (`start` = shard × `count`); the txn
    // range is cut the same way at its own length, so shards with a longer
    // txn sweep stay disjoint. (`--start S --seeds 1 --txn-seeds 1` replays
    // txn seed S.)
    let txn_start = args.start.checked_div(args.count).map_or(args.start, |i| i * args.txn_count);
    for seed in txn_start..txn_start + args.txn_count {
        let sc = gen_txn_scenario(seed);
        let Some(first) = check_txn_scenario(&sc) else { continue };
        divergent += 1;
        eprintln!("txn seed {seed}: DIVERGENCE — {first}");

        let mut fails = |s: &qdiff::TxnScenario| check_txn_scenario(s).is_some();
        let small = shrink_txn(&sc, &mut fails, args.shrink_budget);
        let report = check_txn_scenario(&small)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "shrunk scenario no longer diverges (flaky?)".into());

        let mut script = small.render_script();
        script.push_str("\n-- DIVERGENCE:\n");
        for line in report.lines() {
            script.push_str("--   ");
            script.push_str(line);
            script.push('\n');
        }
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("qdiff: cannot create {}: {e}", args.out.display());
            return ExitCode::from(2);
        }
        let path = args.out.join(format!("txn-seed-{seed}.txt"));
        match std::fs::write(&path, &script) {
            Ok(()) => eprintln!("  shrunk repro written to {}", path.display()),
            Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
        }
        for line in report.lines() {
            eprintln!("  {line}");
        }
    }

    println!(
        "qdiff: {} scalar (from {}) + {} txn (from {txn_start}) seeds checked, \
         {divergent} divergence(s)",
        args.count, args.start, args.txn_count
    );
    if divergent == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
