//! `bench e2e`: one wire-level benchmark, four workloads, a layer ledger
//! measured from outside. See `README.md` beside this crate.
//!
//! ```text
//! e2e --workload W --seed N --seconds S --trace 0|1    one run, one JSON line
//! e2e [--seed N] [--seconds S] [--reps R] [--smoke]    the whole suite
//! e2e --compare A.json B.json                          two suite documents
//! e2e --benchmark-json                                 print BENCHMARK.json
//! e2e --interactions                                   print the README's table
//! ```

mod compare;
mod json;
mod ledger;
mod metrics;
mod run;
mod stats;
mod sys;
mod workload;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::Tally;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

/// Seconds one run measures; `BENCHMARK.json` freezes the same figure.
const RUN_SECONDS: u64 = 20;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of a traced run's seconds given to its timed window (the counters
/// and `client.*` figures); the fixed traced pass takes what it takes.
const TRACE_WINDOW_SHARE: f64 = 0.4;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values(name, 1) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(default),
            Some(v) => v[0].parse().map_err(|_| format!("bad value for {name}: {}", v[0])),
        }
    }
}

/// One traced run: the fixed traced pass from a deterministic state, then a
/// short timed window for the counters, then the checks.
fn traced_run(workload: &dyn Workload, seconds: f64) -> (BTreeMap<String, f64>, Tally) {
    let mut instance = run::setup(workload, false);
    let traced = ledger::traced_pass(workload, &mut instance);
    let window = run::window(&mut instance, seconds * TRACE_WINDOW_SHARE);
    let view = run::client_view(&window.logs);
    let mut m = traced.metrics;
    m.extend(workload.layer_extras(&instance.loaded));

    let c = &window.counters;
    let count = |name: &str| c.value(name).unwrap_or(0) as f64;
    let ratio =
        |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    m.insert(
        "server.queue.wait_p95_us".into(),
        c.hist("query_queue_wait").map_or(0.0, |h| h.quantile_us(0.95) as f64),
    );
    m.insert("server.queue.peak_depth".into(), count("server_queue_peak"));
    m.insert("server.queue.busy_shed".into(), count("server_rejected_busy"));
    m.insert(
        "server.cache.plan_hit_ratio".into(),
        ratio(count("cache_plan_hits"), count("cache_plan_misses")),
    );
    m.insert(
        "server.cache.result_hit_ratio".into(),
        ratio(count("cache_result_hits"), count("cache_result_misses")),
    );
    m.insert("server.cache.result_bytes".into(), count("cache_result_bytes"));
    m.insert("obs.spans_dropped".into(), count("obs_spans_dropped"));
    m.insert(
        "unidb.storage.pool_hit_ratio".into(),
        ratio(count("pool_hits"), count("pool_misses")),
    );
    m.insert("unidb.storage.pool_evictions".into(), count("pool_evictions"));
    m.insert("client.latency_p99_us".into(), view.p99_us);
    m.insert("client.read_p50_us".into(), view.read_p50_us);
    m.insert("client.read_p95_us".into(), view.read_p95_us);
    m.insert("client.write_p50_us".into(), view.write_p50_us);
    m.insert("client.write_p95_us".into(), view.write_p95_us);
    m.insert("client.slice_spread".into(), view.slice_spread);
    m.insert("client.peak_rss_mib".into(), sys::peak_rss_mib());
    m.insert(
        "trace.vs_untraced_ratio".into(),
        if view.p50_us > 0.0 { stats::median(&traced.op_round_trip_us) / view.p50_us } else { 0.0 },
    );
    m.insert(
        "unidb.storage.insert_rows_per_s".into(),
        instance.loaded.rows as f64 / instance.loaded.insert_secs.max(1e-9),
    );

    write_trace(workload.name(), &traced.spans);
    let (aftermath, mut tally) = run::finish(workload, instance);
    tally.absorb(traced.tally);
    m.insert("unidb.storage.heap_pages".into(), aftermath.heap_pages as f64);
    m.insert("unidb.storage.recover_ms".into(), aftermath.recover_ms);
    m.insert("unidb.storage.checkpoint_ms".into(), aftermath.checkpoint_ms);
    m.insert("client.failed_ops_ratio".into(), tally.failed as f64 / tally.attempted.max(1) as f64);
    // A layer a workload never enters reports zero, by name, every time.
    for layer in PER_LAYER {
        let value = m.entry(layer.name.to_string()).or_insert(0.0);
        if !value.is_finite() {
            *value = 0.0;
        }
    }
    m.retain(|name, _| PER_LAYER.iter().any(|l| l.name == name));
    (m, tally)
}

/// `target/e2e/trace-<workload>.json`: every span the traced pass kept.
fn write_trace(workload: &str, spans: &[stats::Span]) {
    let own = stats::self_times_ns(spans);
    let rows: Vec<Json> = spans
        .iter()
        .zip(own)
        .enumerate()
        .map(|(id, (s, own_ns))| {
            Json::obj(vec![
                ("id", Json::from(id as u64)),
                ("name", Json::str(s.name.as_str())),
                ("request", Json::from(s.request)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64))),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("self_ns", Json::Num(own_ns as f64)),
            ])
        })
        .collect();
    let doc = Json::obj(vec![("workload", Json::str(workload)), ("spans", Json::Arr(rows))]);
    let path = sys::out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The line the driver reads: last line of standard output.
fn result_line<'a>(metrics: impl Iterator<Item = (&'a str, f64)>, tally: &Tally) -> String {
    let metrics = metrics
        .map(|(name, value)| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit_of(name)))]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted.max(1))),
        ("failed", Json::from(tally.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn report_problems(name: &str, tally: &Tally) {
    for problem in &tally.problems {
        eprintln!("[{name}] {problem}");
    }
}

/// Driver mode: one workload, one run, one JSON line.
fn single(args: &Args, name: &str) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed", 42u64)?;
    let seconds = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let trace = args.parsed("--trace", 0u8)?;
    let smoke = args.flag("--smoke");
    let workload = workload::create(name, seed, smoke)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workload::NAMES))?;
    let tally = if trace == 0 {
        let r = run::e2e(workload.as_ref(), seconds, if smoke { 1 } else { SETUP_REPS });
        println!("{}", result_line(r.metrics.iter().map(|(k, v)| (*k, *v)), &r.tally));
        r.tally
    } else {
        let (m, tally) = traced_run(workload.as_ref(), seconds);
        println!("{}", result_line(m.iter().map(|(k, v)| (k.as_str(), *v)), &tally));
        tally
    };
    report_problems(name, &tally);
    Ok(if tally.failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn summary(values: &[f64], unit: &str) -> Json {
    let (q1, q3) = stats::quartiles(values).unwrap_or((values[0], values[0]));
    Json::obj(vec![
        ("median", Json::Num(stats::median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::from(values.len() as u64)),
        ("unit", Json::str(unit)),
    ])
}

/// Suite mode: every workload `reps` times end to end (seeds `seed`,
/// `seed + 1`, …), then one traced run each; prints every metric by name
/// and writes one JSON document.
fn suite(args: &Args, removed_env: Vec<String>) -> Result<ExitCode, String> {
    let seed = args.parsed("--seed", 42u64)?;
    let smoke = args.flag("--smoke");
    let seconds = args.parsed("--seconds", if smoke { 0.5 } else { RUN_SECONDS as f64 })?;
    let reps = args.parsed("--reps", 1usize)?.max(1);
    let out = args
        .values("--out", 1)
        .map_or_else(|| sys::out_dir().join("e2e.json"), |v| v[0].clone().into());
    let setup_reps = if smoke { 1 } else { SETUP_REPS };

    let calib_before = sys::calib_ms();
    let mut workloads = Vec::new();
    let mut failed = 0;
    let mut frozen = Vec::new();
    for doc in metrics::WORKLOADS {
        let name = doc.name;
        println!("== {name}");
        let mut runs = Vec::new();
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut problems = Vec::new();
        for rep in 0..reps as u64 {
            let w = workload::create(name, seed + rep, smoke).expect("suite names exist");
            let r = run::e2e(w.as_ref(), seconds, setup_reps);
            for (metric, value) in &r.metrics {
                samples.entry(metric).or_default().push(*value);
            }
            let p95 = if r.view.p95_is < 0.95 {
                format!(" (p95 is p{:.1})", r.view.p95_is * 100.0)
            } else {
                String::new()
            };
            println!(
                "  run seed={} ops={} reads={} writes={} failed={}{p95}",
                seed + rep,
                r.view.ok_ops,
                r.view.reads,
                r.view.writes,
                r.tally.failed
            );
            failed += r.tally.failed;
            report_problems(name, &r.tally);
            problems.extend(r.tally.problems.iter().cloned().map(Json::Str));
            runs.push(Json::obj(vec![
                ("seed", Json::from(seed + rep)),
                ("attempted", Json::from(r.tally.attempted)),
                ("failed", Json::from(r.tally.failed)),
                ("samples", Json::from(r.view.ok_ops as u64)),
                (
                    "metrics",
                    Json::Obj(
                        r.metrics.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))).collect(),
                    ),
                ),
            ]));
        }
        let mut end_to_end = Vec::new();
        for m in END_TO_END {
            let values = &samples[m.name];
            println!(
                "  {:<28} {:>14.4} {:<6} n={} spread={:.3}",
                m.name,
                stats::median(values),
                m.unit,
                values.len(),
                stats::spread(values)
            );
            end_to_end.push((m.name.to_string(), summary(values, m.unit)));
        }
        let w = workload::create(name, seed, smoke).expect("suite names exist");
        let (layers, tally) = traced_run(w.as_ref(), seconds);
        println!("  -- layer ledger (traced run, 1 client, serial)");
        for layer in PER_LAYER {
            println!("  {:<44} {:>16.4} {}", layer.name, layers[layer.name], layer.unit);
        }
        failed += tally.failed;
        report_problems(name, &tally);
        problems.extend(tally.problems.iter().cloned().map(Json::Str));
        frozen.push((
            name.to_string(),
            Json::obj(vec![
                ("clients", Json::from(w.clients() as u64)),
                ("warmup_ops_per_client", Json::from(w.warmup_ops() as u64)),
                ("traced_ops", Json::from(w.traced_ops() as u64)),
                ("wal_tail_ops_per_client", Json::from(w.wal_tail_ops() as u64)),
            ]),
        ));
        workloads.push((
            name.to_string(),
            Json::obj(vec![
                ("why", Json::str(doc.why)),
                ("runs", Json::Arr(runs)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::from(layers)),
                ("problems", Json::Arr(problems)),
            ]),
        ));
    }
    let calib_after = sys::calib_ms();

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let doc = Json::obj(vec![
        ("bench", Json::str("e2e")),
        ("captured", Json::str(sys::utc_now())),
        ("commit", Json::str(sys::git_commit())),
        ("seed", Json::from(seed)),
        ("reps", Json::from(reps as u64)),
        ("nproc", Json::from(nproc as u64)),
        (
            "load",
            Json::str("closed loop: each client sends its next request when the last is answered"),
        ),
        ("smoke", Json::Bool(smoke)),
        ("seconds", Json::Num(seconds)),
        ("setup_reps", Json::from(setup_reps as u64)),
        ("slices", Json::from(run::SLICES as u64)),
        ("frozen", Json::Obj(frozen)),
        ("flush_policy", Json::str("engine default: one WAL sync per commit")),
        ("server_config", Json::str("ServerConfig::default()")),
        (
            "env_ignored",
            Json::obj(vec![
                ("prefixes", strs(sys::SCRUBBED_ENV_PREFIXES)),
                ("names", strs(sys::SCRUBBED_ENV_NAMES)),
                ("removed_this_run", Json::Arr(removed_env.into_iter().map(Json::Str).collect())),
            ]),
        ),
        (
            "calib_ms",
            Json::obj(vec![("before", Json::Num(calib_before)), ("after", Json::Num(calib_after))]),
        ),
        ("claim", Json::Null),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("calib_ms before={calib_before:.1} after={calib_after:.1}");
    println!("wrote {}", out.display());
    // The document is on disk before a failure turns the exit code.
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    // Before any thread exists: no ambient knob may reach the program under
    // test.
    let removed_env = sys::scrub_env();
    let outcome = if args.flag("--benchmark-json") {
        print!("{}", metrics::benchmark_json(RUN_SECONDS).pretty());
        Ok(ExitCode::SUCCESS)
    } else if args.flag("--interactions") {
        print!("{}", metrics::interactions_markdown());
        Ok(ExitCode::SUCCESS)
    } else if let Some(files) = args.values("--compare", 2) {
        compare::run(&files[0], &files[1])
    } else if args.flag("--compare") {
        Err("--compare needs two suite documents".into())
    } else if let Some(name) = args.values("--workload", 1) {
        single(&args, &name[0])
    } else {
        suite(&args, removed_env)
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All four workloads at 1/100 scale, end to end and traced: every
    /// metric is present by name and finite, and no operation fails.
    #[test]
    fn smoke_run_reports_every_metric_and_fails_nothing() {
        for name in workload::NAMES {
            let w = workload::create(name, 42, true).expect("known workload");
            let r = run::e2e(w.as_ref(), 0.4, 1);
            assert_eq!(r.tally.failed, 0, "{name}: {:?}", r.tally.problems);
            assert!(r.tally.attempted > 0 && r.view.ok_ops > 0, "{name}");
            for m in END_TO_END {
                let value = r.metrics.get(m.name).copied();
                assert!(
                    value.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{name} {}: {value:?}",
                    m.name
                );
            }

            let w = workload::create(name, 42, true).expect("known workload");
            let (layers, tally) = traced_run(w.as_ref(), 0.4);
            assert_eq!(tally.failed, 0, "{name}: {:?}", tally.problems);
            assert_eq!(layers["client.failed_ops_ratio"], 0.0, "{name}");
            assert_eq!(layers.len(), PER_LAYER.len(), "{name}");
            for layer in PER_LAYER {
                assert!(
                    layers.get(layer.name).is_some_and(|v| v.is_finite()),
                    "{name} {}",
                    layer.name
                );
            }
            // The ledger conserves: the layers sum to the traced round trip.
            let parts: f64 = [
                "server.wire.self_us",
                "server.queue.self_us",
                "server.service.self_us",
                "bql.translate_us",
                "unidb.sql.parse_us",
                "unidb.plan.self_us",
                "unidb.exec.execute_us",
                "unidb.txn.commit_self_us",
            ]
            .iter()
            .map(|l| layers[*l])
            .sum();
            let round_trip = layers["trace.round_trip_us"];
            assert!(round_trip > 0.0 && (parts - round_trip).abs() < 1e-6 * round_trip, "{name}");
            let line = result_line(layers.iter().map(|(k, v)| (k.as_str(), *v)), &tally);
            let parsed = Json::parse(&line).expect("the result line is JSON");
            assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
            let trace = sys::out_dir().join(format!("trace-{name}.json"));
            let spans = Json::parse(&std::fs::read_to_string(trace).expect("trace file written"));
            assert!(spans.is_ok_and(|doc| doc.get("spans").is_some()), "{name}");
        }
    }
}
