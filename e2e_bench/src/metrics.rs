//! Every metric the benchmark reports, by name, with its unit — the one
//! table `BENCHMARK.json`, the reports and `--compare` are all built from.

use crate::json::Json;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees.
///
/// Bounds come from the run-to-run spread (interquartile distance ÷ median
/// of ten runs, each with another seed) on the 2-core box the benchmark was
/// sized on. That box's CPU capacity itself drifts by about a tenth between
/// minutes (process CPU time per operation moves with it), so every timing
/// shows a spread of 5–12% whatever is measured, and none can hold the
/// tenth the issue hoped for. Timings therefore carry the widest bound the
/// benchmark contract allows; `space_amp`, a count ratio, repeats to half a
/// percent and is bounded at four times that.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "latency_p95_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "space_amp", unit: "ratio", better: "lower", bound: 0.02 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = module. Times are microseconds per statement weighted by the
/// traced mix unless the name says otherwise; counts are exact sums over
/// the traced run's fixed pass.
pub const PER_LAYER: &[PerLayer] = &[
    layer("server.protocol.req_codec_us", "us", "lower"),
    layer("server.protocol.resp_codec_us", "us", "lower"),
    layer("server.protocol.resp_bytes", "bytes", "lower"),
    layer("server.wire.self_us", "us", "lower"),
    layer("server.queue.self_us", "us", "lower"),
    layer("server.queue.wait_p95_us", "us", "lower"),
    layer("server.queue.peak_depth", "count", "lower"),
    layer("server.queue.busy_shed", "count", "lower"),
    layer("server.cache.plan_hit_ratio", "ratio", "higher"),
    layer("server.cache.result_hit_ratio", "ratio", "higher"),
    layer("server.cache.hit_us", "us", "lower"),
    layer("server.cache.result_bytes", "bytes", "lower"),
    layer("server.service.self_us", "us", "lower"),
    layer("unidb.sql.parse_us", "us", "lower"),
    layer("unidb.sql.stmt_bytes", "bytes", "lower"),
    layer("bql.translate_us", "us", "lower"),
    layer("obs.fingerprint_us", "us", "lower"),
    layer("obs.spans_dropped", "count", "lower"),
    layer("unidb.plan.self_us", "us", "lower"),
    layer("unidb.plan.est_rows_ratio", "ratio", "lower"),
    layer("unidb.exec.execute_us", "us", "lower"),
    layer("unidb.exec.scan_us", "us", "lower"),
    layer("unidb.exec.join_us", "us", "lower"),
    layer("unidb.exec.agg_us", "us", "lower"),
    layer("unidb.exec.topn_us", "us", "lower"),
    layer("unidb.exec.rows_out", "count", "lower"),
    layer("unidb.exec.batches", "count", "lower"),
    layer("unidb.exec.partitions", "count", "lower"),
    layer("unidb.exec.build_rows", "count", "lower"),
    layer("unidb.exec.analyze_overhead_ratio", "ratio", "lower"),
    layer("unidb.storage.pages_read", "count", "lower"),
    layer("unidb.storage.pages_skipped", "count", "higher"),
    layer("unidb.storage.skip_ratio", "ratio", "higher"),
    layer("unidb.storage.segments_decoded", "count", "lower"),
    layer("unidb.storage.pages_read_per_result_row", "ratio", "lower"),
    layer("unidb.storage.pool_hit_ratio", "ratio", "higher"),
    layer("unidb.storage.pool_evictions", "count", "lower"),
    layer("unidb.storage.heap_pages", "count", "lower"),
    layer("unidb.storage.insert_rows_per_s", "1/s", "higher"),
    layer("unidb.storage.wal_appends", "count", "lower"),
    layer("unidb.storage.wal_syncs", "count", "lower"),
    layer("unidb.storage.wal_bytes", "bytes", "lower"),
    layer("unidb.storage.wal_bytes_per_user_byte", "ratio", "lower"),
    layer("unidb.storage.syncs_per_commit", "ratio", "lower"),
    layer("unidb.storage.checkpoint_ms", "ms", "lower"),
    layer("unidb.storage.recover_ms", "ms", "lower"),
    layer("unidb.index.btree_probe_us", "us", "lower"),
    layer("unidb.index.udi_speedup_ratio", "ratio", "higher"),
    layer("unidb.txn.commit_us", "us", "lower"),
    layer("unidb.txn.commit_self_us", "us", "lower"),
    layer("unidb.txn.begun", "count", "lower"),
    layer("unidb.txn.committed", "count", "higher"),
    layer("unidb.txn.aborted", "count", "lower"),
    layer("unidb.txn.conflicts", "count", "lower"),
    layer("unidb.txn.versions_pruned", "count", "higher"),
    layer("unidb.txn.read_in_txn_ratio", "ratio", "lower"),
    layer("adapter.glue_us_per_value", "us", "lower"),
    layer("unidb.expr.udf_embed_us_per_row", "us", "lower"),
    layer("core.align.resembles_us_per_pair", "us", "lower"),
    layer("core.align.dp_cells_per_s", "1/s", "higher"),
    layer("core.align.seed_extend_us_per_pair", "us", "lower"),
    layer("core.index.kmer_probe_us", "us", "lower"),
    layer("core.index.kmer_candidates_per_hit", "ratio", "lower"),
    layer("core.index.kmer_build_ms", "ms", "lower"),
    layer("core.index.kmer_positions", "count", "lower"),
    layer("client.latency_p99_us", "us", "lower"),
    layer("client.read_p50_us", "us", "lower"),
    layer("client.read_p95_us", "us", "lower"),
    layer("client.write_p50_us", "us", "lower"),
    layer("client.write_p95_us", "us", "lower"),
    layer("client.slice_spread", "ratio", "lower"),
    layer("client.failed_ops_ratio", "ratio", "lower"),
    layer("client.peak_rss_mib", "MiB", "lower"),
    layer("trace.round_trip_us", "us", "lower"),
    layer("trace.unexplained_us", "us", "lower"),
    layer("trace.negative_self_count", "count", "lower"),
    layer("trace.vs_untraced_ratio", "ratio", "lower"),
    layer("trace.dominant_share", "ratio", "higher"),
];

pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDoc] = &[
    WorkloadDoc {
        name: "oltp_point",
        why: "Zipf point lookups through a B-tree: wire, queue, caches, parse and plan are nearly \
              all of the latency, the executor almost none",
    },
    WorkloadDoc {
        name: "olap_scan",
        why: "scans, Top-N, grouping and a hash join over a table 2.7x the buffer pool, fresh \
              literals: executor and storage decode are nearly all of the time",
    },
    WorkloadDoc {
        name: "genomic_search",
        why: "contains through and past the k-mer index, resembles, the central dogma and BQL: \
              UDF evaluation, adapter glue, alignment and the genomic index dominate",
    },
    WorkloadDoc {
        name: "mixed_rw_durable",
        why: "60% reads and 40% write transactions on a durable database: transactions, the WAL, \
              index maintenance and cache invalidation do the work",
    },
];

/// Which layer metrics should move which end-to-end metric, on which
/// workload — written down before anything was measured. `layers` are
/// name prefixes into [`PER_LAYER`].
pub struct Interaction {
    pub layers: &'static [&'static str],
    pub moves: &'static [&'static str],
    pub on: &'static [&'static str],
    pub not_on: &'static [&'static str],
}

pub const INTERACTIONS: &[Interaction] = &[
    Interaction {
        layers: &["server.protocol.", "server.wire.", "server.queue.", "server.service."],
        moves: &["latency_p50_us", "cpu_ms_per_op"],
        on: &["oltp_point"],
        not_on: &["olap_scan", "genomic_search"],
    },
    Interaction {
        layers: &["server.cache."],
        moves: &["throughput_ops_s"],
        on: &["oltp_point", "mixed_rw_durable"],
        not_on: &["olap_scan"],
    },
    Interaction {
        layers: &["unidb.sql.", "unidb.plan.", "obs.fingerprint_us"],
        moves: &["latency_p50_us"],
        on: &["oltp_point"],
        not_on: &["olap_scan"],
    },
    Interaction {
        layers: &[
            "unidb.exec.",
            "unidb.storage.pages_",
            "unidb.storage.skip_ratio",
            "unidb.storage.segments_decoded",
            "unidb.storage.pool_",
        ],
        moves: &["throughput_ops_s", "latency_p95_us", "cpu_ms_per_op"],
        on: &["olap_scan"],
        not_on: &["oltp_point"],
    },
    Interaction {
        layers: &["unidb.index.btree_probe_us"],
        moves: &["latency_p50_us"],
        on: &["oltp_point", "mixed_rw_durable"],
        not_on: &["olap_scan"],
    },
    Interaction {
        layers: &[
            "core.align.",
            "core.index.kmer_probe_us",
            "core.index.kmer_candidates_per_hit",
            "adapter.",
            "unidb.expr.",
            "unidb.index.udi_speedup_ratio",
        ],
        moves: &["throughput_ops_s", "latency_p95_us"],
        on: &["genomic_search"],
        not_on: &["oltp_point", "olap_scan", "mixed_rw_durable"],
    },
    Interaction {
        layers: &["unidb.storage.wal_", "unidb.storage.syncs_per_commit", "unidb.txn."],
        moves: &["latency_p95_us", "throughput_ops_s", "space_amp"],
        on: &["mixed_rw_durable"],
        not_on: &["oltp_point", "olap_scan", "genomic_search"],
    },
    Interaction {
        layers: &["unidb.txn.read_in_txn_ratio"],
        moves: &["latency_p50_us"],
        on: &["mixed_rw_durable"],
        not_on: &[],
    },
    Interaction {
        layers: &[
            "unidb.storage.heap_pages",
            "unidb.storage.insert_rows_per_s",
            "core.index.kmer_build_ms",
            "unidb.storage.recover_ms",
        ],
        moves: &["space_amp", "setup_s"],
        on: &["oltp_point", "olap_scan", "genomic_search", "mixed_rw_durable"],
        not_on: &[],
    },
];

/// The interaction table as the README prints it.
pub fn interactions_markdown() -> String {
    // A name ending in `.` or `_` is a prefix: print it as a glob.
    let list = |items: &[&str]| -> String {
        if items.is_empty() {
            return "—".into();
        }
        let cells: Vec<String> = items
            .iter()
            .map(|i| format!("`{i}{}`", if i.ends_with(['.', '_']) { "*" } else { "" }))
            .collect();
        cells.join(", ")
    };
    let mut out = String::from(
        "| layer metrics | should move | on | should not move on |\n|---|---|---|---|\n",
    );
    for row in INTERACTIONS {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            list(row.layers),
            list(row.moves),
            list(row.on),
            list(row.not_on)
        ));
    }
    out
}

/// Layer metrics the interaction table says feed `metric` on `workload`.
pub fn feeding(metric: &str, workload: &str) -> Vec<&'static str> {
    let prefixes: Vec<&str> = INTERACTIONS
        .iter()
        .filter(|i| i.moves.contains(&metric) && i.on.contains(&workload))
        .flat_map(|i| i.layers.iter().copied())
        .collect();
    PER_LAYER
        .iter()
        .map(|l| l.name)
        .filter(|name| prefixes.iter().any(|p| name.starts_with(p)))
        .collect()
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> Json {
    let command = ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path"]
        .into_iter()
        .chain(["e2e_bench/Cargo.toml", "--"])
        .map(Json::str)
        .collect();
    Json::obj(vec![
        ("command", Json::Arr(command)),
        ("paths", Json::Arr(vec![Json::str("e2e_bench")])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| valid_name(n)), "bad name");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
            crate::workload::NAMES.to_vec()
        );
    }

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let run_seconds = committed.get("run_seconds").and_then(Json::as_f64).expect("run_seconds");
        assert_eq!(committed, benchmark_json(run_seconds as u64));
    }

    #[test]
    fn readme_carries_the_interaction_table_verbatim() {
        let readme = include_str!("../README.md");
        assert!(readme.contains(&interactions_markdown()), "run `--interactions` and paste");
    }

    #[test]
    fn every_interaction_row_names_real_metrics() {
        for row in INTERACTIONS {
            for prefix in row.layers {
                assert!(PER_LAYER.iter().any(|l| l.name.starts_with(prefix)), "{prefix}");
            }
            for metric in row.moves {
                assert!(END_TO_END.iter().any(|m| m.name == *metric), "{metric}");
            }
        }
        assert!(feeding("latency_p95_us", "genomic_search").contains(&"core.align.dp_cells_per_s"));
        assert!(feeding("latency_p95_us", "oltp_point").is_empty());
    }
}
