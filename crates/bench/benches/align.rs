//! Genomic kernels against their per-symbol references, same run, same data.
//!
//! Prints one JSON line on stdout (the committed `BENCH_align.json`) and a
//! human summary on stderr. Every entry times the kernel and the retained
//! reference (`crates/core/tests/reference/mod.rs`, the code the kernels
//! replaced) over the same 20 000 fragments in this process and reports
//! nanoseconds per nucleotide for both; `ratio` — reference ÷ kernel — is
//! the only figure meant to be compared across captures or gated.
//!
//! `cargo bench -p genalg-bench --bench align [-- --smoke]` (`--smoke`: 2 000
//! fragments, for CI).

use genalg::core::align::ResemblesQuery;
use genalg::core::seq::ops::kmers;
use genalg::core::seq::Pattern;
use genalg::prelude::*;
use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[path = "../../core/tests/reference/mod.rs"]
#[allow(dead_code)]
mod reference;

/// Best of three: the least-disturbed pass is the closest to the work.
fn best_ns(mut pass: impl FnMut() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..3 {
        let start = Instant::now();
        out = black_box(pass());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    (best, out)
}

struct Entry {
    name: &'static str,
    what: &'static str,
    nucleotides: usize,
    kernel_ns: f64,
    reference_ns: f64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke { 2_000 } else { 20_000 };
    let mut generator = RepoGenerator::new(GeneratorConfig {
        seed: 42,
        error_rate: 0.0,
        min_len: 150,
        max_len: 400,
        ..Default::default()
    });
    let frags: Vec<DnaSeq> = generator.records(n).into_iter().map(|r| r.sequence).collect();
    let total: usize = frags.iter().map(DnaSeq::len).sum();
    let mut entries = Vec::new();

    // contains: a 7-mer (the scan path below the index's word size) and a
    // 20-mer cut from a fragment.
    let patterns =
        [DnaSeq::from_text("GATTACA").unwrap(), frags[n / 2].subseq(40, 60).expect("long enough")];
    let (kernel_ns, hits) = best_ns(|| {
        patterns
            .iter()
            .map(|p| {
                let compiled = Pattern::new(p.view());
                frags.iter().filter(|f| compiled.is_in(f.view())).count()
            })
            .sum()
    });
    let (reference_ns, want) = best_ns(|| {
        patterns
            .iter()
            .map(|p| frags.iter().filter(|f| reference::find_from(f, p, 0).is_some()).count())
            .sum()
    });
    assert_eq!(hits, want, "contains kernel disagrees with its reference");
    entries.push(Entry {
        name: "contains_scan",
        what: "shift-and search, pattern compiled once, vs per-symbol compare at every start",
        nucleotides: total * patterns.len(),
        kernel_ns,
        reference_ns,
    });

    let (kernel_ns, a) =
        best_ns(|| frags.iter().map(|f| (f.gc_content() * 1e6) as usize).sum::<usize>());
    let (reference_ns, b) =
        best_ns(|| frags.iter().map(|f| (reference::gc_content(f) * 1e6) as usize).sum());
    assert_eq!(a, b, "gc_content kernel disagrees with its reference");
    entries.push(Entry {
        name: "gc_content",
        what: "256-entry byte table vs one IupacDna per symbol",
        nucleotides: total,
        kernel_ns,
        reference_ns,
    });

    let (kernel_ns, a) = best_ns(|| frags.iter().map(|f| kmers(f, 8).len()).sum());
    let (reference_ns, b) = best_ns(|| frags.iter().map(|f| reference::kmers(f, 8).len()).sum());
    assert_eq!(a, b, "kmers kernel disagrees with its reference");
    entries.push(Entry {
        name: "kmers",
        what: "rolling 2-bit window over packed bytes vs Option<IupacDna> per symbol",
        nucleotides: total,
        kernel_ns,
        reference_ns,
    });

    // resembles: one 120-nt query against every fragment. Nearly all pairs
    // are unrelated, which is the case the q-gram screen exists for; the
    // reference aligns every pair.
    let query = frags[n / 3].subseq(10, 130).expect("long enough");
    let subjects = &frags[..if smoke { 200 } else { 2_000 }];
    let subject_nt: usize = subjects.iter().map(DnaSeq::len).sum();
    let (kernel_ns, a) = best_ns(|| {
        let prepared = ResemblesQuery::new(query.view(), 0.9, 0.9);
        subjects.iter().filter(|f| prepared.matches(f.view())).count()
    });
    let (reference_ns, b) =
        best_ns(|| subjects.iter().filter(|f| reference::resembles(f, &query, 0.9, 0.9)).count());
    assert_eq!(a, b, "resembles disagrees with the plain alignment");
    entries.push(Entry {
        name: "resembles_screen",
        what: "q-gram count bound in front of the local alignment vs the alignment on every pair",
        nucleotides: subject_nt,
        kernel_ns,
        reference_ns,
    });

    // Through SQL: the literal pattern is bound once per statement; wrapped
    // in a function call it is no literal, and every row takes the plain
    // call — decode, resolve, fail, parse the text, resolve again.
    let db = Database::in_memory();
    Adapter::install(&db).expect("adapter installs");
    db.execute("CREATE TABLE frags (id INT, seq dna)").expect("ddl");
    for (chunk, rows) in frags.chunks(200).enumerate() {
        let values: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, s)| format!("({}, dna('{}'))", chunk * 200 + i, s.to_text()))
            .collect();
        db.execute(&format!("INSERT INTO frags VALUES {}", values.join(","))).expect("insert");
    }
    let count = |sql: &str| db.execute(sql).expect("runs").rows[0][0].as_int().expect("a count");
    let (kernel_ns, a) =
        best_ns(|| count("SELECT count(*) FROM frags WHERE contains(seq, 'GATTACA')") as usize);
    let (reference_ns, b) = best_ns(|| {
        count("SELECT count(*) FROM frags WHERE contains(seq, coalesce('GATTACA'))") as usize
    });
    assert_eq!(a, b, "bound and plain call sites disagree");
    entries.push(Entry {
        name: "sql_contains_bound_vs_unbound",
        what: "whole statement, serial scan: literal bound per statement vs the plain per-row call",
        nucleotides: total,
        kernel_ns,
        reference_ns,
    });

    let results: Vec<String> = entries
        .iter()
        .map(|e| {
            let (k, r) =
                (e.kernel_ns / e.nucleotides as f64, e.reference_ns / e.nucleotides as f64);
            eprintln!("{:32} {k:8.3} ns/nt   reference {r:8.3} ns/nt   {:6.1}x", e.name, r / k);
            format!(
                "{{\"name\":\"{}\",\"what\":\"{}\",\"nucleotides\":{},\
                 \"kernel_ns_per_nt\":{k:.4},\"reference_ns_per_nt\":{r:.4},\"ratio\":{:.2}}}",
                e.name,
                e.what,
                e.nucleotides,
                r / k
            )
        })
        .collect();
    println!(
        "{{\"bench\":\"align\",\"captured\":{},\"nproc\":{},\"smoke\":{smoke},\"fragments\":{n},\
         \"gated\":\"ratio\",\"results\":[{}]}}",
        SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        results.join(",")
    );
}
