//! Genomic kernels against their per-symbol references, same run, same data.
//!
//! Prints one JSON line on stdout (the committed `BENCH_align.json`) and a
//! human summary on stderr. Every entry times the kernel and the retained
//! reference (`crates/core/tests/reference/mod.rs`, the code the kernels
//! replaced; for `kmer_build`, adding one fragment at a time) over the same
//! 20 000 fragments in this process and reports
//! nanoseconds per nucleotide for both; `ratio` — reference ÷ kernel — is
//! the only figure meant to be compared across captures or gated.
//!
//! `cargo bench -p genalg-bench --bench align [-- --smoke]` (`--smoke`: 2 000
//! fragments, for CI).

use genalg::core::align::ResemblesQuery;
use genalg::core::compact::dna_view;
use genalg::core::index::KmerIndex;
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

/// Best of nine for a kernel and its reference, their passes taken in
/// turn, so a disturbed stretch of the run slows both sides of the ratio.
fn best_in_turn(
    mut kernel: impl FnMut() -> usize,
    mut reference: impl FnMut() -> usize,
) -> [(f64, usize); 2] {
    let mut best = [(f64::INFINITY, 0); 2];
    for _ in 0..9 {
        let sides: [&mut dyn FnMut() -> usize; 2] = [&mut kernel, &mut reference];
        for (side, pass) in sides.into_iter().enumerate() {
            let start = Instant::now();
            let out = black_box(pass());
            best[side] = (best[side].0.min(start.elapsed().as_nanos() as f64), out);
        }
    }
    best
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
    // Copy the sequences out back to back while the records still hold
    // theirs: left where the generator put them, they are scattered among
    // each record's other allocations, and a kernel streaming through them
    // would be timed on that layout (about 2x) rather than on its work.
    let records = generator.records(n);
    let frags: Vec<DnaSeq> = records.iter().map(|r| r.sequence.clone()).collect();
    let organisms: Vec<String> =
        records.iter().map(|r| r.organism.clone().expect("repogen assigns an organism")).collect();
    drop(records);
    let total: usize = frags.iter().map(DnaSeq::len).sum();
    let mut entries = Vec::new();

    // contains: a 7-mer and a 20-mer cut from a fragment, searched in every
    // fragment as a table scan does.
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

    // Building the k-mer index: one counting pass, lists allocated at
    // their length, keys appended in order — against adding the fragments
    // one at a time. The probes below run on the built index; the added
    // one must give them the same candidates.
    let keyed = || frags.iter().enumerate().map(|(i, f)| (i as u64, f.view()));
    let add_each = || {
        let mut index = KmerIndex::new(8);
        keyed().for_each(|(key, f)| index.add(key, f));
        index
    };
    let [(kernel_ns, built), (reference_ns, added)] = best_in_turn(
        || KmerIndex::build(8, keyed()).indexed_positions(),
        || add_each().indexed_positions(),
    );
    assert_eq!(built, added, "the bulk build indexed other windows than adding did");
    entries.push(Entry {
        name: "kmer_build",
        what: "two-pass counting sort into exact-size posting lists vs one add per fragment",
        nucleotides: total,
        kernel_ns,
        reference_ns,
    });
    let (index, added) = (KmerIndex::build(8, keyed()), add_each());

    // The k-mer index's filter: 12- to 24-mers cut from fragments, each
    // answered by intersecting posting lists, against checking every
    // fragment for every k-mer of the pattern. The index side takes
    // microseconds, so it is timed over `ROUNDS` passes and divided.
    const ROUNDS: usize = 100;
    let probes: Vec<DnaSeq> = (0..10)
        .map(|i| frags[(i * 1_999 + 7) % n].subseq(30, 42 + i).expect("long enough"))
        .collect();
    let shorts: Vec<DnaSeq> = std::iter::once(DnaSeq::from_text("GATTACA").unwrap())
        .chain((0..9).map(|i| frags[(i * 2_003 + 11) % n].subseq(50 + i, 57 + i).expect("long")))
        .collect();
    for p in probes.iter().chain(&shorts) {
        assert_eq!(index.candidates(p), added.candidates(p), "built and added indexes disagree");
    }
    drop(added);
    let (kernel_ns, _) = best_ns(|| {
        let rounds = (0..ROUNDS).map(|_| {
            probes
                .iter()
                .map(|p| index.candidates(p).expect("strict, long enough").len())
                .sum::<usize>()
        });
        rounds.sum::<usize>() / ROUNDS
    });
    let got: Vec<Option<Vec<u64>>> = probes.iter().map(|p| index.candidates(p)).collect();
    let want: Vec<Option<Vec<u64>>> =
        probes.iter().map(|p| reference::kmer_candidates(&frags, p, 8)).collect();
    assert_eq!(got, want, "kmer index disagrees with its reference");
    let (reference_ns, _) = best_ns(|| {
        probes.iter().map(|p| reference::kmer_candidates(&frags, p, 8).expect("covers").len()).sum()
    });
    entries.push(Entry {
        name: "kmer_probe",
        what:
            "sorted posting lists intersected rarest-first vs every fragment's k-mers per pattern",
        nucleotides: total * probes.len(),
        kernel_ns: kernel_ns / ROUNDS as f64,
        reference_ns,
    });

    // Below the word size: 7-mers answered by the union of the lists of
    // the 8-mers they can lie inside, against searching every fragment for
    // the pattern. The fragments are strict and longer than k, so the
    // candidates are exactly the fragments that contain the pattern.
    let (kernel_ns, _) = best_ns(|| {
        let rounds = (0..ROUNDS).map(|_| {
            shorts.iter().map(|p| index.candidates(p).expect("one short of k").len()).sum::<usize>()
        });
        rounds.sum::<usize>() / ROUNDS
    });
    let got: Vec<Vec<u64>> =
        shorts.iter().map(|p| index.candidates(p).expect("one short of k")).collect();
    let containing = |p: &DnaSeq| -> Vec<u64> {
        (0..n)
            .filter(|&i| reference::find_from(&frags[i], p, 0).is_some())
            .map(|i| i as u64)
            .collect()
    };
    let want: Vec<Vec<u64>> = shorts.iter().map(containing).collect();
    assert_eq!(got, want, "7-mer candidates are not the fragments that contain the pattern");
    let (reference_ns, _) = best_ns(|| shorts.iter().map(|p| containing(p).len()).sum());
    entries.push(Entry {
        name: "kmer_probe_short",
        what: "7-mers: union of the covering 8-mers' lists vs per-symbol search of every fragment",
        nucleotides: total * shorts.len(),
        kernel_ns: kernel_ns / ROUNDS as f64,
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

    // The genomic workload's grouped statement, in process: a TEXT key and
    // two algebra calls per row, against the `gc_content` kernel run over
    // the same stored payloads where they lie. The ratio is kernel time ÷
    // statement time; 0.5 is the statement within 2x of its kernel.
    db.execute("CREATE TABLE seqs (id INT, organism TEXT, seq dna)").expect("ddl");
    for (chunk, rows) in frags.chunks(200).enumerate() {
        let values: Vec<String> = rows
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let id = chunk * 200 + i;
                format!("({id}, '{}', dna('{}'))", organisms[id], s.to_text())
            })
            .collect();
        db.execute(&format!("INSERT INTO seqs VALUES {}", values.join(","))).expect("insert");
    }
    let grouped = "SELECT organism, count(*), avg(gc_content(seq)), max(seq_length(seq)) \
                   FROM seqs WHERE id >= 0 GROUP BY organism";
    let payloads = db.execute("SELECT seq FROM seqs").expect("runs").rows;
    let gc_sum = || {
        let gc = payloads.iter().map(|row| match &row[0] {
            Datum::Opaque(_, bytes) => dna_view(bytes).expect("stored dna").gc_content(),
            other => panic!("{other:?} is no payload"),
        });
        gc.map(|g| (g * 1e6) as usize).sum::<usize>()
    };
    // At smoke scale one pass is well under a millisecond.
    let [(kernel_ns, groups), (reference_ns, _)] =
        best_in_turn(|| db.execute(grouped).expect("runs").rows.len(), gc_sum);
    // Same sums in the same order: the statement's averages are exact.
    let mut want: Vec<(String, i64, f64)> = Vec::new();
    for (org, f) in organisms.iter().zip(&frags) {
        match want.iter_mut().find(|(o, ..)| o == org) {
            Some(g) => (g.1, g.2) = (g.1 + 1, g.2 + f.gc_content()),
            None => want.push((org.clone(), 1, f.gc_content())),
        }
    }
    let got = db.execute(grouped).expect("runs").rows;
    assert_eq!(groups, want.len(), "one row per organism");
    for (row, (org, count, gc)) in got.iter().zip(&want) {
        let avg = Datum::Float(gc / *count as f64);
        assert_eq!(row[..3], [Datum::Text(org.clone()), Datum::Int(*count), avg], "{org}");
    }
    entries.push(Entry {
        name: "grouped_fold",
        what: "GROUP BY organism with gc_content and seq_length per row vs the gc_content kernel",
        nucleotides: total,
        kernel_ns,
        reference_ns,
    });

    // The olap workload's grouped statement, in process: an INT key and
    // `count`/`sum` over INT columns of column images, against a plain loop
    // over the same `i64`s. Ten rows per fragment; `nucleotides` counts
    // rows. The ratio is loop time ÷ statement time, as for `grouped_fold`.
    let rows = 10 * n;
    db.execute("CREATE TABLE ints (id INT, grp INT, val INT)").expect("ddl");
    for at in (0..rows).step_by(500) {
        let values: Vec<String> = (at..(at + 500).min(rows))
            .map(|id| format!("({id}, {}, {})", id % 16, (id * 7919) % 1000))
            .collect();
        db.execute(&format!("INSERT INTO ints VALUES {}", values.join(","))).expect("insert");
    }
    let int_grouped = "SELECT grp, count(*), sum(val) FROM ints WHERE id >= 0 GROUP BY grp";
    let ints: Vec<(usize, i64)> = db
        .execute("SELECT grp, val FROM ints")
        .expect("runs")
        .rows
        .iter()
        .map(|row| match row[..] {
            [Datum::Int(g), Datum::Int(v)] => (g as usize, v),
            ref other => panic!("{other:?} is no (grp, val)"),
        })
        .collect();
    let fold = || {
        let mut groups = [(0i64, 0i64); 16];
        for &(g, v) in &ints {
            let (count, sum) = &mut groups[g];
            (*count, *sum) = (*count + 1, *sum + v);
        }
        groups
    };
    let [(kernel_ns, _), (reference_ns, _)] = best_in_turn(
        || db.execute(int_grouped).expect("runs").rows.len(),
        || black_box(fold()).len(),
    );
    let want: Vec<Vec<Datum>> = fold()
        .iter()
        .enumerate()
        .map(|(g, &(count, sum))| vec![Datum::Int(g as i64), Datum::Int(count), Datum::Int(sum)])
        .collect();
    assert_eq!(db.execute(int_grouped).expect("runs").rows, want, "the loop's groups");
    entries.push(Entry {
        name: "int_fold",
        what: "GROUP BY an INT key with count and sum over INT columns vs a plain loop",
        nucleotides: rows,
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
