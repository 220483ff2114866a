//! Criterion bench for §6.5: genomic index structures and the optimizer's
//! use of them — `contains` with and without the k-mer access method, the
//! underlying index primitives, and B-tree versus scan for scalar lookups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genalg::core::index::KmerIndex;
use genalg::prelude::*;

fn seeded_db(rows: usize, with_index: bool) -> (Database, String) {
    let db = Database::in_memory();
    let adapter = Adapter::install(&db).expect("adapter installs");
    db.execute("CREATE TABLE frags (id INT, seq dna)").expect("ddl");
    let mut generator = RepoGenerator::new(GeneratorConfig {
        seed: 21,
        error_rate: 0.0,
        min_len: 200,
        max_len: 300,
        ..Default::default()
    });
    let records = generator.records(rows);
    db.execute("BEGIN").expect("txn");
    for (i, rec) in records.iter().enumerate() {
        db.execute(&format!("INSERT INTO frags VALUES ({i}, dna('{}'))", rec.sequence.to_text()))
            .expect("insert");
    }
    db.execute("COMMIT").expect("txn");
    if with_index {
        adapter.attach_kmer_index(&db, "frags", "seq", 8).expect("index attaches");
    }
    let donor = &records[rows / 2].sequence;
    let pattern = donor.subseq(50, 66).expect("long enough").to_text();
    (db, pattern)
}

fn bench_contains_plans(c: &mut Criterion) {
    let mut group = c.benchmark_group("genomic_index/contains");
    group.sample_size(10);
    for rows in [500usize, 2000] {
        let (scan_db, pattern) = seeded_db(rows, false);
        let (indexed_db, _) = seeded_db(rows, true);
        let sql = format!("SELECT id FROM frags WHERE contains(seq, '{pattern}')");
        group.bench_with_input(BenchmarkId::new("seqscan", rows), &rows, |b, _| {
            b.iter(|| scan_db.execute(&sql).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("kmer_udi", rows), &rows, |b, _| {
            b.iter(|| indexed_db.execute(&sql).unwrap().len())
        });
    }
    group.finish();
}

fn bench_btree_vs_scan(c: &mut Criterion) {
    let db = Database::in_memory();
    Adapter::install(&db).unwrap();
    db.execute("CREATE TABLE t (id INT, payload TEXT)").unwrap();
    db.execute("BEGIN").unwrap();
    for i in 0..5000 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, 'row {i}')")).unwrap();
    }
    db.execute("COMMIT").unwrap();

    let mut group = c.benchmark_group("genomic_index/scalar_lookup_5k");
    group.sample_size(10);
    group.bench_function("seqscan", |b| {
        b.iter(|| db.execute("SELECT payload FROM t WHERE id = 4321").unwrap().len())
    });
    db.execute("CREATE UNIQUE INDEX ON t (id)").unwrap();
    group.bench_function("btree", |b| {
        b.iter(|| db.execute("SELECT payload FROM t WHERE id = 4321").unwrap().len())
    });
    group.bench_function("btree_range_100", |b| {
        b.iter(|| db.execute("SELECT payload FROM t WHERE id BETWEEN 2000 AND 2099").unwrap().len())
    });
    group.finish();
}

fn bench_index_primitives(c: &mut Criterion) {
    let mut generator = RepoGenerator::new(GeneratorConfig {
        seed: 13,
        error_rate: 0.0,
        min_len: 250,
        max_len: 250,
        ..Default::default()
    });
    let seqs: Vec<DnaSeq> = (0..1000).map(|_| generator.random_dna(250)).collect();
    let pattern = seqs[500].subseq(100, 116).unwrap();

    let mut group = c.benchmark_group("genomic_index/primitives");
    group.sample_size(10);
    let keyed = || seqs.iter().enumerate().map(|(i, s)| (i as u64, s.view()));
    group.bench_function("kmer_build_1000x250", |b| {
        b.iter(|| KmerIndex::build(8, keyed()).distinct_kmers())
    });
    let idx = KmerIndex::build(8, keyed());
    group.bench_function("kmer_candidates", |b| {
        b.iter(|| idx.candidates(&pattern).map_or(0, |c| c.len()))
    });
    group.bench_function("naive_scan_1000", |b| {
        b.iter(|| seqs.iter().filter(|s| s.contains(&pattern)).count())
    });
    group.finish();
}

criterion_group!(benches, bench_contains_plans, bench_btree_vs_scan, bench_index_primitives);
criterion_main!(benches);
