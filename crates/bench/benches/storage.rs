//! Criterion bench for the §4.4 storage-design decisions:
//! * compact pointer-free encodings versus a naive text codec (the
//!   "enormous conversion costs" the paper warns about);
//! * packed 4-bit sequences versus plain ASCII for in-memory operations;
//! * heap-file behaviour, including overflow chains for page-sized
//!   genomic payloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genalg::core::compact::Compact;
use genalg::prelude::*;
use genalg::unidb::index::btree::BTreeIndex;
use genalg::unidb::storage::heap::HeapFile;
use genalg::unidb::{Database, Datum, FaultVfs};
use std::path::Path;
use std::sync::Arc;

fn bench_encodings(c: &mut Criterion) {
    let mut generator = RepoGenerator::new(GeneratorConfig { seed: 1, ..Default::default() });
    let mut group = c.benchmark_group("storage/dna_codec");
    for len in [1_000usize, 100_000] {
        let seq = generator.random_dna(len);
        // Compact §4.4 encoding: packed payload, varint framing.
        group.bench_with_input(BenchmarkId::new("compact_roundtrip", len), &seq, |b, seq| {
            b.iter(|| {
                let bytes = seq.to_bytes();
                DnaSeq::from_bytes(&bytes).unwrap().len()
            })
        });
        // Naive alternative: ASCII text out, full re-parse in.
        group.bench_with_input(BenchmarkId::new("text_roundtrip", len), &seq, |b, seq| {
            b.iter(|| {
                let text = seq.to_text();
                DnaSeq::from_text(&text).unwrap().len()
            })
        });
    }
    group.finish();

    // Size comparison is part of the claim; print it once.
    let seq = generator.random_dna(100_000);
    println!(
        "payload sizes for 100 kb DNA: compact = {} bytes, text = {} bytes",
        seq.to_bytes().len(),
        seq.to_text().len()
    );
}

fn bench_gene_codec(c: &mut Criterion) {
    let mut generator = RepoGenerator::new(GeneratorConfig { seed: 2, ..Default::default() });
    let gene = generator.gene_with_structure("big", 20, 300);
    let mut group = c.benchmark_group("storage/gene_codec");
    group.bench_function("compact_encode", |b| b.iter(|| gene.to_bytes().len()));
    let bytes = gene.to_bytes();
    group.bench_function("compact_decode", |b| {
        b.iter(|| genalg::core::gdt::Gene::from_bytes(&bytes).unwrap().exonic_len())
    });
    group.bench_function("xml_roundtrip", |b| {
        b.iter(|| {
            let xml =
                genalg::xml::to_xml(&[genalg::core::algebra::Value::Gene(Box::new(gene.clone()))]);
            genalg::xml::from_xml(&xml).unwrap().len()
        })
    });
    group.finish();
}

fn bench_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/heap");
    group.sample_size(10);
    group.bench_function("insert_1000_small", |b| {
        b.iter(|| {
            let mut heap = HeapFile::default();
            for i in 0..1000u32 {
                heap.insert(&i.to_le_bytes()).unwrap();
            }
            heap.len()
        })
    });
    group.bench_function("insert_20_overflow_100kb", |b| {
        let payload = vec![7u8; 100_000];
        b.iter(|| {
            let mut heap = HeapFile::default();
            for _ in 0..20 {
                heap.insert(&payload).unwrap();
            }
            heap.len()
        })
    });
    // Scan over a prebuilt heap.
    let mut heap = HeapFile::default();
    for i in 0..5000u32 {
        heap.insert(&i.to_le_bytes()).unwrap();
    }
    group.bench_function("scan_5000", |b| {
        b.iter(|| {
            let mut rows = 0usize;
            for page_no in 0..heap.num_pages() {
                heap.page_visit_rows_rid(page_no, &mut |_, _| {
                    rows += 1;
                    Ok(())
                })
                .unwrap();
            }
            rows
        })
    });
    group.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/btree");
    group.sample_size(10);
    group.bench_function("insert_10k_ints", |b| {
        b.iter(|| {
            let mut tree = BTreeIndex::new(false);
            for i in 0..10_000i64 {
                tree.insert(
                    Datum::Int((i * 7919) % 10_000),
                    genalg::unidb::Rid { page: i as u32, slot: 0 },
                )
                .unwrap();
            }
            tree.len()
        })
    });
    let mut tree = BTreeIndex::new(false);
    for i in 0..10_000i64 {
        tree.insert(Datum::Int(i), genalg::unidb::Rid { page: i as u32, slot: 0 }).unwrap();
    }
    group.bench_function("point_lookup", |b| b.iter(|| tree.get(&Datum::Int(7321)).len()));
    group.bench_function("range_scan_100", |b| {
        b.iter(|| {
            tree.range(
                std::ops::Bound::Included(&Datum::Int(5000)),
                std::ops::Bound::Excluded(&Datum::Int(5100)),
            )
            .len()
        })
    });
    group.finish();
}

/// Build a durable database whose WAL holds `n` logged inserts (no
/// checkpoint), entirely on an in-memory fault-free VFS.
fn db_with_wal(vfs: &FaultVfs, n: usize) -> genalg::unidb::DbResult<()> {
    let db = Database::open_with_vfs(Path::new("/replaybench"), Arc::new(vfs.clone()))?;
    db.recover()?;
    db.execute_as("CREATE TABLE public.t (id INT, val TEXT)", &genalg::unidb::Role::Maintainer)?;
    for i in 0..n {
        db.execute_as(
            &format!("INSERT INTO public.t VALUES ({i}, 'r{i}')"),
            &genalg::unidb::Role::Maintainer,
        )?;
    }
    Ok(())
}

/// Recovery cost as a function of WAL length: reopen + replay, no faults.
/// Prints one JSON document so CI can track replay latency over time.
fn bench_wal_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/wal_replay");
    group.sample_size(10);
    let mut json_rows = Vec::new();
    for n in [100usize, 1_000, 4_000] {
        let vfs = FaultVfs::reliable();
        db_with_wal(&vfs, n).expect("reliable VFS");
        group.bench_with_input(BenchmarkId::new("open_and_recover", n), &n, |b, _| {
            b.iter(|| {
                let db = Database::open_with_vfs(Path::new("/replaybench"), Arc::new(vfs.clone()))
                    .unwrap();
                db.recover().unwrap();
                db
            })
        });
        // One timed sample outside criterion for the JSON summary.
        let start = std::time::Instant::now();
        let db = Database::open_with_vfs(Path::new("/replaybench"), Arc::new(vfs.clone())).unwrap();
        db.recover().unwrap();
        let micros = start.elapsed().as_micros();
        json_rows.push(format!("{{\"wal_records\": {n}, \"replay_us\": {micros}}}"));
    }
    group.finish();
    println!(
        "{{\"bench\": \"wal_replay\", \"unit\": \"us\", \"points\": [{}]}}",
        json_rows.join(", ")
    );
}

criterion_group!(
    benches,
    bench_encodings,
    bench_gene_codec,
    bench_heap,
    bench_btree,
    bench_wal_replay
);
criterion_main!(benches);
