//! Criterion bench for §6.3: genomic operators embedded in SQL, exercised
//! in every clause position over a realistic warehouse table.

use criterion::{criterion_group, criterion_main, Criterion};
use genalg::prelude::*;

const ROWS: usize = 1000;

fn seeded_db() -> (Database, String) {
    let db = Database::in_memory();
    let _adapter = Adapter::install(&db).expect("adapter installs");
    db.execute("CREATE TABLE frags (id INT, organism TEXT, seq dna)").expect("ddl");
    let mut generator = RepoGenerator::new(GeneratorConfig {
        seed: 8,
        error_rate: 0.0,
        min_len: 150,
        max_len: 400,
        ..Default::default()
    });
    let records = generator.records(ROWS);
    db.execute("BEGIN").expect("txn");
    for (i, rec) in records.iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO frags VALUES ({i}, '{}', dna('{}'))",
            rec.organism.as_deref().unwrap_or("?"),
            rec.sequence.to_text()
        ))
        .expect("insert");
    }
    db.execute("COMMIT").expect("txn");
    // A pattern present in the data.
    let donor = &records[ROWS / 2].sequence;
    let pattern = donor.subseq(30, 45).expect("long enough").to_text();
    (db, pattern)
}

fn bench_clauses(c: &mut Criterion) {
    let (db, pattern) = seeded_db();
    let mut group = c.benchmark_group("sql_embedding");
    group.sample_size(10);

    group.bench_function("where_contains_scan_1k", |b| {
        let sql = format!("SELECT id FROM frags WHERE contains(seq, '{pattern}')");
        b.iter(|| db.execute(&sql).unwrap().len())
    });
    group.bench_function("select_gc_projection_1k", |b| {
        b.iter(|| db.execute("SELECT id, gc_content(seq) FROM frags").unwrap().len())
    });
    group.bench_function("group_by_with_genomic_agg_1k", |b| {
        b.iter(|| {
            db.execute(
                "SELECT organism, avg(gc_content(seq)), max(seq_length(seq)) \
                 FROM frags GROUP BY organism",
            )
            .unwrap()
            .len()
        })
    });
    group.bench_function("order_by_genomic_expr_top10", |b| {
        b.iter(|| {
            db.execute("SELECT id FROM frags ORDER BY gc_content(seq) DESC LIMIT 10").unwrap().len()
        })
    });
    group.bench_function("resembles_predicate_100rows", |b| {
        let (db2, pattern2) = {
            // Kept at 100 rows for continuity with earlier captures. The
            // alignment behind `resembles` is quadratic in the sequence
            // length, but only pairs that pass the q-gram bound reach it:
            // an unrelated pair costs ~1.3 ns per nucleotide, against
            // ~1.3 µs aligned (BENCH_align.json, `resembles_screen`).
            let db = Database::in_memory();
            Adapter::install(&db).unwrap();
            db.execute("CREATE TABLE f (id INT, seq dna)").unwrap();
            let mut generator = RepoGenerator::new(GeneratorConfig {
                seed: 9,
                error_rate: 0.0,
                min_len: 150,
                max_len: 200,
                ..Default::default()
            });
            let records = generator.records(100);
            for (i, rec) in records.iter().enumerate() {
                db.execute(&format!(
                    "INSERT INTO f VALUES ({i}, dna('{}'))",
                    rec.sequence.to_text()
                ))
                .unwrap();
            }
            (db, records[50].sequence.to_text())
        };
        let sql = format!("SELECT id FROM f WHERE resembles(seq, '{pattern2}', 0.9, 0.9)");
        b.iter(|| db2.execute(&sql).unwrap().len())
    });
    group.finish();
}

fn bench_bql_overhead(c: &mut Criterion) {
    let mut warehouse = Warehouse::new().expect("boots");
    warehouse
        .add_source(SimulatedRepository::new(
            "s",
            Representation::Relational,
            Capability::Queryable,
        ))
        .unwrap();
    let mut generator = RepoGenerator::new(GeneratorConfig { seed: 10, ..Default::default() });
    for rec in generator.records(200) {
        warehouse.source_mut("s").unwrap().apply(ChangeKind::Insert, rec).unwrap();
    }
    warehouse.refresh().unwrap();

    let mut group = c.benchmark_group("sql_embedding/bql");
    group.sample_size(10);
    group.bench_function("bql_compile_only", |b| {
        b.iter(|| {
            genalg::bql::parse(
                "FIND SEQUENCES LONGER THAN 300 SHOW accession, gc SORTED BY gc DESCENDING TOP 5",
            )
            .unwrap()
            .to_sql()
            .unwrap()
            .len()
        })
    });
    group.bench_function("bql_compile_and_run", |b| {
        b.iter(|| {
            genalg::bql::run(
                warehouse.db(),
                "FIND SEQUENCES LONGER THAN 300 SHOW accession, gc SORTED BY gc DESCENDING TOP 5",
            )
            .unwrap()
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_clauses, bench_bql_overhead);
criterion_main!(benches);
