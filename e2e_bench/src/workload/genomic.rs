//! `genomic_search`: the paper's own ground (§6.3) — genomic operators in
//! SELECT and WHERE, `contains` through the k-mer access method and past
//! it, `resembles` as the BLAST substitute, the central dogma as UDFs, and
//! BQL on top.
//!
//! Why it exists: UDF evaluation, adapter glue, the alignment DP and the
//! k-mer index dominate. It is the only workload where a seed prefilter or
//! a banded DP can show, and scalar-SQL executor work should leave it flat.
//!
//! The fragment table is named `public.sequences` because that is the
//! table BQL compiles to. The oracle calls `genalg_core` directly on the
//! generator's records; it never asks the engine.

use super::{client_rng, inserts, Check, ClientStream, Loaded, Op, Row, Schedule, Stmt, Workload};
use crate::stats::median;
use genalg_adapter::Adapter;
use genalg_core::algebra::Value;
use genalg_core::align::{local_align_dna, resembles, seed_and_extend, NucleotideScore};
use genalg_core::compact::value_to_bytes;
use genalg_core::dogma::express;
use genalg_core::gdt::Gene;
use genalg_core::index::KmerIndex;
use genalg_core::seq::ops::kmers;
use genalg_core::seq::DnaSeq;
use genalg_repogen::{GeneratorConfig, RepoGenerator};
use genalg_server::{Lang, SessionKind};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use unidb::{Database, Datum, ResultSet, Role};

const KINDS: &[&str] = &[
    "contains_udi",
    "contains_scan",
    "resembles",
    "gc_group",
    "dogma",
    "bql_count",
    "bql_contains",
];
const UDI: usize = 0;
const SCAN: usize = 1;
const RES: usize = 2;
const GC: usize = 3;
const DOGMA: usize = 4;
const BQL_COUNT: usize = 5;
const BQL_FIND: usize = 6;
/// 45% `contains` through the UDI, 10% below the index's word size (scan
/// path), 15% `resembles`, 10% grouped algebra, 10% dogma projections, 10%
/// BQL. 70% of operations are index probes or short projections, so the
/// median sits inside that mass; the slowest 5% all fall inside the
/// scan-path mass (10%), not on its edge.
const CYCLE: &[usize] = &[
    UDI, RES, UDI, GC, UDI, BQL_FIND, UDI, SCAN, UDI, DOGMA, UDI, RES, UDI, BQL_COUNT, UDI, GC,
    RES, SCAN, UDI, DOGMA,
];

/// Word size of the k-mer access method. Patterns shorter than this cannot
/// be answered by the index and take the scan path.
const K: usize = 8;
const SHORT: usize = K - 1;
const IDENTITY: f64 = 0.9;
const COVER: f64 = 0.9;
const DOGMA_ROWS: usize = 10;

struct Fragment {
    accession: String,
    organism: String,
    seq: DnaSeq,
    gc: f64,
}

/// Everything the oracle knows, all of it from the generator's records.
struct Data {
    frags: Vec<Fragment>,
    probes: Vec<DnaSeq>,
    /// Expected payload of `protein_sequence(translate(splice(transcribe(g))))`.
    proteins: Vec<Vec<u8>>,
    index: KmerIndex,
    /// Fragments containing each packed `SHORT`-mer.
    short_counts: Vec<u32>,
    /// Every organism with its fragment count.
    organisms: Vec<(String, i64)>,
}

impl Data {
    fn contains_ids(&self, pattern: &DnaSeq) -> Vec<i64> {
        let mut ids: Vec<i64> = self
            .index
            .candidates(pattern)
            .expect("patterns are strict and at least K long")
            .into_iter()
            .filter(|&id| self.frags[id as usize].seq.contains(pattern))
            .map(|id| id as i64)
            .collect();
        ids.sort_unstable();
        ids
    }
}

pub struct GenomicSearch {
    seed: u64,
    data: Arc<Data>,
    genes: Vec<Gene>,
    script: String,
    payload_bytes: u64,
    rows: u64,
    kmer_build_ms: f64,
}

impl GenomicSearch {
    pub fn new(seed: u64, smoke: bool) -> Self {
        let (n_frags, n_probes, n_genes) = if smoke { (400, 50, 40) } else { (20_000, 500, 400) };
        let strict = |seed, min_len, max_len| {
            RepoGenerator::new(GeneratorConfig {
                seed,
                // Strict sequences keep `contains` plain substring search.
                error_rate: 0.0,
                min_len,
                max_len,
                ..Default::default()
            })
        };
        let mut generator = strict(seed, 150, 400);
        let frags: Vec<Fragment> = generator
            .records(n_frags)
            .into_iter()
            .map(|r| Fragment {
                gc: r.sequence.gc_content(),
                accession: r.accession,
                organism: r.organism.expect("repogen assigns an organism"),
                seq: r.sequence,
            })
            .collect();
        let probes: Vec<DnaSeq> = strict(seed ^ 0x70, 80, 120)
            .records(n_probes)
            .into_iter()
            .map(|r| r.sequence)
            .collect();
        let genes: Vec<Gene> =
            (0..n_genes).map(|i| generator.gene_with_structure(&format!("g{i}"), 3, 30)).collect();
        let proteins = genes
            .iter()
            .map(|g| {
                let protein = express(g).expect("generated genes translate");
                value_to_bytes(&Value::ProteinSeq(protein.sequence().clone())).expect("encodes")
            })
            .collect();

        let start = Instant::now();
        let mut index = KmerIndex::new(K);
        for (id, f) in frags.iter().enumerate() {
            index.add(id as u64, &f.seq);
        }
        let kmer_build_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut short_counts = vec![0u32; 1 << (2 * SHORT)];
        let mut stamp = vec![u32::MAX; short_counts.len()];
        for (id, f) in frags.iter().enumerate() {
            for (_, km) in kmers(&f.seq, SHORT) {
                if stamp[km as usize] != id as u32 {
                    stamp[km as usize] = id as u32;
                    short_counts[km as usize] += 1;
                }
            }
        }
        let mut per_organism: BTreeMap<&str, i64> = BTreeMap::new();
        for f in &frags {
            *per_organism.entry(&f.organism).or_default() += 1;
        }
        let organisms = per_organism.into_iter().map(|(o, n)| (o.to_string(), n)).collect();

        let mut script = String::from(
            "CREATE TABLE public.sequences (id INT, accession TEXT, organism TEXT, seq dna);\n",
        );
        let mut payload_bytes = 0u64;
        script.push_str(&inserts("public.sequences", n_frags, 100, |i, out| {
            let f = &frags[i];
            out.push_str(&format!(
                "({i},'{}','{}',dna('{}'))",
                f.accession,
                f.organism,
                f.seq.to_text()
            ));
            payload_bytes += (8 + f.accession.len() + f.organism.len() + f.seq.len()) as u64;
        }));
        script.push_str("CREATE TABLE public.probes (id INT, seq dna);\n");
        script.push_str(&inserts("public.probes", n_probes, 100, |i, out| {
            out.push_str(&format!("({i},dna('{}'))", probes[i].to_text()));
            payload_bytes += (8 + probes[i].len()) as u64;
        }));
        // Gene values have no SQL literal; `bench_gene(i)` is registered at
        // build time and hands the engine the i-th generated gene.
        script.push_str("CREATE TABLE public.genes (id INT, g gene);\n");
        script.push_str(&inserts("public.genes", n_genes, 100, |i, out| {
            out.push_str(&format!("({i},bench_gene({i}))"));
            payload_bytes += (8 + genes[i].sequence().len()) as u64;
        }));

        let rows = (n_frags + n_probes + n_genes) as u64;
        let data = Data { frags, probes, proteins, index, short_counts, organisms };
        GenomicSearch {
            seed,
            data: Arc::new(data),
            genes,
            script,
            payload_bytes,
            rows,
            kmer_build_ms,
        }
    }

    /// A query for `resembles`: a probe with ~3% of its bases substituted.
    fn mutated_probe(probes: &[DnaSeq], rng: &mut StdRng) -> DnaSeq {
        let mut text = probes[rng.gen_range(0..probes.len())].to_text().into_bytes();
        for base in &mut text {
            if rng.gen_bool(0.03) {
                *base = b"ACGT"[rng.gen_range(0..4)];
            }
        }
        DnaSeq::from_text(std::str::from_utf8(&text).expect("ascii")).expect("strict bases")
    }
}

fn resembling_ids(probes: &[DnaSeq], query: &DnaSeq) -> Vec<i64> {
    (0..probes.len())
        .filter(|&i| resembles(&probes[i], query, IDENTITY, COVER))
        .map(|i| i as i64)
        .collect()
}

fn resembles_sql(query: &DnaSeq) -> String {
    format!(
        "SELECT id FROM public.probes WHERE resembles(seq, '{}', {IDENTITY}, {COVER})",
        query.to_text()
    )
}

fn int_column(rs: &ResultSet) -> Vec<i64> {
    let mut ids: Vec<i64> = rs.rows.iter().filter_map(|r| r.first()?.as_int()).collect();
    ids.sort_unstable();
    ids
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

impl Workload for GenomicSearch {
    fn name(&self) -> &'static str {
        "genomic_search"
    }

    fn kinds(&self) -> &'static [&'static str] {
        KINDS
    }

    fn session(&self) -> SessionKind {
        SessionKind::Public
    }

    fn warmup_ops(&self) -> usize {
        2 * CYCLE.len()
    }

    fn traced_ops(&self) -> usize {
        4 * CYCLE.len()
    }

    fn tables(&self) -> &'static [&'static str] {
        &["public.sequences", "public.probes", "public.genes"]
    }

    fn build(&self, _dir: &Path) -> Loaded {
        let db = Arc::new(Database::in_memory());
        let adapter = Adapter::install(&db).expect("adapter installs");
        let genes: Vec<Datum> = self
            .genes
            .iter()
            .map(|g| adapter.to_datum(&Value::Gene(Box::new(g.clone()))).expect("gene encodes"))
            .collect();
        db.register_scalar(
            "bench_gene",
            Arc::new(move |args: &[Datum]| {
                let i = args.first().and_then(Datum::as_int).unwrap_or(-1);
                usize::try_from(i)
                    .ok()
                    .and_then(|i| genes.get(i).cloned())
                    .ok_or_else(|| unidb::DbError::External(format!("no generated gene {i}")))
            }),
        )
        .expect("constructor registers");
        let start = Instant::now();
        db.execute_script_as(&self.script, &Role::Maintainer).expect("load genomic tables");
        let insert_secs = start.elapsed().as_secs_f64();
        adapter.attach_kmer_index(&db, "public.sequences", "seq", K).expect("k-mer UDI attaches");
        Loaded { db, rows: self.rows, payload_bytes: self.payload_bytes, insert_secs }
    }

    fn client(&self, idx: usize) -> Box<dyn ClientStream> {
        Box::new(GenomicStream {
            data: Arc::clone(&self.data),
            rng: client_rng(self.seed, "genomic_search", idx),
            schedule: Schedule::new(CYCLE, idx),
        })
    }

    /// Direct calls into the algebra, the adapter and the index, on the
    /// generator's records and on fixed seeded samples.
    fn layer_extras(&self, loaded: &Loaded) -> BTreeMap<String, f64> {
        let data = &*self.data;
        let mut rng = client_rng(self.seed, "genomic_search.extras", 0);
        let mut out = BTreeMap::new();
        let role = Role::Maintainer;

        // Adapter glue: one datum -> value -> datum round trip per fragment.
        let adapter = Adapter::install(&Database::in_memory()).expect("adapter installs");
        let sample: Vec<Value> =
            data.frags.iter().take(2_000).map(|f| Value::Dna(f.seq.clone())).collect();
        let ((), us) = timed_us(|| {
            for v in &sample {
                let d = adapter.to_datum(v).expect("encodes");
                std::hint::black_box(adapter.to_value(&d).expect("decodes"));
            }
        });
        out.insert("adapter.glue_us_per_value".into(), us / sample.len() as f64);

        // `resembles` in SQL against the same pairs called directly.
        let queries: Vec<DnaSeq> =
            (0..8).map(|_| Self::mutated_probe(&data.probes, &mut rng)).collect();
        let (mut sql_us, mut core_us) = (0.0, 0.0);
        for q in &queries {
            sql_us += timed_us(|| loaded.db.execute_as(&resembles_sql(q), &role).expect("runs")).1;
            core_us += timed_us(|| resembling_ids(&data.probes, q)).1;
        }
        let pairs = (queries.len() * data.probes.len()) as f64;
        out.insert("core.align.resembles_us_per_pair".into(), core_us / pairs);
        out.insert("unidb.expr.udf_embed_us_per_row".into(), (sql_us - core_us) / pairs);

        // The DP and the seed-and-extend heuristic on the same pairs.
        let scoring = NucleotideScore::default();
        let aligned: Vec<(&DnaSeq, &DnaSeq)> =
            queries.iter().flat_map(|q| data.probes.iter().take(25).map(move |p| (p, q))).collect();
        let cells: usize = aligned.iter().map(|(a, b)| a.len() * b.len()).sum();
        let ((), us) = timed_us(|| {
            for (a, b) in &aligned {
                std::hint::black_box(local_align_dna(a, b, &scoring));
            }
        });
        out.insert("core.align.dp_cells_per_s".into(), cells as f64 / (us / 1e6));
        let ((), us) = timed_us(|| {
            for (a, b) in &aligned {
                std::hint::black_box(seed_and_extend(a, b, K, &scoring, 20));
            }
        });
        out.insert("core.align.seed_extend_us_per_pair".into(), us / aligned.len() as f64);

        // The k-mer index, probed directly.
        let patterns: Vec<DnaSeq> = (0..500).map(|_| pattern_of(data, &mut rng).1).collect();
        let (mut candidates, mut hits) = (0usize, 0usize);
        let ((), us) = timed_us(|| {
            for p in &patterns {
                candidates += data.index.candidates(p).map_or(0, |c| c.len());
            }
        });
        for p in &patterns {
            hits += data.contains_ids(p).len();
        }
        out.insert("core.index.kmer_probe_us".into(), us / patterns.len() as f64);
        out.insert("core.index.kmer_candidates_per_hit".into(), candidates as f64 / hits as f64);
        out.insert("core.index.kmer_build_ms".into(), self.kmer_build_ms);
        out.insert("core.index.kmer_positions".into(), data.index.indexed_positions() as f64);

        // Same run, same table: `contains` past the index and through it.
        let through: Vec<f64> = patterns
            .iter()
            .take(50)
            .map(|p| {
                let sql = format!(
                    "SELECT id FROM public.sequences WHERE contains(seq, '{}')",
                    p.to_text()
                );
                timed_us(|| loaded.db.execute_as(&sql, &role).expect("runs")).1
            })
            .collect();
        let past: Vec<f64> = (0..5)
            .map(|_| {
                let sql = short_sql(&short_pattern(&mut rng));
                timed_us(|| loaded.db.execute_as(&sql, &role).expect("runs")).1
            })
            .collect();
        out.insert("unidb.index.udi_speedup_ratio".into(), median(&past) / median(&through));
        out
    }
}

/// A pattern cut from a random fragment, 12–24 bases, with its source.
fn pattern_of(data: &Data, rng: &mut StdRng) -> (usize, DnaSeq) {
    let from = rng.gen_range(0..data.frags.len());
    let seq = &data.frags[from].seq;
    let len = rng.gen_range(12..=24);
    let at = rng.gen_range(0..=seq.len() - len);
    (from, seq.subseq(at, at + len).expect("inside the fragment"))
}

fn short_pattern(rng: &mut StdRng) -> String {
    (0..SHORT).map(|_| b"ACGT"[rng.gen_range(0..4)] as char).collect()
}

fn short_sql(pattern: &str) -> String {
    format!("SELECT count(*) FROM public.sequences WHERE contains(seq, '{pattern}')")
}

struct GenomicStream {
    data: Arc<Data>,
    rng: StdRng,
    schedule: Schedule,
}

impl ClientStream for GenomicStream {
    fn next_op(&mut self) -> Op {
        let data = &self.data;
        let kind = self.schedule.next_kind();
        let stmt = match kind {
            UDI => {
                let (_, pattern) = pattern_of(data, &mut self.rng);
                let want = data.contains_ids(&pattern).into_iter().map(|id| vec![Datum::Int(id)]);
                Stmt::sql(
                    format!(
                        "SELECT id FROM public.sequences WHERE contains(seq, '{}')",
                        pattern.to_text()
                    ),
                    Check::RowSet(want.collect()),
                )
            }
            SCAN => {
                let pattern = short_pattern(&mut self.rng);
                let packed = kmers(&DnaSeq::from_text(&pattern).expect("strict"), SHORT)[0].1;
                let want = i64::from(data.short_counts[packed as usize]);
                Stmt::sql(short_sql(&pattern), Check::Rows(vec![vec![Datum::Int(want)]]))
            }
            RES => {
                let query = GenomicSearch::mutated_probe(&data.probes, &mut self.rng);
                let text = resembles_sql(&query);
                let data = Arc::clone(data);
                // 500 alignments: as costly as the statement itself.
                Stmt::sql(
                    text,
                    Check::Deferred(Box::new(move |rs| {
                        int_column(rs) == resembling_ids(&data.probes, &query)
                    })),
                )
            }
            GC => {
                let from = self.rng.gen_range(0..data.frags.len() / 50);
                let mut groups: BTreeMap<&str, (i64, f64, i64)> = BTreeMap::new();
                for f in &data.frags[from..] {
                    let g = groups.entry(&f.organism).or_insert((0, 0.0, 0));
                    g.0 += 1;
                    g.1 += f.gc;
                    g.2 = g.2.max(f.seq.len() as i64);
                }
                let want: Vec<Row> = groups
                    .into_iter()
                    .map(|(org, (n, gc, longest))| {
                        vec![
                            Datum::Text(org.into()),
                            Datum::Int(n),
                            Datum::Float(gc / n as f64),
                            Datum::Int(longest),
                        ]
                    })
                    .collect();
                Stmt::sql(
                    format!(
                        "SELECT organism, count(*), avg(gc_content(seq)), max(seq_length(seq)) \
                         FROM public.sequences WHERE id >= {from} GROUP BY organism"
                    ),
                    Check::RowSet(want),
                )
            }
            DOGMA => {
                let from = self.rng.gen_range(0..data.proteins.len() - DOGMA_ROWS);
                let data = Arc::clone(data);
                Stmt::sql(
                    format!(
                        "SELECT id, protein_sequence(translate(splice(transcribe(g)))) \
                         FROM public.genes WHERE id >= {from} AND id < {}",
                        from + DOGMA_ROWS
                    ),
                    Check::Inline(Box::new(move |rs| {
                        rs.rows.len() == DOGMA_ROWS
                            && rs.rows.iter().all(|row| {
                                let id = row[0].as_int().unwrap_or(-1);
                                let want = usize::try_from(id).ok().and_then(|i| {
                                    (from..from + DOGMA_ROWS)
                                        .contains(&i)
                                        .then(|| &data.proteins[i])
                                });
                                matches!((row[1].as_opaque(), want),
                                    (Some((_, got)), Some(want)) if **got == *want)
                            })
                    })),
                )
            }
            BQL_COUNT => {
                let want = data
                    .organisms
                    .iter()
                    .map(|(org, n)| vec![Datum::Text(org.clone()), Datum::Int(*n)]);
                Stmt {
                    lang: Lang::Bql,
                    text: "COUNT sequences BY organism".into(),
                    check: Check::RowSet(want.collect()),
                }
            }
            _ => {
                let (_, pattern) = pattern_of(data, &mut self.rng);
                let want = data
                    .contains_ids(&pattern)
                    .into_iter()
                    .map(|id| vec![Datum::Text(data.frags[id as usize].accession.clone())]);
                Stmt {
                    lang: Lang::Bql,
                    text: format!(
                        "FIND sequences CONTAINING '{}' SHOW accession",
                        pattern.to_text()
                    ),
                    check: Check::RowSet(want.collect()),
                }
            }
        };
        Op::read(kind, stmt)
    }
}
