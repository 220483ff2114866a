//! Property-based tests for the kernel algebra's core invariants.

use genalg_core::algebra::Value;
use genalg_core::align::{
    global_align, local_align, local_align_dna, resembles, NucleotideScore, ResemblesQuery, Scoring,
};
use genalg_core::alphabet::{AminoAcid, DnaBase, IupacDna};
use genalg_core::codon::GeneticCode;
use genalg_core::compact::{dna_view, value_from_bytes, value_to_bytes, Compact};
use genalg_core::gdt::Gene;
use genalg_core::index::KmerIndex;
use genalg_core::seq::ops::{kmers, pack_kmer, unpack_kmer};
use genalg_core::seq::{DnaSeq, ProteinSeq, RnaSeq};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn dna_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 0..200)
        .prop_map(|v| v.into_iter().collect())
}

fn iupac_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select("ACGTRYSWKMBDHVN".chars().collect::<Vec<_>>()),
        0..200,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// Subjects for the k-mer index of every kind it tells apart: strict,
/// IUPAC, shorter than any word size the tests use, and strict around a run
/// of three `N`s (a window standing for more than 16 k-mers).
fn kmer_subject() -> impl Strategy<Value = String> {
    prop_oneof![
        dna_text(),
        iupac_text(),
        proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 0..2)
            .prop_map(|v| v.into_iter().collect::<String>()),
        (dna_text(), dna_text()).prop_map(|(a, b)| format!("{a}NNN{b}")),
    ]
}

fn rna_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'U']), 0..200)
        .prop_map(|v| v.into_iter().collect())
}

fn protein_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select("ARNDCQEGHILKMFPSTWYV*X".chars().collect::<Vec<_>>()),
        0..100,
    )
    .prop_map(|v| v.into_iter().collect())
}

proptest! {
    // --- sequence invariants -------------------------------------------------

    #[test]
    fn dna_text_roundtrip(text in iupac_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(seq.to_text(), text);
        prop_assert_eq!(seq.len(), seq.to_text().len());
    }

    #[test]
    fn reverse_complement_involutive(text in iupac_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn complement_preserves_gc(text in dna_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        let rc = seq.reverse_complement();
        prop_assert!((seq.gc_content() - rc.gc_content()).abs() < 1e-12);
        prop_assert_eq!(seq.len(), rc.len());
    }

    #[test]
    fn subseq_concat_identity(text in dna_text(), split in 0usize..200) {
        let seq = DnaSeq::from_text(&text).unwrap();
        let split = split.min(seq.len());
        let left = seq.subseq(0, split).unwrap();
        let right = seq.subseq(split, seq.len()).unwrap();
        prop_assert_eq!(left.concat(&right), seq);
    }

    #[test]
    fn find_agrees_with_text_search(hay in dna_text(), needle in dna_text()) {
        let h = DnaSeq::from_text(&hay).unwrap();
        let n = DnaSeq::from_text(&needle).unwrap();
        // Strict sequences: IUPAC compatibility equals exact matching.
        prop_assert_eq!(h.find(&n), hay.find(&needle));
    }

    #[test]
    fn transcription_roundtrip(text in dna_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        let rna = seq.to_rna().unwrap();
        prop_assert_eq!(rna.len(), seq.len());
        prop_assert_eq!(rna.to_dna(), seq);
    }

    #[test]
    fn rna_reverse_complement_involutive(text in rna_text()) {
        let seq = RnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn hamming_is_a_metric_on_equal_lengths(a in dna_text(), b in dna_text()) {
        let n = a.len().min(b.len());
        let x = DnaSeq::from_text(&a[..n]).unwrap();
        let y = DnaSeq::from_text(&b[..n]).unwrap();
        let dxy = x.hamming_distance(&y).unwrap();
        let dyx = y.hamming_distance(&x).unwrap();
        prop_assert_eq!(dxy, dyx);
        prop_assert_eq!(x.hamming_distance(&x).unwrap(), 0);
        prop_assert!(dxy <= n);
        if dxy == 0 {
            prop_assert_eq!(x, y);
        }
    }

    // --- codon / dogma ---------------------------------------------------------

    #[test]
    fn kmer_pack_unpack(text in dna_text(), k in 1usize..16) {
        let seq = DnaSeq::from_text(&text).unwrap();
        for (pos, packed) in kmers(&seq, k) {
            let bases = unpack_kmer(packed, k);
            prop_assert_eq!(pack_kmer(&bases), packed);
            let window = seq.subseq(pos, pos + k).unwrap();
            prop_assert_eq!(DnaSeq::from_bases(&bases), window);
        }
    }

    #[test]
    fn translation_length_invariant(text in rna_text()) {
        let rna = RnaSeq::from_text(&text).unwrap();
        let trimmed = rna.subseq(0, rna.len() - rna.len() % 3).unwrap();
        let protein = GeneticCode::standard().translate_cds(&trimmed).unwrap();
        prop_assert_eq!(protein.len(), trimmed.len() / 3);
    }

    #[test]
    fn every_codon_decodes(a in 0u8..4, b in 0u8..4, c in 0u8..4) {
        use genalg_core::alphabet::RnaBase;
        let codon = [RnaBase::from_code(a), RnaBase::from_code(b), RnaBase::from_code(c)];
        for table in [1u8, 2, 5, 11] {
            let code = GeneticCode::by_id(table).unwrap();
            let aa = code.decode_rna(codon);
            // Every decode is a residue, stop, or unknown — never a panic.
            prop_assert!(aa.code() <= AminoAcid::Unknown.code());
        }
    }

    // --- compact encodings -------------------------------------------------------

    #[test]
    fn compact_dna_roundtrip(text in iupac_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(DnaSeq::from_bytes(&seq.to_bytes()).unwrap(), seq);
    }

    #[test]
    fn compact_protein_roundtrip(text in protein_text()) {
        let seq = ProteinSeq::from_text(&text).unwrap();
        prop_assert_eq!(ProteinSeq::from_bytes(&seq.to_bytes()).unwrap(), seq);
    }

    #[test]
    fn compact_gene_roundtrip(
        text in proptest::collection::vec(
            proptest::sample::select(vec!['A', 'C', 'G', 'T']), 30..120),
        exon1_end in 3usize..15,
        exon2_start in 15usize..25,
    ) {
        let text: String = text.into_iter().collect();
        let gene = Gene::builder("prop-gene")
            .sequence(DnaSeq::from_text(&text).unwrap())
            .exon(0, exon1_end)
            .exon(exon2_start, 30)
            .code_table(11)
            .build()
            .unwrap();
        let value = Value::Gene(Box::new(gene));
        let bytes = value_to_bytes(&value).unwrap();
        prop_assert_eq!(value_from_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn compact_decoding_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Arbitrary bytes must either decode or error — never panic.
        let _ = value_from_bytes(&bytes);
        let _ = DnaSeq::from_bytes(&bytes);
        let _ = Gene::from_bytes(&bytes);
    }

    // --- alignment -----------------------------------------------------------------

    #[test]
    fn self_alignment_is_perfect(text in dna_text()) {
        prop_assume!(!text.is_empty());
        let scoring = NucleotideScore::default();
        let aln = global_align(text.as_bytes(), text.as_bytes(), &scoring);
        prop_assert_eq!(aln.score, 2 * text.len() as i32);
        prop_assert!((aln.identity() - 1.0).abs() < 1e-12);
        prop_assert_eq!(aln.gap_count(), 0);
    }

    #[test]
    fn alignment_is_symmetric_in_score(a in dna_text(), b in dna_text()) {
        let scoring = NucleotideScore::default();
        let ab = global_align(a.as_bytes(), b.as_bytes(), &scoring);
        let ba = global_align(b.as_bytes(), a.as_bytes(), &scoring);
        prop_assert_eq!(ab.score, ba.score);
        let lab = local_align(a.as_bytes(), b.as_bytes(), &scoring);
        let lba = local_align(b.as_bytes(), a.as_bytes(), &scoring);
        prop_assert_eq!(lab.score, lba.score);
    }

    #[test]
    fn local_never_below_zero_and_dominates_global(a in dna_text(), b in dna_text()) {
        let scoring = NucleotideScore::default();
        let g = global_align(a.as_bytes(), b.as_bytes(), &scoring);
        let l = local_align(a.as_bytes(), b.as_bytes(), &scoring);
        prop_assert!(l.score >= 0);
        prop_assert!(l.score >= g.score);
    }

    #[test]
    fn alignment_rows_reconstruct_inputs(a in dna_text(), b in dna_text()) {
        let scoring = NucleotideScore::default();
        let aln = global_align(a.as_bytes(), b.as_bytes(), &scoring);
        let stripped_a: Vec<u8> =
            aln.aligned_a.iter().copied().filter(|&c| c != b'-').collect();
        let stripped_b: Vec<u8> =
            aln.aligned_b.iter().copied().filter(|&c| c != b'-').collect();
        prop_assert_eq!(&stripped_a[..], a.as_bytes());
        prop_assert_eq!(&stripped_b[..], b.as_bytes());
        // The alignment score equals the score recomputed from its rows.
        let mut recomputed = 0i32;
        let mut in_gap_a = false;
        let mut in_gap_b = false;
        for (&x, &y) in aln.aligned_a.iter().zip(&aln.aligned_b) {
            if x == b'-' {
                recomputed += if in_gap_a { scoring.gap_extend() } else { scoring.gap_open() };
                in_gap_a = true;
                in_gap_b = false;
            } else if y == b'-' {
                recomputed += if in_gap_b { scoring.gap_extend() } else { scoring.gap_open() };
                in_gap_b = true;
                in_gap_a = false;
            } else {
                recomputed += scoring.score(x, y);
                in_gap_a = false;
                in_gap_b = false;
            }
        }
        prop_assert_eq!(recomputed, aln.score, "rows: {} / {}",
            String::from_utf8_lossy(&aln.aligned_a), String::from_utf8_lossy(&aln.aligned_b));
    }

    // --- indexes -----------------------------------------------------------------

    /// Subjects mix strict and IUPAC text, so some are covered by their
    /// k-mers and some are not; patterns run from far below `k` to past it.
    #[test]
    fn kmer_index_has_no_false_negatives(
        seqs in proptest::collection::vec(prop_oneof![dna_text(), iupac_text()], 1..12),
        pat in proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 1..12),
    ) {
        const K: usize = 5;
        let pat: String = pat.into_iter().collect();
        let pattern = DnaSeq::from_text(&pat).unwrap();
        let mut index = KmerIndex::new(K);
        let parsed: Vec<DnaSeq> = seqs.iter().map(|s| DnaSeq::from_text(s).unwrap()).collect();
        for (i, s) in parsed.iter().enumerate() {
            index.add(i as u64, s);
        }
        let candidates = index.candidates(&pattern);
        prop_assert_eq!(&candidates, &reference::kmer_candidates(&parsed, &pattern, K));
        prop_assert_eq!(candidates.is_some(), pattern.len() + 2 >= K);
        if let Some(candidates) = candidates {
            for (i, s) in parsed.iter().enumerate() {
                let found = candidates.contains(&(i as u64));
                if s.contains(&pattern) {
                    prop_assert!(found, "false negative for sequence {}", i);
                }
                // Below k, a strict sequence at least k long is a candidate
                // exactly when it contains the pattern.
                if pattern.len() < K && s.len() >= K && s.is_strict() {
                    prop_assert_eq!(found, s.contains(&pattern), "sequence {}", i);
                }
            }
        }
    }

    #[test]
    fn kmer_index_matches_a_naive_model(
        k in 2usize..6,
        start in proptest::collection::vec(
            (0u64..16, proptest::collection::vec(
                proptest::sample::select(vec!['A', 'C', 'G', 'T', 'A', 'N']), 0..24,
            )),
            0..12,
        ),
        ops in proptest::collection::vec(
            (0u8..3, 0u64..16, proptest::collection::vec(
                proptest::sample::select(vec!['A', 'C', 'G', 'T', 'A', 'N']), 0..24,
            )),
            1..40,
        ),
        patterns in proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T', 'N']), 1..9),
            1..6,
        ),
    ) {
        // Keys come out of order, are reused after removal, and are removed
        // when absent. The model keeps each present key's sequence and what
        // the index should hold for it: every concrete k-mer some window
        // matches (an ambiguity code matches each base it stands for), or,
        // for a sequence shorter than k or with a window standing for more
        // than 16 k-mers, its strict windows and a place among the
        // uncovered, which are candidates for every pattern.
        let windows = |s: &DnaSeq| kmers(s, k).into_iter().map(|(_, km)| km);
        let kmer_seq = |km: u64| DnaSeq::from_bases(&unpack_kmer(km, k));
        let all_kmers: Vec<(u64, DnaSeq)> = (0..1u64 << (2 * k)).map(|km| (km, kmer_seq(km))).collect();
        let entry = |s: DnaSeq| -> (DnaSeq, std::collections::BTreeSet<u64>, bool) {
            let fans = |w: &[IupacDna]| w.iter().map(|c| c.cardinality()).product::<u32>();
            let symbols: Vec<IupacDna> = (0..s.len()).map(|i| s.get(i).unwrap()).collect();
            let covered = s.len() >= k && symbols.windows(k).all(|w| fans(w) <= 16);
            let held = if covered {
                all_kmers.iter().filter(|(_, x)| s.contains(x)).map(|(km, _)| *km).collect()
            } else {
                windows(&s).collect()
            };
            (s, held, covered)
        };
        let mut model: std::collections::BTreeMap<u64, (DnaSeq, std::collections::BTreeSet<u64>, bool)> =
            Default::default();
        // The starting state is built in bulk, from keys out of order; a
        // key drawn twice keeps its first sequence.
        let mut loaded: Vec<(u64, DnaSeq)> = Vec::new();
        for (key, text) in start {
            if model.contains_key(&key) {
                continue;
            }
            let seq = DnaSeq::from_text(&text.into_iter().collect::<String>()).unwrap();
            model.insert(key, entry(seq.clone()));
            loaded.push((key, seq));
        }
        let mut index = KmerIndex::build(k, loaded.iter().map(|(key, s)| (*key, s.view())));
        for (op, key, text) in ops {
            let seq = DnaSeq::from_text(&text.into_iter().collect::<String>()).unwrap();
            match (op, model.get(&key).map(|(old, ..)| old.clone())) {
                (0, Some(old)) => {
                    // Replacing: remove, then add under the same key.
                    index.remove(key, &old);
                    index.add(key, &seq);
                    model.insert(key, entry(seq));
                }
                (0, None) | (1, None) => {
                    index.add(key, &seq);
                    model.insert(key, entry(seq));
                }
                (_, Some(old)) => {
                    index.remove(key, &old);
                    model.remove(&key);
                }
                (_, None) => {
                    let before = (index.len(), index.indexed_positions(), index.distinct_kmers());
                    index.remove(key, &seq);
                    prop_assert_eq!(
                        (index.len(), index.indexed_positions(), index.distinct_kmers()),
                        before,
                        "removing absent key {} changed the index", key
                    );
                }
            }
            prop_assert_eq!(index.len(), model.len());
            prop_assert_eq!(
                index.indexed_positions(),
                model.values().map(|(s, ..)| kmers(s, k).len()).sum::<usize>()
            );
            let distinct: std::collections::BTreeSet<u64> =
                model.values().flat_map(|(_, held, _)| held.iter().copied()).collect();
            prop_assert_eq!(index.distinct_kmers(), distinct.len());
        }
        // A covered sequence is a candidate if it holds every k-mer of a
        // pattern at least k long, or, for a strict pattern at most two
        // short, any of the k-mers the pattern occurs in; an uncovered one
        // always is.
        let holders = |km: u64| model.values().filter(|(_, held, _)| held.contains(&km)).count();
        let loose = model.values().filter(|(.., covered)| !covered).count();
        for text in patterns {
            let pattern = DnaSeq::from_text(&text.into_iter().collect::<String>()).unwrap();
            let own: Vec<u64> = windows(&pattern).collect();
            let m = pattern.len();
            let every = m >= k && own.len() == m - k + 1;
            let covering: Vec<u64> = if m < k && m + 2 >= k && pattern.is_strict() {
                all_kmers.iter().filter(|(_, x)| x.contains(&pattern)).map(|(km, _)| *km).collect()
            } else {
                Vec::new()
            };
            let filterable = every || !covering.is_empty();
            let want: Option<Vec<u64>> = filterable.then(|| {
                model
                    .iter()
                    .filter(|(_, (_, held, covered))| {
                        !covered
                            || (every && own.iter().all(|km| held.contains(km)))
                            || covering.iter().any(|km| held.contains(km))
                    })
                    .map(|(key, _)| *key)
                    .collect()
            });
            prop_assert_eq!(index.candidates(&pattern), want, "pattern {}", pattern.to_text());
            let selectivity = if !filterable {
                1.0
            } else if model.is_empty() {
                0.0
            } else {
                let listed = if every {
                    own.iter().map(|&km| holders(km)).min().unwrap_or(0)
                } else {
                    covering.iter().map(|&km| holders(km)).sum()
                };
                ((listed + loose) as f64 / model.len() as f64).min(1.0)
            };
            prop_assert_eq!(index.estimate_selectivity(&pattern), selectivity);
        }
    }

    /// `KmerIndex::build` over keys in any order gives the index that adding
    /// the same sequences one at a time gives, and the two stay equal
    /// through a further run of adds, replacements and removes.
    #[test]
    fn kmer_index_built_in_bulk_equals_one_added_at_a_time(
        k in 2usize..9,
        seqs in proptest::collection::vec(kmer_subject(), 0..16),
        scramble in any::<u64>(),
        tail in proptest::collection::vec((any::<bool>(), 0u64..24, kmer_subject()), 0..16),
        patterns in proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 1..12),
            1..8,
        ),
    ) {
        // Slot `i`'s key: distinct for distinct slots, in no particular order.
        let key = |slot: u64| slot.wrapping_mul(scramble | 1) ^ scramble.rotate_left(17);
        let parsed = |text: &str| DnaSeq::from_text(text).unwrap();
        let mut present: std::collections::BTreeMap<u64, DnaSeq> = (0u64..)
            .zip(&seqs)
            .map(|(slot, text)| (key(slot), parsed(text)))
            .collect();
        let mut built = KmerIndex::build(k, present.iter().rev().map(|(&key, s)| (key, s.view())));
        let mut added = KmerIndex::new(k);
        for (slot, text) in (0u64..).zip(&seqs) {
            added.add(key(slot), &parsed(text));
        }
        let patterns: Vec<DnaSeq> =
            patterns.into_iter().map(|p| parsed(&p.into_iter().collect::<String>())).collect();
        let same = |built: &KmerIndex, added: &KmerIndex| {
            assert_eq!(built, added);
            assert_eq!(
                (built.len(), built.indexed_positions(), built.distinct_kmers()),
                (added.len(), added.indexed_positions(), added.distinct_kmers())
            );
            for pattern in &patterns {
                assert_eq!(built.candidates(pattern), added.candidates(pattern));
                assert_eq!(built.estimate_selectivity(pattern), added.estimate_selectivity(pattern));
            }
        };
        same(&built, &added);
        for (insert, slot, text) in tail {
            let (key, seq) = (key(slot), parsed(&text));
            for index in [&mut built, &mut added] {
                match (insert, present.get(&key)) {
                    (true, Some(old)) => {
                        index.remove(key, old);
                        index.add(key, &seq);
                    }
                    (true, None) => index.add(key, &seq),
                    (false, Some(old)) => index.remove(key, old),
                    (false, None) => index.remove(key, &seq),
                }
            }
            if insert {
                present.insert(key, seq);
            } else {
                present.remove(&key);
            }
            same(&built, &added);
        }
    }

    // --- alphabet totality ------------------------------------------------------

    #[test]
    fn iupac_mask_roundtrip_total(mask in 0u8..=255) {
        let code = IupacDna::from_mask(mask);
        prop_assert!(code.cardinality() >= 1);
        prop_assert_eq!(IupacDna::from_mask(code.mask()), code);
        // Complement stays within the alphabet and is involutive.
        prop_assert_eq!(code.complement().complement(), code);
    }

    #[test]
    fn base_codes_total(code in 0u8..=255) {
        let b = DnaBase::from_code(code);
        prop_assert_eq!(DnaBase::from_code(b.code()), b);
        let aa = AminoAcid::from_code(code);
        prop_assert_eq!(AminoAcid::from_code(aa.code()), aa);
    }
}

// ---------------------------------------------------------------------------
// Kernels against their per-symbol references
// ---------------------------------------------------------------------------

mod reference;

/// IUPAC text that is mostly concrete bases, so that patterns cut from it
/// still match somewhere once a few of their symbols are blurred.
fn mostly_strict_text(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select("AAAACCCCGGGGTTTTRYSWKMBDHVN".chars().collect::<Vec<_>>()),
        0..max,
    )
    .prop_map(|v| v.into_iter().collect())
}

/// A pattern for `text`: a window of it (so it occurs), the window with
/// one symbol replaced (so it may not), or unrelated text.
fn pattern_for(text: &str, len: usize, at: usize, blur: usize, kind: u8) -> String {
    if text.is_empty() || kind == 0 {
        return "ACGTNRYACGT".chars().cycle().skip(at % 7).take(len).collect();
    }
    let len = len.min(text.len());
    let at = at % (text.len() - len + 1);
    let mut window: Vec<char> = text[at..at + len].chars().collect();
    if kind == 1 && !window.is_empty() {
        let i = blur % window.len();
        window[i] = "ACGTNRB".chars().nth(blur % 7).expect("7 choices");
    }
    window.into_iter().collect()
}

proptest! {
    #[test]
    fn search_kernels_agree_with_the_reference(
        text in mostly_strict_text(300),
        len in 0usize..90,
        at in 0usize..300,
        blur in 0usize..1000,
        kind in 0u8..3,
        from in 0usize..320,
    ) {
        let pattern = pattern_for(&text, len, at, blur, kind);
        let (t, p) = (DnaSeq::from_text(&text).unwrap(), DnaSeq::from_text(&pattern).unwrap());
        prop_assert_eq!(t.find_from(&p, from), reference::find_from(&t, &p, from));
        prop_assert_eq!(t.find_all(&p), reference::find_all(&t, &p));
        prop_assert_eq!(t.contains(&p), reference::find_from(&t, &p, 0).is_some());
        // Ambiguity on the text side only, and on neither.
        let strict = DnaSeq::from_text(&pattern.replace(|c| !"ACGT".contains(c), "A")).unwrap();
        prop_assert_eq!(t.find_all(&strict), reference::find_all(&t, &strict));
    }

    #[test]
    fn composition_kernels_agree_with_the_reference(text in iupac_text()) {
        let seq = DnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(seq.base_counts(), reference::base_counts(&seq));
        prop_assert_eq!(seq.gc_content().to_bits(), reference::gc_content(&seq).to_bits());
        prop_assert_eq!(seq.is_strict(), reference::is_strict(&seq));
        prop_assert_eq!(seq.complement(), reference::complement(&seq));
        prop_assert_eq!(seq.reverse_complement(), reference::reverse_complement(&seq));
        prop_assert_eq!(seq.reversed(), reference::reversed(&seq));
        prop_assert_eq!(seq.to_text(), reference::to_text(&seq));
        prop_assert_eq!(DnaSeq::from_text(&seq.to_text()).unwrap(), seq);
    }

    #[test]
    fn kmer_kernel_agrees_with_the_reference(text in mostly_strict_text(200), k in 1usize..32) {
        // Windows broken by ambiguity codes are the interesting part.
        let seq = DnaSeq::from_text(&text).unwrap();
        prop_assert_eq!(kmers(&seq, k), reference::kmers(&seq, k));
    }

    #[test]
    fn text_parsing_agrees_with_the_reference(
        chars in proptest::collection::vec(
            proptest::sample::select("ACGTacgtRYSWKMBDHVNnry U-é*".chars().collect::<Vec<_>>()),
            0..40,
        ),
    ) {
        // Same sequence, or the same first offending symbol.
        let text: String = chars.into_iter().collect();
        prop_assert_eq!(DnaSeq::from_text(&text), reference::from_text(&text));
    }

    #[test]
    fn a_corrupt_dna_payload_is_an_error_never_a_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..80),
        claimed in any::<u64>(),
    ) {
        // Arbitrary bytes, and a well-formed header lying about its length.
        for payload in [bytes.clone(), {
            let mut lying = vec![DnaSeq::TAG];
            genalg_core::compact::put_varint(&mut lying, claimed);
            lying.extend_from_slice(&bytes);
            lying
        }] {
            match (dna_view(&payload), DnaSeq::from_bytes(&payload)) {
                (Ok(view), Ok(seq)) => {
                    prop_assert_eq!(view.to_seq(), seq.clone());
                    // Every kernel stays inside the payload.
                    prop_assert_eq!(view.base_counts(), reference::base_counts(&seq));
                    prop_assert_eq!(view.to_text(), reference::to_text(&seq));
                    let probe = DnaSeq::from_text("ACGTN").unwrap();
                    prop_assert_eq!(
                        view.find_from(probe.view(), 0),
                        reference::find_from(&seq, &probe, 0)
                    );
                }
                (Err(view_err), Err(_)) => {
                    prop_assert!(matches!(view_err, genalg_core::GenAlgError::Corrupt(_)));
                }
                (view, seq) => prop_assert!(false, "view {view:?} but decode {seq:?}"),
            }
        }
    }
}

/// A word size past `KmerIndex::MAX_K` is refused: the bulk build counts
/// into tables of 4^k cells.
#[test]
#[should_panic(expected = "k must be in 1..=10")]
fn kmer_index_refuses_a_word_size_past_max_k() {
    KmerIndex::new(KmerIndex::MAX_K + 1);
}

/// The cases the issue names, spelled out: empty pattern, a match at the
/// very last position, `from` past the end, odd and even lengths, and
/// patterns of 1, 62–65 and 200 symbols — on either side of the 63-symbol
/// head the state word tracks — with ambiguity codes on both sides.
#[test]
fn search_kernel_edge_cases() {
    // A fixed pseudo-random IUPAC text, mostly concrete.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let alphabet: Vec<char> = "AAAACCCCGGGGTTTTRYSWKMBDHVN".chars().collect();
    let text: String = (0..451).map(|_| alphabet[next() % alphabet.len()]).collect();

    for n in [0usize, 1, 2, 62, 63, 64, 65, 128, 129, 200, 201, 450, 451] {
        let t = DnaSeq::from_text(&text[..n]).unwrap();
        for m in [0usize, 1, 2, 7, 62, 63, 64, 65, 66, 127, 128, 129, 200] {
            if m > n + 3 {
                continue;
            }
            // The tail of the text (a match at the last position), the
            // head, a blurred copy, an all-N pattern, and a near miss.
            let mut patterns: Vec<String> = vec!["N".repeat(m)];
            if m <= n {
                patterns.push(text[n - m..n].to_string());
                patterns.push(text[..m].to_string());
                let mut blurred: Vec<char> = text[n - m..n].chars().collect();
                for (i, c) in blurred.iter_mut().enumerate() {
                    if i % 5 == 0 {
                        *c = 'N';
                    }
                }
                patterns.push(blurred.iter().collect());
                if m > 0 {
                    // Differs from the tail in its last symbol only.
                    let last = blurred.len() - 1;
                    let mut miss: Vec<char> = text[n - m..n].chars().collect();
                    miss[last] = if miss[last] == 'A' { 'C' } else { 'A' };
                    patterns.push(miss.into_iter().collect());
                }
            } else {
                patterns.push(text[..m.min(text.len())].to_string());
            }
            for pattern in patterns {
                let p = DnaSeq::from_text(&pattern).unwrap();
                assert_eq!(t.find_all(&p), reference::find_all(&t, &p), "n={n} m={m} {pattern}");
                for from in [0, 1, n / 2, n.saturating_sub(m), n, n + 1, n + 100] {
                    assert_eq!(
                        t.find_from(&p, from),
                        reference::find_from(&t, &p, from),
                        "n={n} m={m} from={from} {pattern}"
                    );
                }
            }
        }
    }
}

/// `resembles` must give the verdict of the plain local alignment: the
/// q-gram screen may only reject what the alignment would reject. Pairs
/// are derived from one another by a few substitutions and an indel, and
/// the thresholds are set a hair's breadth on either side of what the
/// pair actually reaches, plus the usual 0.9/0.9.
#[test]
fn resembles_gives_the_alignments_verdict_around_both_thresholds() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let bases = ['A', 'C', 'G', 'T'];
    let (mut accepted, mut rejected) = (0, 0);
    for round in 0..160 {
        let len = 20 + next(140);
        let original: Vec<char> = (0..len).map(|_| bases[next(4)]).collect();
        let mut mutated = original.clone();
        for _ in 0..next(1 + len / 6) {
            let i = next(mutated.len());
            mutated[i] = bases[next(4)];
        }
        match round % 4 {
            0 => drop(mutated.drain(..next(len / 3))),
            1 => mutated.insert(next(mutated.len()), bases[next(4)]),
            2 if round % 8 == 2 => mutated[next(len)] = 'N',
            _ => {}
        }
        // Every fifth pair is unrelated.
        if round % 5 == 4 {
            mutated = (0..len).map(|_| bases[next(4)]).collect();
        }
        let a = DnaSeq::from_text(&original.iter().collect::<String>()).unwrap();
        let b = DnaSeq::from_text(&mutated.iter().collect::<String>()).unwrap();

        let aln = local_align_dna(&a, &b, &NucleotideScore::default());
        let identity = aln.identity();
        let cover = (aln.a_range.1 - aln.a_range.0) as f64 / a.len().min(b.len()) as f64;
        let eps = 1e-9;
        for (min_identity, min_cover) in [
            (identity, cover),
            (identity + eps, cover),
            (identity, cover + eps),
            (identity - eps, cover - eps),
            (0.9, 0.9),
            (0.95, 0.5),
            (0.88, 1.0),
            (0.5, 0.5),
        ] {
            let want = reference::resembles(&a, &b, min_identity, min_cover);
            assert_eq!(
                resembles(&a, &b, min_identity, min_cover),
                want,
                "round {round}: identity {identity} cover {cover} against \
                 {min_identity}/{min_cover}\n{a}\n{b}"
            );
            // The prepared query gives the same answer as the one-off call.
            let query = ResemblesQuery::new(b.view(), min_identity, min_cover);
            assert_eq!(query.matches(a.view()), want);
            if want {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(accepted > 100 && rejected > 100, "{accepted} accepted, {rejected} rejected");
}
