//! Inverted k-mer index over a collection of sequences.

use crate::seq::ops::kmers;
use crate::seq::DnaSeq;
use std::collections::{HashMap, HashSet};

/// An inverted index mapping every k-mer to the sequences (and positions)
/// it occurs in.
///
/// Sequences are registered under caller-chosen `u64` keys (the adapter
/// uses row ids). The index is *sound* as a filter: for a strict pattern of
/// length ≥ k, every sequence containing the pattern is returned by
/// [`KmerIndex::candidates`]; verification against the actual sequence
/// removes false positives.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    map: HashMap<u64, Vec<(u64, u32)>>,
    /// Number of indexed sequences, used for selectivity estimation.
    sequences: usize,
    /// Total indexed positions.
    positions: usize,
}

impl KmerIndex {
    /// An empty index with word size `k` (1–31).
    pub fn new(k: usize) -> Self {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        KmerIndex { k, map: HashMap::new(), sequences: 0, positions: 0 }
    }

    /// Word size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of indexed sequences.
    pub fn len(&self) -> usize {
        self.sequences
    }

    /// True if nothing has been indexed.
    pub fn is_empty(&self) -> bool {
        self.sequences == 0
    }

    /// Total number of indexed k-mer positions.
    pub fn indexed_positions(&self) -> usize {
        self.positions
    }

    /// Number of distinct k-mers seen.
    pub fn distinct_kmers(&self) -> usize {
        self.map.len()
    }

    /// Index `seq` under `key`. Re-adding a key indexes it again; call
    /// [`KmerIndex::remove`] first when replacing.
    pub fn add(&mut self, key: u64, seq: &DnaSeq) {
        seq.view().for_each_kmer(self.k, |pos, km| {
            self.map.entry(km).or_default().push((key, pos as u32));
            self.positions += 1;
        });
        // A sequence that yields no k-mers (too short or all ambiguous) is
        // still registered; it simply can never be a candidate.
        self.sequences += 1;
    }

    /// Remove the postings of `seq` under `key`. The sequence must be the
    /// one the key was added with: only its own k-mers' posting lists are
    /// visited, so the cost does not grow with the index.
    pub fn remove(&mut self, key: u64, seq: &DnaSeq) {
        let mut own: Vec<u64> = kmers(seq, self.k).into_iter().map(|(_, km)| km).collect();
        own.sort_unstable();
        own.dedup();
        for km in own {
            let Some(postings) = self.map.get_mut(&km) else { continue };
            let before = postings.len();
            postings.retain(|(k, _)| *k != key);
            self.positions -= before - postings.len();
            if postings.is_empty() {
                self.map.remove(&km);
            }
        }
        self.sequences = self.sequences.saturating_sub(1);
    }

    /// The pattern's k-mers if they cover it completely — the condition for
    /// the index to filter soundly. `kmers` skips windows holding an
    /// ambiguity code, so a pattern shorter than `k` or with any ambiguous
    /// symbol has fewer than one k-mer per window.
    fn covering_kmers(&self, pattern: &DnaSeq) -> Option<Vec<(usize, u64)>> {
        let pattern_kmers = kmers(pattern, self.k);
        (pattern.len() >= self.k && pattern_kmers.len() == pattern.len() - self.k + 1)
            .then_some(pattern_kmers)
    }

    /// Keys of sequences that share *every* k-mer of `pattern` (a superset
    /// of those containing `pattern` when the pattern is strict and at
    /// least `k` long). Returns `None` when the pattern is too short or too
    /// ambiguous to filter, in which case the caller must scan.
    pub fn candidates(&self, pattern: &DnaSeq) -> Option<HashSet<u64>> {
        let mut result: Option<HashSet<u64>> = None;
        for (_, km) in self.covering_kmers(pattern)? {
            let keys: HashSet<u64> = match self.map.get(&km) {
                Some(postings) => postings.iter().map(|(k, _)| *k).collect(),
                None => return Some(HashSet::new()),
            };
            result = Some(match result {
                None => keys,
                Some(acc) => acc.intersection(&keys).copied().collect(),
            });
            if result.as_ref().is_some_and(HashSet::is_empty) {
                break;
            }
        }
        result.or_else(|| Some(HashSet::new()))
    }

    /// Estimated fraction of sequences matching a `contains(pattern)`
    /// predicate, based on the rarest k-mer of the pattern; 1 for a pattern
    /// [`KmerIndex::candidates`] cannot filter. Used by the optimizer's
    /// selectivity hook (§6.5).
    pub fn estimate_selectivity(&self, pattern: &DnaSeq) -> f64 {
        if self.sequences == 0 {
            return 0.0;
        }
        let Some(pattern_kmers) = self.covering_kmers(pattern) else { return 1.0 };
        // A sequence's postings for one k-mer are adjacent (one `add` wrote
        // them), so distinct sequences are runs of equal keys.
        let rarest = pattern_kmers
            .iter()
            .map(|(_, km)| {
                self.map.get(km).map_or(0, |p| {
                    p.len().min(1) + p.windows(2).filter(|w| w[0].0 != w[1].0).count()
                })
            })
            .min()
            .unwrap_or(0);
        (rarest as f64 / self.sequences as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_text(s).unwrap()
    }

    fn sample_index() -> KmerIndex {
        let mut idx = KmerIndex::new(4);
        idx.add(1, &dna("ATGGCCTTTAAG"));
        idx.add(2, &dna("CCCCGGGGAAAA"));
        idx.add(3, &dna("ATGGCCAAAAAA"));
        idx
    }

    #[test]
    fn candidates_superset_of_matches() {
        let idx = sample_index();
        let cands = idx.candidates(&dna("ATGGCC")).unwrap();
        assert!(cands.contains(&1));
        assert!(cands.contains(&3));
        assert!(!cands.contains(&2));
    }

    #[test]
    fn absent_kmer_empty_candidates() {
        let idx = sample_index();
        let cands = idx.candidates(&dna("TTTTGGGG")).unwrap();
        assert!(cands.is_empty());
    }

    #[test]
    fn short_or_ambiguous_patterns_fall_back() {
        let idx = sample_index();
        assert!(idx.candidates(&dna("ATG")).is_none(), "shorter than k");
        assert!(idx.candidates(&dna("ATGNCC")).is_none(), "ambiguity breaks coverage");
    }

    #[test]
    fn remove_drops_postings() {
        let mut idx = sample_index();
        idx.remove(1, &dna("ATGGCCTTTAAG"));
        let cands = idx.candidates(&dna("TTTAAG")).unwrap();
        assert!(cands.is_empty());
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn remove_leaves_exactly_the_other_sequences() {
        // Removing one sequence — repeats, shared k-mers and all — leaves
        // the index as if it had never been added.
        let (shared, repeat) = (dna("ATGGCCAAAAAA"), dna("AAAAAAAAAAAA"));
        let mut with = sample_index();
        with.add(7, &repeat);
        with.remove(3, &shared);
        let mut without = KmerIndex::new(4);
        without.add(1, &dna("ATGGCCTTTAAG"));
        without.add(2, &dna("CCCCGGGGAAAA"));
        without.add(7, &repeat);
        assert_eq!(with.len(), without.len());
        assert_eq!(with.indexed_positions(), without.indexed_positions());
        assert_eq!(with.distinct_kmers(), without.distinct_kmers());
        for pattern in ["ATGGCC", "AAAA", "GGCCAAAA", "CCAAAAAA", "GGGGAAAA"] {
            let p = dna(pattern);
            assert_eq!(with.candidates(&p), without.candidates(&p), "{pattern}");
            assert_eq!(with.estimate_selectivity(&p), without.estimate_selectivity(&p));
        }
    }

    #[test]
    fn selectivity_counts_sequences_not_positions() {
        let mut idx = KmerIndex::new(4);
        idx.add(1, &dna("AAAAAAAAAAAA")); // nine postings of one k-mer
        idx.add(2, &dna("CCCCCCCCAAAA"));
        idx.add(3, &dna("GGGGGGGGGGGG"));
        assert_eq!(idx.estimate_selectivity(&dna("AAAA")), 2.0 / 3.0);
        // What `candidates` cannot filter is estimated as a full scan.
        assert_eq!(idx.estimate_selectivity(&dna("AAA")), 1.0);
        assert_eq!(idx.estimate_selectivity(&dna("AAAANAAAA")), 1.0);
    }

    #[test]
    fn counts_and_stats() {
        let idx = sample_index();
        assert_eq!(idx.len(), 3);
        assert!(idx.indexed_positions() > 0);
        assert!(idx.distinct_kmers() > 0);
        assert_eq!(idx.k(), 4);
        assert!(!idx.is_empty());
    }

    #[test]
    fn selectivity_estimates_bounded() {
        let idx = sample_index();
        let s = idx.estimate_selectivity(&dna("ATGGCC"));
        assert!(s > 0.0 && s <= 1.0);
        // A pattern with an absent k-mer estimates zero.
        assert_eq!(idx.estimate_selectivity(&dna("TTTTGGGG")), 0.0);
        // An unfilterable pattern estimates 1.
        assert_eq!(idx.estimate_selectivity(&dna("NNNNNN")), 1.0);
        assert_eq!(KmerIndex::new(4).estimate_selectivity(&dna("ATGC")), 0.0);
    }

    #[test]
    fn soundness_no_false_negatives() {
        // Randomized-ish check over a fixed corpus: every sequence that
        // truly contains the pattern appears among the candidates.
        let corpus = [
            "ATGGCCTTTAAGATCGATCG",
            "TTTTTTTTTTTTTTTTTTTT",
            "GGGGATGGCCTTTAAGGGGG",
            "ACGTACGTACGTACGTACGT",
        ];
        let mut idx = KmerIndex::new(5);
        for (i, s) in corpus.iter().enumerate() {
            idx.add(i as u64, &dna(s));
        }
        let pattern = dna("ATGGCCTTTAAG");
        let cands = idx.candidates(&pattern).unwrap();
        for (i, s) in corpus.iter().enumerate() {
            if dna(s).contains(&pattern) {
                assert!(cands.contains(&(i as u64)), "missed true match {i}");
            }
        }
    }
}
