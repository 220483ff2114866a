//! Inverted k-mer index over a collection of sequences.

use crate::seq::DnaView;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a packed k-mer with one 64×64→128-bit multiply, folding the high
/// half into the low so that every input bit reaches the bucket bits. A
/// k-mer is already a uniformly spread integer; SipHash's keyed rounds buy
/// nothing here and cost most of a probe.
#[derive(Debug, Clone, Copy, Default)]
struct KmerHasher(u64);

/// Odd multiplier (2^64 / φ).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for KmerHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * u128::from(MULTIPLIER);
        self.0 = (product >> 64) as u64 ^ product as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type KmerMap<V> = HashMap<u64, V, BuildHasherDefault<KmerHasher>>;

/// An inverted index mapping every k-mer to the sequences it occurs in.
///
/// Sequences are registered under caller-chosen `u64` keys (the adapter
/// uses row ids). Each k-mer has one posting list holding the keys of the
/// sequences that contain it, ascending and without duplicates; where in a
/// sequence the k-mer occurs is not kept, since the filter never asks. The
/// index is *sound* as a filter: for a strict pattern of length ≥ k, every
/// sequence containing the pattern is returned by
/// [`KmerIndex::candidates`]; verification against the actual sequence
/// removes false positives.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    map: KmerMap<Vec<u64>>,
    /// Keys of registered sequences that yield no k-mer (shorter than `k`
    /// or ambiguous throughout), ascending: no posting list records them.
    bare: Vec<u64>,
    /// Number of indexed sequences, used for selectivity estimation.
    sequences: usize,
    /// Total k-mer windows of the indexed sequences, repeats included.
    positions: usize,
}

/// Insert `key` into an ascending list unless it is there. Keys mostly
/// arrive in order, so the tail is checked before searching.
fn insert_sorted(list: &mut Vec<u64>, key: u64) {
    match list.last() {
        Some(&last) if last == key => {}
        Some(&last) if last > key => {
            if let Err(at) = list.binary_search(&key) {
                list.insert(at, key);
            }
        }
        _ => list.push(key),
    }
}

/// Remove `key` from an ascending list; true if it was there.
fn remove_sorted(list: &mut Vec<u64>, key: u64) -> bool {
    let found = list.binary_search(&key);
    if let Ok(at) = found {
        list.remove(at);
    }
    found.is_ok()
}

impl KmerIndex {
    /// An empty index with word size `k` (1–31).
    pub fn new(k: usize) -> Self {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        KmerIndex { k, map: KmerMap::default(), bare: Vec::new(), sequences: 0, positions: 0 }
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

    /// Total number of k-mer windows of the indexed sequences, counting a
    /// k-mer that repeats within a sequence once per window.
    pub fn indexed_positions(&self) -> usize {
        self.positions
    }

    /// Number of distinct k-mers seen.
    pub fn distinct_kmers(&self) -> usize {
        self.map.len()
    }

    /// Index `seq` under `key`, which must not be indexed already; call
    /// [`KmerIndex::remove`] first when replacing. Keys may arrive in any
    /// order, but ascending keys are the cheap case.
    pub fn add<'a>(&mut self, key: u64, seq: impl Into<DnaView<'a>>) {
        let (k, map) = (self.k, &mut self.map);
        let mut windows = 0;
        seq.into().for_each_kmer(k, |_, km| {
            windows += 1;
            insert_sorted(map.entry(km).or_default(), key);
        });
        // A sequence that yields no k-mers is still registered; it simply
        // can never be a candidate.
        if windows == 0 {
            insert_sorted(&mut self.bare, key);
        }
        self.positions += windows;
        self.sequences += 1;
    }

    /// Remove the postings of `seq` under `key`. The sequence must be the
    /// one the key was added with: only its own k-mers' posting lists are
    /// visited, so the cost does not grow with the index. Removing a key
    /// that is not indexed changes nothing.
    pub fn remove<'a>(&mut self, key: u64, seq: impl Into<DnaView<'a>>) {
        let mut own = Vec::new();
        seq.into().for_each_kmer(self.k, |_, km| own.push(km));
        let windows = own.len();
        let present = if own.is_empty() {
            remove_sorted(&mut self.bare, key)
        } else {
            own.sort_unstable();
            own.dedup();
            let mut present = false;
            for km in own {
                let Some(list) = self.map.get_mut(&km) else { continue };
                if remove_sorted(list, key) {
                    present = true;
                    if list.is_empty() {
                        self.map.remove(&km);
                    }
                }
            }
            present
        };
        if present {
            self.sequences = self.sequences.saturating_sub(1);
            self.positions = self.positions.saturating_sub(windows);
        }
    }

    /// The posting lists of the pattern's k-mers if those cover it
    /// completely — the condition for the index to filter soundly — with
    /// an empty list for a k-mer no sequence has. `for_each_kmer` skips
    /// windows holding an ambiguity code, so a pattern shorter than `k` or
    /// with any ambiguous symbol has fewer than one k-mer per window.
    fn covering_lists<'s>(&'s self, pattern: DnaView<'_>) -> Option<Vec<&'s [u64]>> {
        let mut own = Vec::with_capacity((pattern.len() + 1).saturating_sub(self.k));
        pattern.for_each_kmer(self.k, |_, km| own.push(km));
        if pattern.len() < self.k || own.len() != pattern.len() - self.k + 1 {
            return None;
        }
        own.sort_unstable();
        own.dedup();
        Some(own.iter().map(|km| self.map.get(km).map_or(&[][..], Vec::as_slice)).collect())
    }

    /// Keys of sequences that share *every* k-mer of `pattern` (a superset
    /// of those containing `pattern` when the pattern is strict and at
    /// least `k` long), ascending. Returns `None` when the pattern is too
    /// short or too ambiguous to filter, in which case the caller must
    /// scan.
    pub fn candidates<'a>(&self, pattern: impl Into<DnaView<'a>>) -> Option<Vec<u64>> {
        let mut lists = self.covering_lists(pattern.into())?;
        // Rarest first: the running result only ever shrinks, and each
        // further list is searched, not walked.
        lists.sort_unstable_by_key(|list| list.len());
        let (rarest, rest) = lists.split_first()?;
        let mut result = rarest.to_vec();
        for list in rest {
            if result.is_empty() {
                break;
            }
            // Both sides ascend, so each search starts where the last ended.
            let mut from = 0;
            result.retain(|key| match list[from..].binary_search(key) {
                Ok(at) => {
                    from += at + 1;
                    true
                }
                Err(at) => {
                    from += at;
                    false
                }
            });
        }
        Some(result)
    }

    /// Estimated fraction of sequences matching a `contains(pattern)`
    /// predicate: the length of the pattern's rarest posting list over the
    /// number of sequences; 1 for a pattern [`KmerIndex::candidates`]
    /// cannot filter. Used by the optimizer's selectivity hook (§6.5).
    pub fn estimate_selectivity<'a>(&self, pattern: impl Into<DnaView<'a>>) -> f64 {
        if self.sequences == 0 {
            return 0.0;
        }
        let Some(lists) = self.covering_lists(pattern.into()) else { return 1.0 };
        let rarest = lists.iter().map(|list| list.len()).min().unwrap_or(0);
        (rarest as f64 / self.sequences as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::DnaSeq;

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
        assert_eq!(idx.candidates(&dna("ATGGCC")).unwrap(), vec![1, 3]);
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
        idx.add(1, &dna("AAAAAAAAAAAA")); // nine windows of one k-mer
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
        assert_eq!(idx.indexed_positions(), 27);
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
