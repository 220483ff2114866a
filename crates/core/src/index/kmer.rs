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

/// How many symbols short of `k` a pattern may be and still be answered
/// from the lists: a strict pattern `d` symbols short lies inside
/// `(d + 1)·4^d` k-mers — 8 lists at `d = 1`, 48 at `d = 2`, 256 at
/// `d = 3`, past which the union costs about what a scan does.
const MAX_SHORTFALL: usize = 2;

/// Most concrete k-mers one window holding ambiguity codes is indexed
/// under: the bases its codes stand for, multiplied out. Two `N`s in one
/// window (16) are expanded; a sequence with a window standing for more is
/// left uncovered.
const MAX_EXPANSION: usize = 16;

/// An inverted index mapping every k-mer to the sequences it occurs in.
///
/// Sequences are registered under caller-chosen `u64` keys (the adapter
/// uses row ids). Each k-mer has one posting list holding the keys of the
/// sequences that contain it, ascending and without duplicates; where in a
/// sequence the k-mer occurs is not kept, since the filter never asks.
///
/// An ambiguity code in a sequence matches every pattern base it stands
/// for, so a window holding one is indexed under each concrete k-mer it is
/// compatible with. A sequence is *covered* when every one of its windows
/// is indexed that way: it is at least `k` long and no window stands for
/// more than `MAX_EXPANSION` (16) k-mers. The keys of the other sequences are
/// kept in one ascending `uncovered` list. The index is *sound* as a
/// filter: for a strict pattern of length ≥ `k − 2`, every sequence
/// containing the pattern is returned by [`KmerIndex::candidates`] — a
/// covered one through the lists, an uncovered one always; verification
/// against the actual sequence removes false positives.
///
/// [`KmerIndex::build`] indexes a collection in bulk; [`KmerIndex::add`]
/// and [`KmerIndex::remove`] then maintain it one sequence at a time. Both
/// routes give equal indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerIndex {
    k: usize,
    map: KmerMap<Vec<u64>>,
    /// Keys of registered sequences that are not covered (shorter than `k`,
    /// or a window too ambiguous to expand), ascending: they are candidates
    /// for every pattern.
    uncovered: Vec<u64>,
    /// Number of indexed sequences, used for selectivity estimation.
    sequences: usize,
    /// Total strict k-mer windows of the indexed sequences, repeats
    /// included.
    positions: usize,
}

/// The posting lists that decide a pattern's candidates.
enum Cover<'s> {
    /// The pattern's own k-mers (it is at least `k` long): a covered
    /// sequence containing it holds every one.
    Every(Vec<&'s [u64]>),
    /// The k-mers a shorter pattern can lie inside: a covered sequence
    /// containing it holds at least one.
    Any(Vec<&'s [u64]>),
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
    /// Largest word size. [`KmerIndex::build`] counts into dense tables of
    /// 4^k cells: 65 536 at `k = 8` (about 2 MB while it runs), a million
    /// at `k = 10` (about 32 MB).
    pub const MAX_K: usize = 10;

    /// An empty index with word size `k` (1–[`KmerIndex::MAX_K`]).
    pub fn new(k: usize) -> Self {
        assert!((1..=Self::MAX_K).contains(&k), "k must be in 1..={}", Self::MAX_K);
        KmerIndex { k, map: KmerMap::default(), uncovered: Vec::new(), sequences: 0, positions: 0 }
    }

    /// An index with word size `k` over `seqs`, built in bulk: equal to
    /// [`KmerIndex::new`] followed by [`KmerIndex::add`] for every `(key,
    /// sequence)` pair. Keys must be distinct; ascending is the cheap case,
    /// and any other order is sorted first.
    ///
    /// A two-pass counting sort over the 4^k k-mers. The first pass counts,
    /// for each k-mer, the sequences holding it — a stamp remembers the
    /// last one counted, so a repeat within a sequence counts once. Each
    /// list is then allocated at exactly that length, and the second pass
    /// appends the keys, which arrive ascending.
    pub fn build<'a>(k: usize, seqs: impl IntoIterator<Item = (u64, DnaView<'a>)>) -> Self {
        let mut index = KmerIndex::new(k);
        let mut seqs: Vec<(u64, DnaView<'a>)> = seqs.into_iter().collect();
        // Stable: a run already in order costs one pass.
        seqs.sort_by_key(|&(key, _)| key);
        let cells = 1usize << (2 * k);
        let (mut counts, mut stamps) = (vec![0u32; cells], vec![0u32; cells]);
        for (ordinal, &(key, seq)) in seqs.iter().enumerate() {
            let stamp = u32::try_from(ordinal + 1).expect("fewer than 2^32 sequences");
            let (windows, covered) = held(k, seq, |km| {
                let cell = km as usize;
                if stamps[cell] != stamp {
                    stamps[cell] = stamp;
                    counts[cell] += 1;
                }
            });
            if !covered {
                index.uncovered.push(key);
            }
            index.positions += windows;
        }
        index.sequences = seqs.len();
        let mut lists: Vec<Vec<u64>> =
            counts.into_iter().map(|n| Vec::with_capacity(n as usize)).collect();
        for &(key, seq) in &seqs {
            // A repeat within the sequence finds its key already at the tail.
            held(k, seq, |km| {
                let list = &mut lists[km as usize];
                if list.last() != Some(&key) {
                    list.push(key);
                }
            });
        }
        let listed = lists.into_iter().enumerate().filter(|(_, list)| !list.is_empty());
        index.map = listed.map(|(km, list)| (km as u64, list)).collect();
        index
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

    /// Total number of strict k-mer windows of the indexed sequences,
    /// counting a k-mer that repeats within a sequence once per window.
    pub fn indexed_positions(&self) -> usize {
        self.positions
    }

    /// Number of distinct k-mers with a posting list.
    pub fn distinct_kmers(&self) -> usize {
        self.map.len()
    }

    /// Index `seq` under `key`, which must not be indexed already; call
    /// [`KmerIndex::remove`] first when replacing. Keys may arrive in any
    /// order, but ascending keys are the cheap case.
    pub fn add<'a>(&mut self, key: u64, seq: impl Into<DnaView<'a>>) {
        let (windows, covered) =
            held(self.k, seq.into(), |km| insert_sorted(self.map.entry(km).or_default(), key));
        if !covered {
            insert_sorted(&mut self.uncovered, key);
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
        let (windows, covered) = held(self.k, seq.into(), |km| own.push(km));
        let mut present = !covered && remove_sorted(&mut self.uncovered, key);
        own.sort_unstable();
        own.dedup();
        for km in own {
            let Some(list) = self.map.get_mut(&km) else { continue };
            if remove_sorted(list, key) {
                present = true;
                if list.is_empty() {
                    self.map.remove(&km);
                }
            }
        }
        if present {
            self.sequences = self.sequences.saturating_sub(1);
            self.positions = self.positions.saturating_sub(windows);
        }
    }

    /// The posting list of `km`, empty for a k-mer no sequence has.
    fn list(&self, km: u64) -> &[u64] {
        self.map.get(&km).map_or(&[][..], Vec::as_slice)
    }

    /// The lists that decide `pattern`'s candidates among the covered
    /// sequences, or `None` if they cannot: the pattern holds an ambiguity
    /// code, is empty, or is more than [`MAX_SHORTFALL`] symbols short of
    /// `k`.
    fn cover<'s>(&'s self, pattern: DnaView<'_>) -> Option<Cover<'s>> {
        let (k, m) = (self.k, pattern.len());
        if m >= k {
            let mut own = Vec::with_capacity(m - k + 1);
            pattern.for_each_kmer(k, |_, km| own.push(km));
            if !covers(k, m, own.len()) {
                return None;
            }
            own.sort_unstable();
            own.dedup();
            return Some(Cover::Every(own.into_iter().map(|km| self.list(km)).collect()));
        }
        let short = k - m;
        if m == 0 || short > MAX_SHORTFALL {
            return None;
        }
        let mut packed = None;
        pattern.for_each_kmer(m, |_, km| packed = Some(km));
        let packed = packed?;
        // The pattern at offset `j` of a window: any `j` bases before it,
        // any `short - j` after; first base highest.
        let mut covering = Vec::with_capacity((short + 1) << (2 * short));
        for j in 0..=short {
            let after = short - j;
            for before in 0..1u64 << (2 * j) {
                let middle = ((before << (2 * m)) | packed) << (2 * after);
                covering.extend((0..1u64 << (2 * after)).map(|tail| middle | tail));
            }
        }
        covering.sort_unstable();
        covering.dedup();
        Some(Cover::Any(covering.into_iter().map(|km| self.list(km)).collect()))
    }

    /// Keys of the sequences that may contain `pattern`, ascending: for a
    /// pattern at least `k` long, those sharing *every* one of its k-mers;
    /// for a shorter one, those holding *any* k-mer it can lie inside; and
    /// in both cases every uncovered sequence. A superset of the sequences
    /// containing the pattern. Returns `None` when the pattern is too
    /// short or ambiguous to filter, in which case the caller must scan.
    pub fn candidates<'a>(&self, pattern: impl Into<DnaView<'a>>) -> Option<Vec<u64>> {
        let mut keys = match self.cover(pattern.into())? {
            Cover::Every(lists) => intersect(lists),
            Cover::Any(lists) => lists.concat(),
        };
        keys.extend_from_slice(&self.uncovered);
        keys.sort_unstable();
        keys.dedup();
        Some(keys)
    }

    /// Estimated fraction of sequences matching a `contains(pattern)`
    /// predicate, from list lengths alone: the pattern's rarest list (at
    /// least `k` long) or the sum of its covering lists (shorter), plus the
    /// uncovered sequences, over the number of sequences and at most 1 —
    /// a bound on the share [`KmerIndex::candidates`] returns. 1 for a
    /// pattern `candidates` cannot filter, whatever the index holds. Used by
    /// the optimizer's selectivity hook (§6.5).
    pub fn estimate_selectivity<'a>(&self, pattern: impl Into<DnaView<'a>>) -> f64 {
        let Some(cover) = self.cover(pattern.into()) else { return 1.0 };
        if self.sequences == 0 {
            return 0.0;
        }
        let listed = match cover {
            Cover::Every(lists) => lists.iter().map(|list| list.len()).min().unwrap_or(0),
            Cover::Any(lists) => lists.iter().map(|list| list.len()).sum(),
        };
        ((listed + self.uncovered.len()) as f64 / self.sequences as f64).min(1.0)
    }
}

/// True if a sequence of `len` symbols that yields `windows` k-mers has
/// one for every window. `for_each_kmer` skips windows holding an
/// ambiguity code, so this holds exactly for strict sequences at least `k`
/// long.
fn covers(k: usize, len: usize, windows: usize) -> bool {
    len >= k && windows == len - k + 1
}

/// Call `f` with every k-mer `seq` is indexed under, repeats included: its
/// strict windows', then, if those leave a window out, every concrete
/// k-mer its ambiguous windows stand for. Returns the number of strict
/// windows and whether the sequence is covered; an uncovered one belongs
/// on the `uncovered` list besides its strict windows' lists.
fn held(k: usize, seq: DnaView<'_>, mut f: impl FnMut(u64)) -> (usize, bool) {
    let mut windows = 0;
    seq.for_each_kmer(k, |_, km| {
        windows += 1;
        f(km);
    });
    if covers(k, seq.len(), windows) {
        return (windows, true);
    }
    match expanded(k, seq) {
        Some(extra) => {
            extra.into_iter().for_each(f);
            (windows, true)
        }
        None => (windows, false),
    }
}

/// The concrete k-mers of the windows of `seq` that hold an ambiguity code
/// — every k-mer such a window is compatible with — or `None` if the
/// sequence is shorter than `k` or a window stands for more than
/// [`MAX_EXPANSION`]. Empty for a strict sequence.
fn expanded(k: usize, seq: DnaView<'_>) -> Option<Vec<u64>> {
    // Base sets as masks (A=1, C=2, G=4, T=8); a zero nibble reads as N.
    let sets: Vec<u8> = seq.codes().map(|c| if c == 0 { 15 } else { c }).collect();
    if sets.len() < k {
        return None;
    }
    let mut out = Vec::new();
    let mut ambiguous = None; // the last ambiguity code's position so far
    for (at, &set) in sets.iter().enumerate() {
        if !set.is_power_of_two() {
            ambiguous = Some(at);
        }
        // The window ending here, if it holds that code.
        let Some(start) = at.checked_sub(k - 1) else { continue };
        if ambiguous.is_none_or(|p| p < start) {
            continue;
        }
        let mut window = vec![0u64];
        for &set in &sets[start..=at] {
            let bases = (0..4u64).filter(|b| set >> b & 1 == 1);
            window = window.iter().flat_map(|&x| bases.clone().map(move |b| x << 2 | b)).collect();
            if window.len() > MAX_EXPANSION {
                return None;
            }
        }
        out.extend(window);
    }
    Some(out)
}

/// The keys on every list, ascending.
fn intersect(mut lists: Vec<&[u64]>) -> Vec<u64> {
    // Rarest first: the running result only ever shrinks, and each further
    // list is searched, not walked.
    lists.sort_unstable_by_key(|list| list.len());
    let Some((rarest, rest)) = lists.split_first() else { return Vec::new() };
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
    result
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
        assert!(idx.candidates(&dna("A")).is_none(), "three short of k");
        assert!(idx.candidates(&dna("")).is_none(), "empty");
        assert!(idx.candidates(&dna("ATGNCC")).is_none(), "ambiguity breaks coverage");
        assert!(idx.candidates(&dna("ANG")).is_none(), "ambiguity below k too");
    }

    #[test]
    fn patterns_below_k_answer_from_the_covering_kmers() {
        let idx = sample_index();
        // One and two symbols short: every window holding the pattern.
        assert_eq!(idx.candidates(&dna("TGG")).unwrap(), vec![1, 3]);
        assert_eq!(idx.candidates(&dna("AA")).unwrap(), vec![1, 2, 3]);
        assert_eq!(idx.candidates(&dna("TTT")).unwrap(), vec![1]);
        assert_eq!(idx.candidates(&dna("GT")).unwrap(), Vec::<u64>::new());
        // At the start and at the end of a sequence.
        assert_eq!(idx.candidates(&dna("CCC")).unwrap(), vec![2]);
        assert_eq!(idx.candidates(&dna("AG")).unwrap(), vec![1]);
    }

    #[test]
    fn ambiguous_windows_are_indexed_under_every_kmer_they_match() {
        // An ambiguity code in the subject matches any base it stands for,
        // so the sequence can contain a pattern none of its strict windows
        // shows.
        let mut idx = sample_index();
        let blurred = dna("ATGGCCNTTAAG");
        idx.add(9, &blurred);
        assert!(blurred.contains(&dna("ATGGCCATTAAG")));
        assert_eq!(idx.candidates(&dna("ATGGCCATTAAG")).unwrap(), vec![9]);
        assert_eq!(idx.candidates(&dna("CCGT")).unwrap(), vec![9]);
        assert_eq!(idx.candidates(&dna("GT")).unwrap(), vec![9]);
        assert_eq!(idx.indexed_positions(), 27 + 5, "strict windows only");
        idx.remove(9, &blurred);
        assert_eq!(idx.candidates(&dna("CCGT")).unwrap(), Vec::<u64>::new());
        assert_eq!(idx.distinct_kmers(), sample_index().distinct_kmers());
    }

    #[test]
    fn uncovered_sequences_are_candidates_for_every_pattern() {
        // Shorter than k, or a window standing for more than 16 k-mers
        // (three Ns): listed once, returned for every pattern.
        let mut idx = sample_index();
        let (short, murky) = (dna("GT"), dna("ATGGCCNNNTTAAG"));
        idx.add(8, &short);
        idx.add(9, &murky);
        assert_eq!(idx.candidates(&dna("ATGGCCATTAAG")).unwrap(), vec![8, 9]);
        assert_eq!(idx.candidates(&dna("GT")).unwrap(), vec![8, 9]);
        assert_eq!(idx.candidates(&dna("ATGGCC")).unwrap(), vec![1, 3, 8, 9]);
        // Removing takes a key out of the lists and the uncovered list.
        idx.remove(9, &murky);
        assert_eq!(idx.candidates(&dna("ATGGCC")).unwrap(), vec![1, 3, 8]);
        idx.remove(8, &short);
        assert_eq!(idx.candidates(&dna("ATGGCC")).unwrap(), vec![1, 3]);
        assert_eq!((idx.len(), idx.indexed_positions()), (3, 27));
    }

    #[test]
    fn building_in_bulk_equals_adding_one_at_a_time() {
        // Keys out of order; strict, ambiguous, short and over-ambiguous
        // sequences, and a k-mer repeated within one sequence.
        let seqs = [
            (7, dna("AAAAAAAAAAAA")),
            (2, dna("ATGGCCNTTAAG")),
            (5, dna("GT")),
            (1, dna("ATGGCCTTTAAG")),
            (9, dna("ATGGCCNNNTTAAG")),
        ];
        let built = KmerIndex::build(4, seqs.iter().map(|(key, s)| (*key, s.view())));
        let mut added = KmerIndex::new(4);
        for (key, s) in &seqs {
            added.add(*key, s);
        }
        assert_eq!(built, added);
        assert_eq!(built.candidates(&dna("ATGGCC")).unwrap(), vec![1, 2, 5, 9]);
        assert_eq!(KmerIndex::build(4, []), KmerIndex::new(4));
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
        // Below k: the distinct covering lists' lengths summed (GGGG is
        // both xGGG and GGGx), capped at 1.
        assert_eq!(idx.estimate_selectivity(&dna("GGG")), 1.0 / 3.0);
        assert_eq!(idx.estimate_selectivity(&dna("AAA")), 1.0);
        // What `candidates` cannot filter is estimated as a full scan.
        assert_eq!(idx.estimate_selectivity(&dna("A")), 1.0);
        assert_eq!(idx.estimate_selectivity(&dna("AAAANAAAA")), 1.0);
        // Uncovered sequences are counted for every pattern.
        idx.add(4, &dna("CCNNNCC"));
        assert_eq!(idx.estimate_selectivity(&dna("GGGG")), 2.0 / 4.0);
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
        // An unfilterable pattern estimates 1, on an empty index too.
        assert_eq!(idx.estimate_selectivity(&dna("NNNNNN")), 1.0);
        assert_eq!(KmerIndex::new(4).estimate_selectivity(&dna("ATGC")), 0.0);
        assert_eq!(KmerIndex::new(4).estimate_selectivity(&dna("AT")), 0.0);
        assert_eq!(KmerIndex::new(4).estimate_selectivity(&dna("A")), 1.0);
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
