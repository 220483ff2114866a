//! The sequence operations as they were written before they ran on packed
//! bytes: one `IupacDna` at a time through `DnaSeq::get`. Kept as the
//! specification the byte- and word-parallel kernels are tested against.
//!
//! Shared by `tests/properties.rs` and, through `#[path]`, by the `align`
//! bench, which times each kernel against its reference in one process.

use genalg_core::align::{local_align_dna, NucleotideScore};
use genalg_core::alphabet::{DnaBase, IupacDna};
use genalg_core::seq::ops::unpack_kmer;
use genalg_core::seq::DnaSeq;

fn symbols(seq: &DnaSeq) -> impl DoubleEndedIterator<Item = IupacDna> + '_ {
    (0..seq.len()).map(|i| seq.get(i).expect("i < len"))
}

pub fn find_from(text: &DnaSeq, pattern: &DnaSeq, from: usize) -> Option<usize> {
    let (n, m) = (text.len(), pattern.len());
    if m == 0 {
        return (from <= n).then_some(from);
    }
    if m > n {
        return None;
    }
    let pat: Vec<IupacDna> = symbols(pattern).collect();
    'outer: for start in from..=(n - m) {
        for (j, p) in pat.iter().enumerate() {
            if !text.get(start + j).expect("start + j < n").compatible(*p) {
                continue 'outer;
            }
        }
        return Some(start);
    }
    None
}

pub fn find_all(text: &DnaSeq, pattern: &DnaSeq) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_from(text, pattern, from) {
        out.push(pos);
        from = pos + 1;
        if pattern.is_empty() {
            break;
        }
    }
    out
}

pub fn base_counts(seq: &DnaSeq) -> [usize; 4] {
    let mut counts = [0usize; 4];
    for b in symbols(seq).filter_map(IupacDna::as_base) {
        counts[b.code() as usize] += 1;
    }
    counts
}

pub fn gc_content(seq: &DnaSeq) -> f64 {
    let (mut gc, mut total) = (0usize, 0usize);
    for b in symbols(seq).filter_map(IupacDna::as_base) {
        total += 1;
        if matches!(b, DnaBase::G | DnaBase::C) {
            gc += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        gc as f64 / total as f64
    }
}

pub fn is_strict(seq: &DnaSeq) -> bool {
    symbols(seq).all(IupacDna::is_unambiguous)
}

pub fn complement(seq: &DnaSeq) -> DnaSeq {
    let out: Vec<IupacDna> = symbols(seq).map(IupacDna::complement).collect();
    DnaSeq::from_symbols(&out)
}

pub fn reverse_complement(seq: &DnaSeq) -> DnaSeq {
    let out: Vec<IupacDna> = symbols(seq).rev().map(IupacDna::complement).collect();
    DnaSeq::from_symbols(&out)
}

pub fn reversed(seq: &DnaSeq) -> DnaSeq {
    let out: Vec<IupacDna> = symbols(seq).rev().collect();
    DnaSeq::from_symbols(&out)
}

pub fn kmers(seq: &DnaSeq, k: usize) -> Vec<(usize, u64)> {
    let mask: u64 = (1u64 << (2 * k)) - 1;
    let mut out = Vec::new();
    let (mut packed, mut valid) = (0u64, 0usize);
    for i in 0..seq.len() {
        match seq.get(i).and_then(IupacDna::as_base) {
            Some(b) => {
                packed = ((packed << 2) | b.code() as u64) & mask;
                valid += 1;
                if valid >= k {
                    out.push((i + 1 - k, packed));
                }
            }
            None => {
                valid = 0;
                packed = 0;
            }
        }
    }
    out
}

/// The concrete k-mers the k-windows of `frag` holding an ambiguity code
/// stand for: each such window multiplied out over the bases its symbols
/// are compatible with. `None` if `frag` is shorter than `k` or a window
/// stands for more than 16.
fn ambiguous_window_kmers(frag: &DnaSeq, k: usize) -> Option<Vec<u64>> {
    let symbols: Vec<IupacDna> = symbols(frag).collect();
    let mut out = Vec::new();
    for window in symbols.windows(k).filter(|w| !w.iter().all(|s| s.is_unambiguous())) {
        let mut expanded = vec![0u64];
        for symbol in window {
            let bases = DnaBase::ALL.iter().filter(|b| symbol.compatible(IupacDna::from_base(**b)));
            expanded = expanded
                .iter()
                .flat_map(|&x| bases.clone().map(move |b| (x << 2) | u64::from(b.code())))
                .collect();
        }
        if expanded.len() > 16 {
            return None;
        }
        out.extend(expanded);
    }
    (symbols.len() >= k).then_some(out)
}

/// The k-mer filter with no index, each fragment's k-mers listed afresh:
/// the positions of the fragments that may contain `pattern`. A fragment
/// holds its strict windows' k-mers and the k-mers its ambiguous windows
/// stand for. One shorter than `k`, or with a window standing for more
/// than 16 k-mers, always may contain the pattern. Any other may if it
/// holds every k-mer of a pattern at least `k` long, or a k-mer that a
/// shorter pattern, at most two symbols short, occurs in. `None` when the
/// pattern cannot be filtered: ambiguous, empty or further below `k`.
pub fn kmer_candidates(frags: &[DnaSeq], pattern: &DnaSeq, k: usize) -> Option<Vec<u64>> {
    let m = pattern.len();
    if m == 0 || m + 2 < k || !is_strict(pattern) {
        return None;
    }
    let own: Vec<u64> = kmers(pattern, k).into_iter().map(|(_, km)| km).collect();
    let may_contain = |frag: &DnaSeq| {
        let mut held: Vec<u64> = kmers(frag, k).into_iter().map(|(_, km)| km).collect();
        if frag.len() < k || held.len() != frag.len() - k + 1 {
            match ambiguous_window_kmers(frag, k) {
                Some(extra) => held.extend(extra),
                None => return true,
            }
        }
        if m >= k {
            own.iter().all(|km| held.contains(km))
        } else {
            held.iter().any(|&km| {
                let bases = unpack_kmer(km, k);
                find_from(&DnaSeq::from_bases(&bases), pattern, 0).is_some()
            })
        }
    };
    Some((0..frags.len()).filter(|&i| may_contain(&frags[i])).map(|i| i as u64).collect())
}

pub fn to_text(seq: &DnaSeq) -> String {
    symbols(seq).map(IupacDna::to_char).collect()
}

pub fn from_text(text: &str) -> genalg_core::Result<DnaSeq> {
    let symbols: Vec<IupacDna> =
        text.chars().map(IupacDna::from_char).collect::<genalg_core::Result<_>>()?;
    Ok(DnaSeq::from_symbols(&symbols))
}

/// `resembles` with nothing in front of the alignment.
pub fn resembles(a: &DnaSeq, b: &DnaSeq, min_identity: f64, min_cover: f64) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    let aln = local_align_dna(a, b, &NucleotideScore::default());
    let cover = (aln.a_range.1 - aln.a_range.0) as f64 / a.len().min(b.len()) as f64;
    aln.identity() >= min_identity && cover >= min_cover
}
