//! Sequence-level analysis operations shared by the algebra.
//!
//! These are the "comprehensive collection of genomic operations" the paper
//! demands beyond the central-dogma trio: open-reading-frame discovery,
//! k-mer decomposition, composition profiles, and simple physical estimates.

use crate::alphabet::{DnaBase, Strand};
use crate::codon::GeneticCode;
use crate::error::Result;
use crate::seq::DnaSeq;

/// An open reading frame located on a DNA sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orf {
    /// Start offset of the start codon on the *forward* coordinate system.
    pub start: usize,
    /// Exclusive end offset (just past the stop codon) on forward coordinates.
    pub end: usize,
    /// Which strand the ORF reads along.
    pub strand: Strand,
    /// Reading frame 0–2 relative to the strand's 5' end.
    pub frame: u8,
}

impl Orf {
    /// Length of the ORF in nucleotides (including the stop codon).
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a degenerate empty ORF (never produced by [`find_orfs`]).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Find every open reading frame of at least `min_len` nucleotides
/// (start codon through stop codon inclusive) on both strands.
///
/// Only strict (unambiguous) sequences are scanned; ambiguity codes
/// terminate any ORF currently being read, which is the conservative
/// behaviour for noisy repository data.
pub fn find_orfs(seq: &DnaSeq, code: &GeneticCode, min_len: usize) -> Vec<Orf> {
    let mut orfs = Vec::new();
    scan_strand(seq, code, min_len, Strand::Forward, &mut orfs);
    let rc = seq.reverse_complement();
    scan_strand(&rc, code, min_len, Strand::Reverse, &mut orfs);
    // Map reverse-strand coordinates back onto forward coordinates.
    let n = seq.len();
    for orf in orfs.iter_mut().filter(|o| o.strand == Strand::Reverse) {
        let (s, e) = (orf.start, orf.end);
        orf.start = n - e;
        orf.end = n - s;
    }
    orfs.sort_by_key(|o| (o.start, o.end));
    orfs
}

fn scan_strand(
    seq: &DnaSeq,
    code: &GeneticCode,
    min_len: usize,
    strand: Strand,
    out: &mut Vec<Orf>,
) {
    let bases: Vec<Option<DnaBase>> = seq.iter().map(|s| s.as_base()).collect();
    let n = bases.len();
    for frame in 0..3usize {
        let mut i = frame;
        let mut open: Option<usize> = None;
        while i + 3 <= n {
            let codon = match (bases[i], bases[i + 1], bases[i + 2]) {
                (Some(a), Some(b), Some(c)) => Some([a, b, c]),
                _ => None,
            };
            match codon {
                None => open = None, // ambiguity: abandon the current ORF
                Some(c) => {
                    if open.is_none() && code.is_start_dna(c) {
                        open = Some(i);
                    } else if let Some(start) = open {
                        if code.is_stop_dna(c) {
                            let end = i + 3;
                            if end - start >= min_len {
                                out.push(Orf { start, end, strand, frame: frame as u8 });
                            }
                            open = None;
                        }
                    }
                }
            }
            i += 3;
        }
    }
}

/// Iterate over the `k`-mers of a strict sequence as packed 2-bit integers.
///
/// Returns `(position, packed_kmer)` pairs; windows containing ambiguity
/// codes are skipped. `k` must be 1–31 so the packed value fits in a `u64`.
pub fn kmers(seq: &DnaSeq, k: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::with_capacity((seq.len() + 1).saturating_sub(k));
    seq.view().for_each_kmer(k, |pos, packed| out.push((pos, packed)));
    out
}

/// Pack a strict k-mer (given as bases) into its 2-bit integer code.
pub fn pack_kmer(bases: &[DnaBase]) -> u64 {
    assert!(bases.len() <= 31);
    bases.iter().fold(0u64, |acc, b| (acc << 2) | b.code() as u64)
}

/// Unpack a 2-bit k-mer code back into bases.
pub fn unpack_kmer(packed: u64, k: usize) -> Vec<DnaBase> {
    (0..k).rev().map(|i| DnaBase::from_code(((packed >> (2 * i)) & 0b11) as u8)).collect()
}

/// GC fraction in sliding windows of `window` nucleotides stepped by `step`.
pub fn gc_profile(seq: &DnaSeq, window: usize, step: usize) -> Result<Vec<(usize, f64)>> {
    assert!(window > 0 && step > 0, "window and step must be positive");
    let mut out = Vec::new();
    let mut start = 0;
    while start + window <= seq.len() {
        let w = seq.subseq(start, start + window)?;
        out.push((start, w.gc_content()));
        start += step;
    }
    Ok(out)
}

/// Length of the longest open reading frame (nucleotides, stop included),
/// or 0 when no complete ORF exists.
pub fn longest_orf(seq: &DnaSeq, code: &GeneticCode) -> usize {
    find_orfs(seq, code, 0).iter().map(Orf::len).max().unwrap_or(0)
}

/// Wallace-rule melting temperature estimate: `2(A+T) + 4(G+C)` °C.
///
/// Only meaningful for short oligos (≲ 14 nt), which is exactly the primer
/// use-case biologists ask for; ambiguity codes contribute nothing.
pub fn melting_temperature(seq: &DnaSeq) -> f64 {
    let [a, c, g, t] = seq.base_counts();
    2.0 * (a + t) as f64 + 4.0 * (g + c) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_text(s).unwrap()
    }

    #[test]
    fn finds_simple_forward_orf() {
        // ATG AAA TAA = start, Lys, stop; frame 0.
        let seq = dna("ATGAAATAA");
        let orfs = find_orfs(&seq, &GeneticCode::standard(), 6);
        assert_eq!(orfs.len(), 1);
        assert_eq!(orfs[0], Orf { start: 0, end: 9, strand: Strand::Forward, frame: 0 });
        assert_eq!(orfs[0].len(), 9);
    }

    #[test]
    fn finds_offset_frame_orf() {
        let seq = dna("CCATGAAATAG"); // ORF starts at 2, frame 2
        let orfs = find_orfs(&seq, &GeneticCode::standard(), 6);
        let fwd: Vec<_> = orfs.iter().filter(|o| o.strand == Strand::Forward).collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].start, 2);
        assert_eq!(fwd[0].end, 11);
        assert_eq!(fwd[0].frame, 2);
    }

    #[test]
    fn finds_reverse_strand_orf() {
        // Reverse complement of ATGAAATAA is TTATTTCAT; embed it.
        let seq = dna("TTATTTCAT");
        let orfs = find_orfs(&seq, &GeneticCode::standard(), 6);
        let rev: Vec<_> = orfs.iter().filter(|o| o.strand == Strand::Reverse).collect();
        assert_eq!(rev.len(), 1);
        assert_eq!((rev[0].start, rev[0].end), (0, 9));
    }

    #[test]
    fn min_len_filters() {
        let seq = dna("ATGAAATAA");
        assert!(find_orfs(&seq, &GeneticCode::standard(), 10).is_empty());
    }

    #[test]
    fn ambiguity_breaks_orf() {
        let seq = dna("ATGANATAA");
        assert!(find_orfs(&seq, &GeneticCode::standard(), 3).is_empty());
    }

    #[test]
    fn kmer_enumeration() {
        let seq = dna("ACGT");
        let ks = kmers(&seq, 2);
        assert_eq!(ks.len(), 3);
        assert_eq!(ks[0], (0, pack_kmer(&[DnaBase::A, DnaBase::C])));
        assert_eq!(ks[2], (2, pack_kmer(&[DnaBase::G, DnaBase::T])));
    }

    #[test]
    fn kmers_skip_ambiguity() {
        let seq = dna("ACNGT");
        let ks = kmers(&seq, 2);
        assert_eq!(ks.len(), 2); // AC at 0 and GT at 3
        assert_eq!(ks[0].0, 0);
        assert_eq!(ks[1].0, 3);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let bases = vec![DnaBase::G, DnaBase::A, DnaBase::T, DnaBase::C];
        assert_eq!(unpack_kmer(pack_kmer(&bases), 4), bases);
    }

    #[test]
    fn gc_profile_windows() {
        let seq = dna("GGGGAAAA");
        let profile = gc_profile(&seq, 4, 4).unwrap();
        assert_eq!(profile, vec![(0, 1.0), (4, 0.0)]);
    }

    #[test]
    fn longest_orf_selection() {
        let code = GeneticCode::standard();
        // Two ORFs: 9 nt in frame 0, 15 nt in frame 1.
        let seq = dna("ATGAAATAACATGAAAAAATAGG");
        let best = longest_orf(&seq, &code);
        assert!(best >= 9, "{best}");
        assert_eq!(longest_orf(&dna("CCCCCC"), &code), 0);
    }

    #[test]
    fn wallace_rule() {
        let seq = dna("ATGC");
        assert!((melting_temperature(&seq) - (2.0 * 2.0 + 4.0 * 2.0)).abs() < 1e-12);
    }
}
