//! Sequence alignment and similarity.
//!
//! The paper's §6.3 sketches a user-defined `resembles` operator for
//! comparing nucleotide sequences, and its §3 baseline systems wrap BLAST.
//! This module supplies the machinery from scratch:
//!
//! * [`global_align`] — Needleman–Wunsch with affine gaps (Gotoh).
//! * [`local_align`] — Smith–Waterman with affine gaps.
//! * [`seed_and_extend`] — a BLAST-style heuristic: exact k-mer seeds and
//!   ungapped X-drop extension.
//! * [`resembles`] — the similarity predicate exposed to the query language,
//!   and [`ResemblesQuery`], its query side prepared once for many subjects.
//!
//! All aligners work on ASCII symbol slices so one implementation serves
//! DNA, RNA, and protein sequences; typed wrappers do the conversion.

mod gotoh;
mod matrix;
mod score;
mod seedextend;

pub use gotoh::{global_align, local_align, Aligned};
pub use matrix::Blosum62;
pub use score::{NucleotideScore, Scoring};
pub use seedextend::{best_hsp_score, seed_and_extend, Hsp};

use crate::seq::{DnaSeq, DnaView, ProteinSeq};

/// Align two DNA sequences globally with the given scoring.
pub fn global_align_dna(a: &DnaSeq, b: &DnaSeq, scoring: &NucleotideScore) -> Aligned {
    global_align(a.to_text().as_bytes(), b.to_text().as_bytes(), scoring)
}

/// Align two DNA sequences locally with the given scoring.
pub fn local_align_dna(a: &DnaSeq, b: &DnaSeq, scoring: &NucleotideScore) -> Aligned {
    local_align(a.to_text().as_bytes(), b.to_text().as_bytes(), scoring)
}

/// Align two protein sequences globally under BLOSUM62.
pub fn global_align_protein(a: &ProteinSeq, b: &ProteinSeq) -> Aligned {
    global_align(a.to_text().as_bytes(), b.to_text().as_bytes(), &Blosum62::default())
}

/// Align two protein sequences locally under BLOSUM62.
pub fn local_align_protein(a: &ProteinSeq, b: &ProteinSeq) -> Aligned {
    local_align(a.to_text().as_bytes(), b.to_text().as_bytes(), &Blosum62::default())
}

/// The paper's `resembles` predicate: do the two sequences share a local
/// alignment with identity at least `min_identity` covering at least
/// `min_cover` of the shorter sequence?
///
/// The verdict is that of the full local alignment; a q-gram count rejects
/// pairs that cannot reach it before the quadratic alignment runs (see
/// [`ResemblesQuery`]), which is what makes the predicate usable inside
/// `WHERE` clauses over whole tables.
pub fn resembles(a: &DnaSeq, b: &DnaSeq, min_identity: f64, min_cover: f64) -> bool {
    ResemblesQuery::new(b.view(), min_identity, min_cover).matches(a.view())
}

/// Word size of the q-gram screen in front of `resembles`.
const SCREEN_K: usize = 8;

/// The query side of [`resembles`], prepared once and matched against many
/// subjects: the query's text as the aligner reads it, and the set of its
/// 8-mers as a 2¹⁶-bit map for the screen.
///
/// **The screen is sound** — it only rejects pairs the alignment would
/// reject. An accepted alignment of `L` columns has at most `e = (1 −
/// min_identity)·L` that are not identical; they cut the identical ones
/// into at most `e + 1` gap-free runs, and a run of `r` columns is `r − k +
/// 1` subject positions whose k-mer occurs in the query. With `L ≥
/// min_cover · short` and `s = 1 − k·(1 − min_identity) > 0`, at least
/// `min_cover · short · s − (k−1)` subject positions carry a query k-mer;
/// fewer, and the verdict is already "no". The argument needs identical
/// columns to hold concrete bases, so a query with an ambiguity code is
/// not screened, nor is anything when the bound is not positive. DESIGN.md
/// ("Genomic kernels and bound operators") spells the derivation out.
pub struct ResemblesQuery {
    text: Vec<u8>,
    /// Bit `x` is set when the query contains the 8-mer with packed code
    /// `x`. `None` when no subject could be screened out.
    kmers: Option<Box<[u64; 1 << (2 * SCREEN_K - 6)]>>,
    min_identity: f64,
    min_cover: f64,
}

/// Fewest subject positions that must carry a query k-mer for a pair whose
/// shorter side has `short` symbols to be accepted; 0 when nothing can be
/// concluded.
fn min_shared_kmers(short: usize, min_identity: f64, min_cover: f64) -> usize {
    let k = SCREEN_K as f64;
    let slope = 1.0 - k * (1.0 - min_identity);
    // NaN thresholds fail both comparisons and so disable the screen.
    if !(slope > 0.0 && min_cover > 0.0) {
        return 0;
    }
    // The verdict compares rounded quotients against the thresholds; the
    // slack keeps a rounding error in either from raising the bound.
    let bound = min_cover * short as f64 * slope - (k - 1.0) - 1e-6;
    if bound > 0.0 {
        bound.ceil() as usize
    } else {
        0
    }
}

impl ResemblesQuery {
    /// Prepare `query` for matching under the two thresholds.
    pub fn new(query: DnaView<'_>, min_identity: f64, min_cover: f64) -> Self {
        let screens =
            query.is_strict() && min_shared_kmers(query.len(), min_identity, min_cover) > 0;
        let kmers = screens.then(|| {
            let mut set = Box::new([0u64; 1 << (2 * SCREEN_K - 6)]);
            query.for_each_kmer(SCREEN_K, |_, km| set[(km >> 6) as usize] |= 1 << (km & 63));
            set
        });
        ResemblesQuery { text: query.to_text().into_bytes(), kmers, min_identity, min_cover }
    }

    /// Does `subject` resemble the query? Same verdict as [`resembles`]
    /// with the subject first.
    pub fn matches(&self, subject: DnaView<'_>) -> bool {
        if subject.is_empty() || self.text.is_empty() {
            return false;
        }
        let short = subject.len().min(self.text.len());
        if let Some(set) = &self.kmers {
            let need = min_shared_kmers(short, self.min_identity, self.min_cover);
            let mut hits = 0usize;
            subject.for_each_kmer(SCREEN_K, |_, km| {
                hits += ((set[(km >> 6) as usize] >> (km & 63)) & 1) as usize;
            });
            if hits < need {
                return false;
            }
        }
        let aln =
            local_align(subject.to_text().as_bytes(), &self.text, &NucleotideScore::default());
        let covered = aln.a_range.1 - aln.a_range.0;
        let cover = covered as f64 / short as f64;
        aln.identity() >= self.min_identity && cover >= self.min_cover
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_text(s).unwrap()
    }

    #[test]
    fn resembles_identical() {
        let a = dna("ATGGCCTTTAAGGGGCCCAAATTTGGGCCCATAT");
        assert!(resembles(&a, &a, 0.95, 0.95));
    }

    #[test]
    fn resembles_tolerates_small_divergence() {
        let a = dna("ATGGCCTTTAAGGGGCCCAAATTTGGGCCCATATACGT");
        let b = dna("ATGGCCTTTAAGGGGCACAAATTTGGGCCCATATACGT"); // one substitution
        assert!(resembles(&a, &b, 0.9, 0.9));
    }

    #[test]
    fn resembles_rejects_unrelated() {
        let a = dna("ATATATATATATATATATATATATATATATAT");
        let b = dna("GCGCGCGCGCGCGCGCGCGCGCGCGCGCGCGC");
        assert!(!resembles(&a, &b, 0.8, 0.5));
    }

    #[test]
    fn resembles_empty_is_false() {
        assert!(!resembles(&DnaSeq::empty(), &dna("ATG"), 0.5, 0.5));
    }

    #[test]
    fn typed_wrappers_agree_with_raw() {
        let a = dna("ATGGCC");
        let b = dna("ATGCCC");
        let scoring = NucleotideScore::default();
        let w = global_align_dna(&a, &b, &scoring);
        let r = global_align(b"ATGGCC", b"ATGCCC", &scoring);
        assert_eq!(w.score, r.score);
    }

    #[test]
    fn protein_wrappers_run() {
        let a = ProteinSeq::from_text("MAFKWH").unwrap();
        let b = ProteinSeq::from_text("MAFKYH").unwrap();
        let g = global_align_protein(&a, &b);
        assert!(g.score > 0);
        let l = local_align_protein(&a, &b);
        assert!(l.score >= g.score);
    }
}
