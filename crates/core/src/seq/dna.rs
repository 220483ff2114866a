//! The `dna` genomic data type: an IUPAC nucleotide sequence.

use crate::alphabet::{DnaBase, IupacDna};
use crate::error::{GenAlgError, Result};
use crate::seq::packed::PackedVec;
use crate::seq::rna::RnaSeq;
use crate::seq::view::{self, DnaView, Pattern};
use std::fmt;

/// A DNA sequence over the 15-symbol IUPAC alphabet, packed at 4 bits per
/// symbol.
///
/// `DnaSeq` is the workhorse GDT of the algebra. It deliberately admits
/// ambiguity codes because repository data is noisy (problem B10); strict
/// operations such as transcription check [`DnaSeq::is_strict`] first.
///
/// `DnaSeq` owns the packed bytes; every read-only operation runs on the
/// borrowed [`DnaView`] of them, the same code a stored payload is read
/// with.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnaSeq {
    codes: PackedVec,
}

impl DnaSeq {
    /// The empty sequence.
    pub fn empty() -> Self {
        DnaSeq { codes: PackedVec::new(4) }
    }

    /// Parse from text containing IUPAC characters (case-insensitive).
    pub fn from_text(text: &str) -> Result<Self> {
        match view::pack_text(text) {
            // Every byte was an ASCII letter, so bytes and symbols coincide.
            Some(data) => Self::from_raw(text.len(), data),
            None => Err(text
                .chars()
                .find_map(|c| IupacDna::from_char(c).err())
                .expect("a byte outside the alphabet belongs to a char outside it")),
        }
    }

    /// Build from unambiguous bases.
    pub fn from_bases(bases: &[DnaBase]) -> Self {
        let mut codes = PackedVec::with_capacity(4, bases.len());
        for &b in bases {
            codes.push(IupacDna::from_base(b).mask());
        }
        DnaSeq { codes }
    }

    /// Build from IUPAC symbols.
    pub fn from_symbols(symbols: &[IupacDna]) -> Self {
        let mut codes = PackedVec::with_capacity(4, symbols.len());
        for &s in symbols {
            codes.push(s.mask());
        }
        DnaSeq { codes }
    }

    /// The sequence as a borrowed view of its packed bytes.
    pub fn view(&self) -> DnaView<'_> {
        DnaView::new(self.codes.len(), self.codes.raw_bytes())
            .expect("a packed vector holds exactly the bytes of its codes")
    }

    /// Number of nucleotides.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the sequence has no nucleotides.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Symbol at position `i` (0-based).
    pub fn get(&self, i: usize) -> Option<IupacDna> {
        self.codes.get(i).map(IupacDna::from_mask)
    }

    /// Append one symbol.
    pub fn push(&mut self, s: IupacDna) {
        self.codes.push(s.mask());
    }

    /// Overwrite the symbol at position `i`.
    pub fn set(&mut self, i: usize, s: IupacDna) -> Result<()> {
        self.codes.set(i, s.mask())
    }

    /// Iterate over symbols.
    pub fn iter(&self) -> impl Iterator<Item = IupacDna> + '_ {
        self.view().codes().map(IupacDna::from_mask)
    }

    /// Render as an upper-case IUPAC string.
    pub fn to_text(&self) -> String {
        self.view().to_text()
    }

    /// True if every symbol is one of the four concrete bases.
    pub fn is_strict(&self) -> bool {
        self.view().is_strict()
    }

    /// The concrete bases, if the sequence is strict.
    pub fn as_bases(&self) -> Option<Vec<DnaBase>> {
        self.iter().map(IupacDna::as_base).collect()
    }

    /// Extract the subsequence `[start, end)`.
    pub fn subseq(&self, start: usize, end: usize) -> Result<DnaSeq> {
        Ok(DnaSeq { codes: self.codes.slice(start, end)? })
    }

    /// Concatenate `other` onto a copy of `self`.
    pub fn concat(&self, other: &DnaSeq) -> DnaSeq {
        let mut out = self.clone();
        out.codes.extend_from(&other.codes);
        out
    }

    /// The sequence read back-to-front.
    pub fn reversed(&self) -> DnaSeq {
        self.view().reversed()
    }

    /// Per-symbol IUPAC complement.
    pub fn complement(&self) -> DnaSeq {
        self.view().complement()
    }

    /// Reverse complement — the opposite strand in 5'→3' orientation.
    pub fn reverse_complement(&self) -> DnaSeq {
        self.view().reverse_complement()
    }

    /// Fraction of G/C among unambiguous symbols (0.0 for the empty or fully
    /// ambiguous sequence).
    pub fn gc_content(&self) -> f64 {
        self.view().gc_content()
    }

    /// Count occurrences of each concrete base `[A, C, G, T]`; ambiguity
    /// codes are not counted.
    pub fn base_counts(&self) -> [usize; 4] {
        self.view().base_counts()
    }

    /// First occurrence of `pattern` at or after `from`, using IUPAC
    /// *compatibility* matching: an `N` in either sequence matches anything,
    /// `R` matches `A`/`G`, and so on. This is the semantics of the paper's
    /// `contains(fragment, "ATTGCCATA")` predicate (§6.3).
    pub fn find_from(&self, pattern: &DnaSeq, from: usize) -> Option<usize> {
        self.view().find_from(pattern.view(), from)
    }

    /// First occurrence of `pattern` (see [`DnaSeq::find_from`]).
    pub fn find(&self, pattern: &DnaSeq) -> Option<usize> {
        self.find_from(pattern, 0)
    }

    /// All (possibly overlapping) occurrence positions of `pattern`.
    pub fn find_all(&self, pattern: &DnaSeq) -> Vec<usize> {
        Pattern::new(pattern.view()).find_all(self.view())
    }

    /// True if `pattern` occurs somewhere in this sequence.
    pub fn contains(&self, pattern: &DnaSeq) -> bool {
        self.find(pattern).is_some()
    }

    /// Transcribe a *strict* sequence to RNA (T→U). Errors on ambiguity.
    pub fn to_rna(&self) -> Result<RnaSeq> {
        let bases = self.as_bases().ok_or_else(|| {
            GenAlgError::InvalidStructure(
                "cannot transcribe a sequence containing ambiguity codes".into(),
            )
        })?;
        Ok(RnaSeq::from_bases_iter(bases.into_iter().map(DnaBase::to_rna)))
    }

    /// Number of symbols that differ between two equal-length sequences.
    pub fn hamming_distance(&self, other: &DnaSeq) -> Result<usize> {
        if self.len() != other.len() {
            return Err(GenAlgError::LengthMismatch {
                expected: format!("{}", self.len()),
                actual: other.len(),
            });
        }
        Ok(self.iter().zip(other.iter()).filter(|(a, b)| a != b).count())
    }

    /// Raw packed payload (for compact serialization).
    pub(crate) fn raw(&self) -> (&[u8], usize) {
        (self.codes.raw_bytes(), self.codes.len())
    }

    /// Rebuild from a raw packed payload.
    pub(crate) fn from_raw(len: usize, data: Vec<u8>) -> Result<Self> {
        Ok(DnaSeq { codes: PackedVec::from_raw(4, len, data)? })
    }

    /// Heap bytes used by the packed payload.
    pub fn payload_bytes(&self) -> usize {
        self.codes.payload_bytes()
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = GenAlgError;

    fn from_str(s: &str) -> Result<Self> {
        DnaSeq::from_text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let s = DnaSeq::from_text("ACGTRYN").unwrap();
        assert_eq!(s.to_text(), "ACGTRYN");
        assert_eq!(s.len(), 7);
        assert!(!s.is_strict());
        assert!(DnaSeq::from_text("ACGU").is_err());
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(DnaSeq::from_text("acgt").unwrap().to_text(), "ACGT");
    }

    #[test]
    fn reverse_complement_known_value() {
        let s = DnaSeq::from_text("ATGC").unwrap();
        assert_eq!(s.reverse_complement().to_text(), "GCAT");
        assert_eq!(s.complement().to_text(), "TACG");
        assert_eq!(s.reversed().to_text(), "CGTA");
    }

    #[test]
    fn reverse_complement_involutive() {
        let s = DnaSeq::from_text("ATGCCGTANRYSWKM").unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn gc_content_counts_only_concrete() {
        let s = DnaSeq::from_text("GGCC").unwrap();
        assert!((s.gc_content() - 1.0).abs() < 1e-12);
        let s = DnaSeq::from_text("ATGCNN").unwrap();
        assert!((s.gc_content() - 0.5).abs() < 1e-12);
        assert_eq!(DnaSeq::empty().gc_content(), 0.0);
        assert_eq!(DnaSeq::from_text("NNN").unwrap().gc_content(), 0.0);
    }

    #[test]
    fn base_counts() {
        let s = DnaSeq::from_text("AACGTTTN").unwrap();
        assert_eq!(s.base_counts(), [2, 1, 1, 3]);
    }

    #[test]
    fn subseq_and_concat() {
        let s = DnaSeq::from_text("ATGCCGTA").unwrap();
        let sub = s.subseq(2, 5).unwrap();
        assert_eq!(sub.to_text(), "GCC");
        let joined = sub.concat(&DnaSeq::from_text("TT").unwrap());
        assert_eq!(joined.to_text(), "GCCTT");
        assert!(s.subseq(5, 2).is_err());
        assert!(s.subseq(0, 9).is_err());
    }

    #[test]
    fn find_exact() {
        let s = DnaSeq::from_text("ATTGCCATAGG").unwrap();
        let p = DnaSeq::from_text("GCCATA").unwrap();
        assert_eq!(s.find(&p), Some(3));
        assert!(s.contains(&p));
        assert_eq!(s.find(&DnaSeq::from_text("TTT").unwrap()), None);
    }

    #[test]
    fn find_respects_iupac_compatibility() {
        let s = DnaSeq::from_text("ATTGCCATA").unwrap();
        // R = A or G, so "RTT" matches "ATT" at 0.
        let p = DnaSeq::from_text("RTT").unwrap();
        assert_eq!(s.find(&p), Some(0));
        // N in the *text* matches any pattern symbol.
        let s2 = DnaSeq::from_text("ANC").unwrap();
        assert!(s2.contains(&DnaSeq::from_text("ATC").unwrap()));
    }

    #[test]
    fn find_all_overlapping() {
        let s = DnaSeq::from_text("AAAA").unwrap();
        let p = DnaSeq::from_text("AA").unwrap();
        assert_eq!(s.find_all(&p), vec![0, 1, 2]);
    }

    #[test]
    fn empty_pattern_matches_everywhere_once() {
        let s = DnaSeq::from_text("ACG").unwrap();
        assert_eq!(s.find(&DnaSeq::empty()), Some(0));
        assert_eq!(s.find_all(&DnaSeq::empty()), vec![0]);
    }

    #[test]
    fn to_rna_strict_only() {
        let s = DnaSeq::from_text("ATGC").unwrap();
        assert_eq!(s.to_rna().unwrap().to_text(), "AUGC");
        assert!(DnaSeq::from_text("ATGN").unwrap().to_rna().is_err());
    }

    #[test]
    fn hamming() {
        let a = DnaSeq::from_text("ATGC").unwrap();
        let b = DnaSeq::from_text("ATCC").unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), 1);
        assert!(a.hamming_distance(&DnaSeq::from_text("AT").unwrap()).is_err());
    }

    #[test]
    fn packing_is_half_byte_per_symbol() {
        let s = DnaSeq::from_text(&"A".repeat(1000)).unwrap();
        assert_eq!(s.payload_bytes(), 500);
    }
}
