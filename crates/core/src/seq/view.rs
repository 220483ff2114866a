//! A borrowed DNA sequence and the kernels that run on it.
//!
//! §4.4 of the paper asks for pointer-free representations so that
//! operations can run on a value where it is stored. [`DnaView`] is that:
//! `(len, &[u8])` over the 4-bit IUPAC payload, whether the bytes belong to
//! a [`DnaSeq`] or to an opaque datum still sitting in a page image. Every
//! read-only sequence operator is implemented here, a byte (two symbols) or
//! a machine word at a time, and [`DnaSeq`] forwards to it — so an operator
//! called from SQL never copies or unpacks the payload.
//!
//! Encoding recap: symbol `i` is the low (`i` even) or high (`i` odd)
//! nibble of byte `i / 2`; a nibble is a set over {A=1, C=2, G=4, T=8}. A
//! zero nibble cannot be produced by parsing; like
//! [`IupacDna::from_mask`](crate::alphabet::IupacDna::from_mask), every
//! kernel reads it as `N`. The unused high nibble of an odd-length
//! sequence's last byte is never read.

use crate::error::{GenAlgError, Result};
use crate::seq::DnaSeq;

/// Upper-case IUPAC letter of each 4-bit code.
const LETTER: &[u8; 16] = b"NACMGRSVTWYHKDBN";

/// Marks a code that is not one concrete base in [`BASE2`].
const AMBIGUOUS: u8 = 0xFF;

/// 2-bit base code (A=0, C=1, G=2, T=3) of a 4-bit code, or [`AMBIGUOUS`].
const BASE2: [u8; 16] = {
    let mut t = [AMBIGUOUS; 16];
    t[1] = 0;
    t[2] = 1;
    t[4] = 2;
    t[8] = 3;
    t
};

/// The k-mer window [`DnaView::for_each_kmer`] slides over a sequence.
struct Window {
    k: usize,
    mask: u64,
    /// The last `k` bases read, 2 bits each, first base highest.
    packed: u64,
    /// Consecutive concrete bases ending at the last one read.
    valid: usize,
}

impl Window {
    /// Read one base code; the packed k-mer if `k` concrete bases end here.
    /// Always inlined: a caller's closure is folded into this step, and
    /// when the step was a closure left out of line, every base became a
    /// call with the window's state in memory (the bulk k-mer index build
    /// ran ~60 % slower).
    #[inline(always)]
    fn push(&mut self, code: u8) -> Option<u64> {
        let base = BASE2[code as usize];
        if base == AMBIGUOUS {
            self.valid = 0;
            return None;
        }
        self.packed = ((self.packed << 2) | u64::from(base)) & self.mask;
        self.valid += 1;
        (self.valid >= self.k).then_some(self.packed)
    }
}

/// A zero nibble reads as `N`.
const fn norm(code: u8) -> u8 {
    if code & 15 == 0 {
        15
    } else {
        code & 15
    }
}

/// IUPAC complement of a code: A↔T and C↔G swap, i.e. the four mask bits
/// reverse.
const fn complement_code(code: u8) -> u8 {
    let m = norm(code);
    ((m & 1) << 3) | ((m & 2) << 1) | ((m & 4) >> 1) | ((m & 8) >> 3)
}

const COMPLEMENT: [u8; 16] = {
    let mut t = [0u8; 16];
    let mut c = 0;
    while c < 16 {
        t[c] = complement_code(c as u8);
        c += 1;
    }
    t
};

const IDENTITY: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Per byte: how many of its two codes are A, C, G and T, in four 16-bit
/// lanes (A lowest).
const BASE_LANES: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let (lo, hi) = (BASE2[b & 15], BASE2[b >> 4]);
        if lo != AMBIGUOUS {
            t[b] += 1 << (16 * lo as u32);
        }
        if hi != AMBIGUOUS {
            t[b] += 1 << (16 * hi as u32);
        }
        b += 1;
    }
    t
};

/// Per byte: the letters of its low and high code.
const LETTERS: [[u8; 2]; 256] = {
    let mut t = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        t[b] = [LETTER[b & 15], LETTER[b >> 4]];
        b += 1;
    }
    t
};

/// 4-bit code of an ASCII letter in either case; 0 for every other byte.
const CODE_OF: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut c = 1;
    while c < 16 {
        t[LETTER[c] as usize] = c as u8;
        t[LETTER[c].to_ascii_lowercase() as usize] = c as u8;
        c += 1;
    }
    t
};

/// Pack IUPAC text into the 4-bit payload. `None` if any byte is not an
/// IUPAC letter (the caller re-reads the text by `char` for the error).
pub(crate) fn pack_text(text: &str) -> Option<Vec<u8>> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len().div_ceil(2));
    let mut pairs = bytes.chunks_exact(2);
    for pair in &mut pairs {
        let (lo, hi) = (CODE_OF[pair[0] as usize], CODE_OF[pair[1] as usize]);
        if lo == 0 || hi == 0 {
            return None;
        }
        out.push(lo | (hi << 4));
    }
    if let [last] = pairs.remainder() {
        let lo = CODE_OF[*last as usize];
        if lo == 0 {
            return None;
        }
        out.push(lo);
    }
    Some(out)
}

/// A DNA sequence borrowed from its packed bytes.
#[derive(Debug, Clone, Copy)]
pub struct DnaView<'a> {
    len: usize,
    /// Exactly `len.div_ceil(2)` bytes.
    bytes: &'a [u8],
}

impl<'a> From<&'a DnaSeq> for DnaView<'a> {
    fn from(seq: &'a DnaSeq) -> Self {
        seq.view()
    }
}

impl<'a> DnaView<'a> {
    /// View `len` symbols packed in `bytes`. The byte count must be exactly
    /// what `len` symbols need, so a payload that lies about its length is
    /// [`GenAlgError::Corrupt`] here and no kernel can read out of bounds.
    pub fn new(len: usize, bytes: &'a [u8]) -> Result<Self> {
        if bytes.len() != len.div_ceil(2) {
            return Err(GenAlgError::Corrupt(format!(
                "packed payload of {} bytes cannot hold {len} codes of 4 bits",
                bytes.len()
            )));
        }
        Ok(DnaView { len, bytes })
    }

    /// Number of nucleotides.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence has no nucleotides.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 4-bit code at `i`, which must be below `len`.
    #[inline]
    pub(crate) fn code(&self, i: usize) -> u8 {
        (self.bytes[i >> 1] >> ((i & 1) << 2)) & 15
    }

    /// The 4-bit codes in order.
    pub(crate) fn codes(&self) -> impl Iterator<Item = u8> + 'a {
        self.bytes.iter().flat_map(|&b| [b & 15, b >> 4]).take(self.len)
    }

    /// The full bytes (two symbols each) and, for an odd length, the last
    /// symbol's code.
    fn split(&self) -> (&'a [u8], Option<u8>) {
        let full = self.len / 2;
        (&self.bytes[..full], (self.len % 2 == 1).then(|| self.bytes[full] & 15))
    }

    /// An owned copy.
    pub fn to_seq(&self) -> DnaSeq {
        DnaSeq::from_raw(self.len, self.bytes.to_vec()).expect("a view holds exactly its bytes")
    }

    /// Render as an upper-case IUPAC string.
    pub fn to_text(&self) -> String {
        let (full, last) = self.split();
        let mut out = Vec::with_capacity(self.len);
        for &b in full {
            out.extend_from_slice(&LETTERS[b as usize]);
        }
        if let Some(code) = last {
            out.push(LETTER[code as usize]);
        }
        String::from_utf8(out).expect("IUPAC letters are ASCII")
    }

    /// Occurrences of each concrete base `[A, C, G, T]`; ambiguity codes are
    /// not counted.
    pub fn base_counts(&self) -> [usize; 4] {
        let (full, last) = self.split();
        let mut counts = [0usize; 4];
        // A lane gains at most 2 per byte, so 0x7FFF bytes cannot carry out.
        for chunk in full.chunks(0x7FFF) {
            let lanes: u64 = chunk.iter().map(|&b| BASE_LANES[b as usize]).sum();
            for (i, c) in counts.iter_mut().enumerate() {
                *c += ((lanes >> (16 * i)) & 0xFFFF) as usize;
            }
        }
        if let Some(code) = last {
            if BASE2[code as usize] != AMBIGUOUS {
                counts[BASE2[code as usize] as usize] += 1;
            }
        }
        counts
    }

    /// Fraction of G/C among unambiguous symbols (0.0 when there are none).
    pub fn gc_content(&self) -> f64 {
        let [a, c, g, t] = self.base_counts();
        let total = a + c + g + t;
        if total == 0 {
            0.0
        } else {
            (c + g) as f64 / total as f64
        }
    }

    /// True if every symbol is one of the four concrete bases.
    pub fn is_strict(&self) -> bool {
        let (full, last) = self.split();
        full.iter().all(|&b| BASE2[(b & 15) as usize] | BASE2[(b >> 4) as usize] != AMBIGUOUS)
            && last.is_none_or(|code| BASE2[code as usize] != AMBIGUOUS)
    }

    /// Map every code through `table`, keeping the order.
    fn mapped(&self, table: &[u8; 16]) -> DnaSeq {
        let (full, last) = self.split();
        let mut out: Vec<u8> = full
            .iter()
            .map(|&b| table[(b & 15) as usize] | (table[(b >> 4) as usize] << 4))
            .collect();
        if let Some(code) = last {
            out.push(table[code as usize]);
        }
        DnaSeq::from_raw(self.len, out).expect("one output byte per input byte")
    }

    /// Map every code through `table`, reversing the order.
    fn mapped_reversed(&self, table: &[u8; 16]) -> DnaSeq {
        let nbytes = self.bytes.len();
        let mut out = Vec::with_capacity(nbytes);
        if self.len.is_multiple_of(2) {
            // Whole bytes swap places and each swaps its nibbles.
            for &b in self.bytes.iter().rev() {
                out.push(table[(b >> 4) as usize] | (table[(b & 15) as usize] << 4));
            }
        } else {
            // The last symbol is a low nibble, so every output byte straddles
            // two input bytes: low from byte `p`, high from byte `p - 1`.
            for p in (0..nbytes).rev() {
                let lo = table[(self.bytes[p] & 15) as usize];
                let hi = if p > 0 { table[(self.bytes[p - 1] >> 4) as usize] } else { 0 };
                out.push(lo | (hi << 4));
            }
        }
        DnaSeq::from_raw(self.len, out).expect("one output byte per input byte")
    }

    /// The sequence read back-to-front.
    pub fn reversed(&self) -> DnaSeq {
        self.mapped_reversed(&IDENTITY)
    }

    /// Per-symbol IUPAC complement.
    pub fn complement(&self) -> DnaSeq {
        self.mapped(&COMPLEMENT)
    }

    /// Reverse complement — the opposite strand in 5'→3' orientation.
    pub fn reverse_complement(&self) -> DnaSeq {
        self.mapped_reversed(&COMPLEMENT)
    }

    /// Call `f(position, packed)` for every window of `k` concrete bases,
    /// packed 2 bits per base, first base highest. Windows touching an
    /// ambiguity code are skipped. `k` must be 1–31.
    pub fn for_each_kmer(&self, k: usize, mut f: impl FnMut(usize, u64)) {
        assert!((1..=31).contains(&k), "k must be in 1..=31");
        let mut window = Window { k, mask: (1u64 << (2 * k)) - 1, packed: 0, valid: 0 };
        let (full, last) = self.split();
        for (j, &b) in full.iter().enumerate() {
            if let Some(km) = window.push(b & 15) {
                f(2 * j + 1 - k, km);
            }
            if let Some(km) = window.push(b >> 4) {
                f(2 * j + 2 - k, km);
            }
        }
        if let Some(km) = last.and_then(|code| window.push(code)) {
            f(self.len - k, km);
        }
    }

    /// First occurrence of `pattern` at or after `from` under IUPAC
    /// compatibility matching (see [`Pattern`]).
    pub fn find_from(&self, pattern: DnaView<'_>, from: usize) -> Option<usize> {
        Pattern::new(pattern).find_from(*self, from)
    }
}

/// Symbols of the pattern's head, the part the shift-and state word
/// tracks. The word's top bit is left free for the byte step's carry.
const HEAD: usize = 63;

/// A search pattern compiled for shift-and (bitap) matching under IUPAC
/// *compatibility*: pattern symbol `p` matches text symbol `t` when their
/// base sets intersect (`p & t != 0`), so `N` on either side matches
/// anything. This is the semantics of the paper's
/// `contains(fragment, "ATTGCCATA")` (§6.3).
///
/// Bit `j` of the state says "the last `j + 1` text symbols match the
/// pattern's first `j + 1`"; one text symbol advances every prefix at once:
/// `state = ((state << 1) | 1) & masks[t]`. The alphabet has 16 codes, so
/// the symbol table is 16 words. A packed byte holds two symbols, and two
/// steps compose into one: `state = ((state << 2) | 3) & bytes[b]` with
/// `bytes[b] = ((masks[lo] << 1) | 1) & masks[hi]`. Every mask also
/// carries bit `head`, one past the accepting bit, so an occurrence that
/// ends on the low symbol survives the high one's step there. A hit is
/// then `state & (3 << (head - 1))`: bit `head` for the low symbol, bit
/// `head - 1` for the high. The 256-word byte table is built once per
/// pattern; after that each byte of text costs one load, one shift, one
/// OR and one AND. A text position that starts or ends in the middle of
/// a byte takes the one-symbol step.
///
/// A pattern longer than the 63-symbol head is searched by its head; each
/// hit is confirmed by comparing the remaining symbols in place. Which of
/// the two runs depends on the pattern's length only.
#[derive(Debug, Clone)]
pub struct Pattern {
    len: usize,
    /// For each text code, the head positions it is compatible with, plus
    /// the carry bit `head`.
    masks: [u64; 16],
    /// For each text byte, its two symbols' steps composed.
    bytes: [u64; 256],
    /// The bit of the last head position (0 for the empty pattern).
    accept: u64,
    /// Codes of the symbols past the head, one per byte.
    tail: Vec<u8>,
}

impl Pattern {
    /// Compile `pattern`.
    pub fn new(pattern: DnaView<'_>) -> Self {
        let head = pattern.len.min(HEAD);
        let accept = if head == 0 { 0 } else { 1 << (head - 1) };
        let mut masks = [accept << 1; 16];
        for (j, p) in pattern.codes().take(head).enumerate() {
            let p = norm(p);
            for (t, mask) in masks.iter_mut().enumerate().skip(1) {
                if t as u8 & p != 0 {
                    *mask |= 1 << j;
                }
            }
        }
        masks[0] = masks[15];
        let mut bytes = [0u64; 256];
        for (b, step) in bytes.iter_mut().enumerate() {
            *step = ((masks[b & 15] << 1) | 1) & masks[b >> 4];
        }
        Pattern {
            len: pattern.len,
            masks,
            bytes,
            accept,
            tail: pattern.codes().skip(HEAD).map(norm).collect(),
        }
    }

    /// Number of symbols in the pattern.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty pattern, which matches at every position.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feed `text[from..]` through the automaton, calling `on_match(start)`
    /// for every occurrence in increasing order until it returns `false`.
    /// The pattern must not be empty.
    fn scan(&self, text: DnaView<'_>, from: usize, mut on_match: impl FnMut(usize) -> bool) {
        let (n, m) = (text.len, self.len);
        if m > n || from > n - m {
            return;
        }
        // Only symbols the head of a fitting occurrence can end on are fed.
        let end = n - m + m.min(HEAD);
        let mut state = 0u64;
        if from % 2 == 1 {
            state = 1 & self.masks[(text.bytes[from / 2] >> 4) as usize];
            if state & self.accept != 0 && !self.confirm(text, from, &mut on_match) {
                return;
            }
        }
        // Whole bytes, both of whose symbols are fed.
        let first = from.div_ceil(2);
        let hits = self.accept | (self.accept << 1);
        for (j, &b) in text.bytes[first..end / 2].iter().enumerate() {
            state = ((state << 2) | 3) & self.bytes[b as usize];
            if state & hits != 0 {
                let low = 2 * (first + j);
                // The occurrence ending on the low symbol starts first.
                if state & (self.accept << 1) != 0 && !self.confirm(text, low, &mut on_match) {
                    return;
                }
                if state & self.accept != 0 && !self.confirm(text, low + 1, &mut on_match) {
                    return;
                }
            }
        }
        if end % 2 == 1 {
            state = ((state << 1) | 1) & self.masks[(text.bytes[end / 2] & 15) as usize];
            if state & self.accept != 0 {
                self.confirm(text, end - 1, &mut on_match);
            }
        }
    }

    /// The head matches with its last symbol on `last`: if the tail agrees
    /// too, report the occurrence. False once `on_match` says stop. Kept
    /// out of line so that the scan loop holds its state in registers.
    #[cold]
    #[inline(never)]
    fn confirm(
        &self,
        text: DnaView<'_>,
        last: usize,
        on_match: &mut impl FnMut(usize) -> bool,
    ) -> bool {
        let head = self.len.min(HEAD);
        let start = last + 1 - head;
        let tail_ok =
            self.tail.iter().enumerate().all(|(j, &p)| norm(text.code(start + head + j)) & p != 0);
        !tail_ok || on_match(start)
    }

    /// First occurrence in `text` at or after `from`. The empty pattern
    /// occurs at `from` itself as long as `from` is not past the end.
    pub fn find_from(&self, text: DnaView<'_>, from: usize) -> Option<usize> {
        if self.len == 0 {
            return (from <= text.len).then_some(from);
        }
        let mut found = None;
        self.scan(text, from, |start| {
            found = Some(start);
            false
        });
        found
    }

    /// True if the pattern occurs somewhere in `text`.
    pub fn is_in(&self, text: DnaView<'_>) -> bool {
        self.find_from(text, 0).is_some()
    }

    /// All (possibly overlapping) occurrence positions. The empty pattern
    /// is reported once, at 0.
    pub fn find_all(&self, text: DnaView<'_>) -> Vec<usize> {
        if self.len == 0 {
            return vec![0];
        }
        let mut out = Vec::new();
        self.scan(text, 0, |start| {
            out.push(start);
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::IupacDna;

    #[test]
    fn tables_agree_with_the_alphabet() {
        for code in 0u8..16 {
            let symbol = IupacDna::from_mask(code);
            assert_eq!(LETTER[code as usize] as char, symbol.to_char());
            assert_eq!(COMPLEMENT[code as usize], symbol.complement().mask());
            assert_eq!(
                BASE2[code as usize],
                symbol.as_base().map_or(AMBIGUOUS, |b| b.code()),
                "code {code}"
            );
        }
        for byte in 0u8..=255 {
            let expect = IupacDna::from_char(byte as char).map_or(0, IupacDna::mask);
            assert_eq!(CODE_OF[byte as usize], expect, "byte {byte}");
        }
    }

    #[test]
    fn a_view_must_hold_exactly_its_bytes() {
        assert!(DnaView::new(3, &[0x21, 0x04]).is_ok());
        assert!(matches!(DnaView::new(3, &[0x21]), Err(GenAlgError::Corrupt(_))));
        assert!(matches!(DnaView::new(3, &[0x21, 0x04, 0x00]), Err(GenAlgError::Corrupt(_))));
        assert!(matches!(DnaView::new(usize::MAX, &[]), Err(GenAlgError::Corrupt(_))));
    }

    #[test]
    fn zero_nibbles_and_padding_read_as_the_reference_does() {
        // "A?G" with a zero nibble in the middle and an `A` in the pad.
        let view = DnaView::new(3, &[0x01, 0x14]).unwrap();
        assert_eq!(view.to_text(), "ANG");
        assert_eq!(view.base_counts(), [1, 0, 1, 0]);
        assert!(!view.is_strict());
        assert_eq!(view.complement().to_text(), "TNC");
        assert_eq!(view.reverse_complement().to_text(), "CNT");
        let pattern = DnaSeq::from_text("ACG").unwrap();
        assert_eq!(view.find_from(pattern.view(), 0), Some(0));
        // The pad nibble is not a fourth symbol.
        assert_eq!(view.find_from(DnaSeq::from_text("GA").unwrap().view(), 0), None);
    }
}
