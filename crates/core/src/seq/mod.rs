//! Sequence genomic data types.
//!
//! Three typed sequences wrap the packed storage of [`packed::PackedVec`]:
//!
//! * [`DnaSeq`] — IUPAC nucleotide codes, 4 bits per symbol, so noisy
//!   repository data with ambiguity codes is representable losslessly.
//! * [`RnaSeq`] — unambiguous RNA bases, 2 bits per symbol.
//! * [`ProteinSeq`] — amino acids, one byte per residue.
//!
//! [`DnaView`] is a `DnaSeq` borrowed from its packed bytes — an opaque
//! payload in a page image as much as an owned sequence — and carries the
//! kernels the read-only DNA operations run on; [`Pattern`] is a search
//! pattern compiled for them.
//!
//! All three expose the sequence operations of the algebra: subsequence,
//! concatenation, reversal, complementation (nucleic acids), searching, and
//! composition statistics.

mod dna;
pub mod ops;
pub mod packed;
mod protein;
mod rna;
mod view;

pub use dna::DnaSeq;
pub use protein::ProteinSeq;
pub use rna::RnaSeq;
pub use view::{DnaView, Pattern};
