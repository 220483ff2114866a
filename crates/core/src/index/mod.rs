//! Genomic index structures (§6.5).
//!
//! The paper calls for domain-specific indexing that supports "similarity
//! or substructure search on nucleotide sequences" and for a DBMS mechanism
//! to integrate such user-defined index structures. Two indexes live here:
//!
//! * [`KmerIndex`] — an inverted index from each k-mer to the ascending
//!   keys of the sequences it occurs in, over a *collection* of sequences.
//!   It answers "which sequences could contain this pattern" with no
//!   false negatives for strict patterns of length ≥ k, which is exactly
//!   the filter step the `contains`/`resembles` predicates need.
//! * [`SuffixArray`] — a suffix array over a single long sequence for exact
//!   substring location in `O(m log n)`.
//!
//! `unidb`'s user-defined-index mechanism (`unidb::index::udi`) plugs the
//! k-mer index into query plans; see `genalg-adapter`.

mod kmer;
mod suffix;

pub use kmer::KmerIndex;
pub use suffix::SuffixArray;
