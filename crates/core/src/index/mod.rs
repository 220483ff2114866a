//! Genomic index structures (§6.5).
//!
//! The paper calls for domain-specific indexing that supports "similarity
//! or substructure search on nucleotide sequences" and for a DBMS mechanism
//! to integrate such user-defined index structures. [`KmerIndex`] is an
//! inverted index from each k-mer to the ascending keys of the sequences it
//! occurs in, over a *collection* of sequences. It answers "which sequences
//! could contain this pattern" with no false negatives for strict patterns
//! of length ≥ k, which is exactly the filter step the `contains`/`resembles`
//! predicates need.
//!
//! `unidb`'s user-defined-index mechanism (`unidb::index::udi`) plugs the
//! k-mer index into query plans; see `genalg-adapter`.

mod kmer;

pub use kmer::KmerIndex;
