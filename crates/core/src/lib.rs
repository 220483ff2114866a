//! # Genomics Algebra kernel (`genalg-core`)
//!
//! This crate implements the *Genomics Algebra* proposed by Hammer and
//! Schneider (CIDR 2003): an extensible, many-sorted algebra of **genomic
//! data types** (GDTs) — nucleotides, DNA/RNA/protein sequences, genes,
//! primary transcripts, messenger RNAs, chromosomes, genomes — together with
//! a comprehensive collection of **genomic operations** (transcribe, splice,
//! translate, decode, complement, contains, resembles, …).
//!
//! The crate is deliberately self-contained ("kernel algebra" in the paper's
//! terminology): it has no database dependency and can be used as a plain
//! software library. The `genalg-adapter` crate plugs it into the Unifying
//! Database (`unidb`) as a collection of abstract data types.
//!
//! ## Layout
//!
//! * [`alphabet`] — bases, amino acids, IUPAC ambiguity codes.
//! * [`seq`] — packed sequence types ([`seq::DnaSeq`], [`seq::RnaSeq`], [`seq::ProteinSeq`]).
//! * [`codon`] — genetic code tables and codon-level translation.
//! * [`dogma`] — the central-dogma operations: transcribe, splice, translate.
//! * [`gdt`] — structured genomic data types (gene, transcript, chromosome, genome).
//! * [`uncertainty`] — first-class uncertainty ([`uncertainty::Uncertain`], [`uncertainty::Alternatives`]).
//! * [`algebra`] — the many-sorted signature, terms, and the extensible
//!   operation registry that evaluates them.
//! * [`align`] — global/local/seed-and-extend alignment and the
//!   `resembles` similarity predicate.
//! * [`index`] — the k-mer sequence index.
//! * [`compact`] — pointer-free, page-embeddable encodings of every GDT
//!   (the opaque-UDT payload format used inside the DBMS).
//!
//! ## Quick taste
//!
//! ```
//! use genalg_core::prelude::*;
//!
//! // The paper's running example: translate(splice(transcribe(g))).
//! let gene = Gene::builder("tp53")
//!     .sequence(DnaSeq::from_text("ATGGCCTTTAAGGTAACCGGGTTTCACTGA").unwrap())
//!     .exon(0, 12)
//!     .exon(21, 30)
//!     .build()
//!     .unwrap();
//! let pre = transcribe(&gene).unwrap();
//! let mrna = splice(&pre).unwrap();
//! let protein = translate(&mrna, &GeneticCode::standard()).unwrap();
//! assert_eq!(protein.sequence().to_text(), "MAFKFH");
//! ```

pub mod algebra;
pub mod align;
pub mod alphabet;
pub mod codon;
pub mod compact;
pub mod dogma;
pub mod error;
pub mod gdt;
pub mod index;
pub mod seq;
pub mod uncertainty;

pub use error::{GenAlgError, Result};

/// Convenient glob import of the most commonly used types.
pub mod prelude {
    pub use crate::algebra::{KernelAlgebra, Signature, SortId, Term, Value};
    pub use crate::align::{
        global_align, local_align, resembles, Aligned, NucleotideScore, Scoring,
    };
    pub use crate::alphabet::{AminoAcid, DnaBase, IupacDna, RnaBase, Strand};
    pub use crate::codon::GeneticCode;
    pub use crate::compact::Compact;
    pub use crate::dogma::{decode, express, reverse_transcribe, splice, transcribe, translate};
    pub use crate::error::{GenAlgError, Result};
    pub use crate::gdt::{
        Chromosome, Feature, FeatureKind, Gene, Genome, Interval, Location, Mrna,
        PrimaryTranscript, Protein,
    };
    pub use crate::index::KmerIndex;
    pub use crate::seq::{DnaSeq, ProteinSeq, RnaSeq};
    pub use crate::uncertainty::{Alternatives, Confidence, Uncertain};
}
