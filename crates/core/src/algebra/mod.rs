//! The many-sorted Genomics Algebra (§4.2).
//!
//! A *signature* is a set of **sorts** (type names) and **operators**
//! annotated with argument and result sorts, e.g.
//!
//! ```text
//! sorts gene, primaryTranscript, mRNA, protein
//! ops   transcribe: gene → primaryTranscript
//!       splice:     primaryTranscript → mRNA
//!       translate:  mRNA → protein
//! ```
//!
//! A *many-sorted algebra* assigns a carrier set to each sort and a
//! function to each operator. Here:
//!
//! * [`SortId`] names a sort; [`Signature`] holds sorts and operator
//!   signatures and resolves overloads.
//! * [`Value`] is the union of all carrier sets — every genomic data type
//!   plus the base types, lists, uncertain values, and *custom* values so
//!   the algebra stays extensible at runtime.
//! * [`Term`] is the free term algebra over a signature
//!   (`translate(splice(transcribe(g)))` is a term).
//! * [`KernelAlgebra`] binds Rust functions to operators and evaluates
//!   terms. [`KernelAlgebra::standard`] ships the full built-in operation
//!   set; `register_sort`/`register_op` extend it (requirement C13/C14).
//! * [`KernelAlgebra::bind`] resolves an operator once for a whole query;
//!   the [`BoundOp`] runs the built-in kernels on stored payloads in place.

mod bound;
mod registry;
mod signature;
mod sort;
mod term;
mod value;

pub use bound::{BindArg, BoundOp, CallArg};
pub use registry::{Bindings, KernelAlgebra, OpImpl};
pub use signature::{OpSig, Signature};
pub use sort::SortId;
pub use term::Term;
pub use value::{CustomValue, Value};
