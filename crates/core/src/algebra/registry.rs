//! The executable algebra: operator implementations and term evaluation.

use crate::algebra::bound::{self, BindArg, BoundOp, KernelBinder};
use crate::algebra::signature::{OpSig, Signature};
use crate::algebra::sort::SortId;
use crate::algebra::term::Term;
use crate::algebra::value::Value;
use crate::align;
use crate::codon::GeneticCode;
use crate::dogma;
use crate::error::{GenAlgError, Result};
use crate::seq::ops as seqops;
use crate::seq::{DnaSeq, ProteinSeq};
use std::collections::HashMap;
use std::sync::Arc;

/// The Rust implementation bound to one operator signature.
pub type OpImpl = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Variable bindings supplied at evaluation time.
pub type Bindings = HashMap<String, Value>;

/// An executable many-sorted algebra: a [`Signature`] plus a function per
/// operator signature.
///
/// The paper stresses extensibility: "if required, the Genomics Algebra can
/// be extended by new sorts and operations" (§4.2). [`KernelAlgebra::register_sort`]
/// and [`KernelAlgebra::register_op`] do exactly that at runtime, and newly
/// registered operations compose freely with built-in ones in terms.
pub struct KernelAlgebra {
    signature: Signature,
    impls: HashMap<String, Vec<Overload>>,
}

/// One implemented overload of an operator name.
struct Overload {
    args: Vec<SortId>,
    body: OpImpl,
    /// Built-in overloads with a kernel that runs on borrowed payloads.
    kernel: Option<KernelBinder>,
}

impl KernelAlgebra {
    /// An algebra with the built-in sorts registered but no operations.
    pub fn empty() -> Self {
        let mut signature = Signature::new();
        for (sort, desc) in [
            (SortId::bool(), "truth value"),
            (SortId::int(), "integer"),
            (SortId::float(), "floating-point number"),
            (SortId::string(), "character string"),
            (SortId::dna(), "IUPAC DNA sequence"),
            (SortId::rna(), "RNA sequence"),
            (SortId::protein_seq(), "amino-acid sequence"),
            (SortId::gene(), "gene with exon structure"),
            (SortId::primary_transcript(), "pre-mRNA with exon structure"),
            (SortId::mrna(), "mature messenger RNA"),
            (SortId::protein(), "annotated protein"),
            (SortId::chromosome(), "chromosome with genes"),
            (SortId::genome(), "genome of an organism"),
            (SortId::list(), "list of values"),
            (SortId::uncertain(), "value with confidence and provenance"),
        ] {
            signature.add_sort(sort, desc);
        }
        KernelAlgebra { signature, impls: HashMap::new() }
    }

    /// The standard Genomics Algebra with the full built-in operation set.
    pub fn standard() -> Self {
        let mut alg = Self::empty();
        alg.install_standard_ops().expect("built-in operations are well-sorted");
        alg
    }

    /// The signature (for type checking and introspection).
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Register a new sort (C13: integrate self-generated data types).
    pub fn register_sort(&mut self, sort: SortId, description: &str) {
        self.signature.add_sort(sort, description);
    }

    /// Register a new operation with its implementation (C14: user-defined
    /// evaluation functions).
    pub fn register_op(
        &mut self,
        name: &str,
        args: Vec<SortId>,
        result: SortId,
        body: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Result<()> {
        self.signature.add_op(OpSig { name: name.to_string(), args: args.clone(), result })?;
        self.impls.entry(name.to_string()).or_default().push(Overload {
            args,
            body: Arc::new(body),
            kernel: None,
        });
        Ok(())
    }

    /// Give the built-in overload `name(args)` a kernel.
    fn with_kernel(&mut self, name: &str, args: &[SortId], kernel: KernelBinder) {
        let overload = self
            .impls
            .get_mut(name)
            .and_then(|os| os.iter_mut().find(|o| o.args == args))
            .expect("kernels are attached to operators registered just above");
        overload.kernel = Some(kernel);
    }

    /// The implemented overload of `op` taking exactly `sorts`, or the
    /// signature's resolution error.
    fn overload(&self, op: &str, sorts: &[SortId]) -> Result<&Overload> {
        if let Some(o) = self.impls.get(op).and_then(|os| os.iter().find(|o| o.args == sorts)) {
            return Ok(o);
        }
        // Resolve against the signature for a precise error message.
        self.signature.resolve(op, sorts)?;
        Err(GenAlgError::UnknownOperation(format!("{op} (declared but not implemented)")))
    }

    /// Evaluate a closed term.
    pub fn eval(&self, term: &Term) -> Result<Value> {
        self.eval_with(term, &Bindings::new())
    }

    /// Evaluate a term with variable bindings.
    pub fn eval_with(&self, term: &Term, bindings: &Bindings) -> Result<Value> {
        match term {
            Term::Const(v) => Ok(v.clone()),
            Term::Var(name, sort) => {
                let v =
                    bindings.get(name).ok_or_else(|| GenAlgError::UnboundVariable(name.clone()))?;
                if &v.sort() != sort {
                    return Err(GenAlgError::SortMismatch {
                        operation: format!("variable {name}"),
                        detail: format!("bound to {} but declared {}", v.sort(), sort),
                    });
                }
                Ok(v.clone())
            }
            Term::Apply(op, args) => {
                let values: Vec<Value> =
                    args.iter().map(|a| self.eval_with(a, bindings)).collect::<Result<_>>()?;
                self.apply(op, &values)
            }
        }
    }

    /// Apply an operator directly to values.
    pub fn apply(&self, op: &str, args: &[Value]) -> Result<Value> {
        let arg_sorts: Vec<SortId> = args.iter().map(Value::sort).collect();
        (self.overload(op, &arg_sorts)?.body)(args)
    }

    /// Resolve `op` once for many calls (the adapter's entry point).
    ///
    /// The overload is chosen by the arguments' sorts as they stand. If
    /// none accepts them, constant text arguments that parse as DNA are
    /// read as `dna` and the resolution retried, then the same with
    /// `protein_seq` — the coercion that lets a query say
    /// `contains(fragment, 'ATTGCCATA')`. When nothing resolves, the error
    /// is that of the arguments as they stand. Whether a varying text
    /// argument parses is a property of each call, so with one of those
    /// nothing is coerced.
    pub fn bind(&self, op: &str, args: &[BindArg<'_>]) -> Result<BoundOp> {
        let unresolved = match self.bind_exact(op, args, None) {
            Ok(bound) => return Ok(bound),
            Err(e @ (GenAlgError::SortMismatch { .. } | GenAlgError::UnknownOperation(_))) => e,
            Err(e) => return Err(e),
        };
        if args.iter().any(|a| matches!(a, BindArg::Var(s) if **s == SortId::string())) {
            return Err(unresolved);
        }
        let parsers: [fn(&str) -> Option<Value>; 2] = [
            |s| DnaSeq::from_text(s).ok().map(Value::Dna),
            |s| ProteinSeq::from_text(s).ok().map(Value::ProteinSeq),
        ];
        for parse in parsers {
            let parsed: Vec<Option<Value>> = args
                .iter()
                .map(|a| match a {
                    BindArg::Const(Value::Str(s)) => parse(s),
                    _ => None,
                })
                .collect();
            if parsed.iter().all(Option::is_none) {
                continue;
            }
            let promoted: Vec<BindArg<'_>> = args
                .iter()
                .zip(&parsed)
                .map(|(a, p)| p.as_ref().map_or(*a, BindArg::Const))
                .collect();
            if let Ok(bound) = self.bind_exact(op, &promoted, Some(&unresolved)) {
                return Ok(bound);
            }
        }
        Err(unresolved)
    }

    fn bind_exact(
        &self,
        op: &str,
        args: &[BindArg<'_>],
        unpromoted: Option<&GenAlgError>,
    ) -> Result<BoundOp> {
        let sorts: Vec<SortId> = args
            .iter()
            .map(|a| match a {
                BindArg::Const(v) => v.sort(),
                BindArg::Var(s) => (*s).clone(),
            })
            .collect();
        let overload = self.overload(op, &sorts)?;
        let call = overload
            .kernel
            .and_then(|bind| bind(args))
            .unwrap_or_else(|| bound::generic(Arc::clone(&overload.body), args));
        Ok(BoundOp::new(call, unpromoted.cloned()))
    }

    fn install_standard_ops(&mut self) -> Result<()> {
        use SortId as S;

        // --- Central dogma -------------------------------------------------
        self.register_op("transcribe", vec![S::gene()], S::primary_transcript(), |a| {
            Ok(Value::Transcript(Box::new(dogma::transcribe(need_gene(&a[0])?)?)))
        })?;
        self.register_op("splice", vec![S::primary_transcript()], S::mrna(), |a| {
            let t = a[0].as_transcript().ok_or_else(|| sort_err("splice"))?;
            Ok(Value::Mrna(Box::new(dogma::splice(t)?)))
        })?;
        self.register_op("translate", vec![S::mrna()], S::protein(), |a| {
            let m = a[0].as_mrna().ok_or_else(|| sort_err("translate"))?;
            let code = GeneticCode::by_id(m.code_table())
                .ok_or_else(|| GenAlgError::Other("unknown translation table".into()))?;
            Ok(Value::Protein(Box::new(dogma::translate(m, &code)?)))
        })?;
        self.register_op("express", vec![S::gene()], S::protein(), |a| {
            Ok(Value::Protein(Box::new(dogma::express(need_gene(&a[0])?)?)))
        })?;
        self.register_op("reverse_transcribe", vec![S::mrna()], S::dna(), |a| {
            let m = a[0].as_mrna().ok_or_else(|| sort_err("reverse_transcribe"))?;
            Ok(Value::Dna(dogma::reverse_transcribe(m)))
        })?;
        self.register_op("decode", vec![S::dna(), S::int()], S::protein_seq(), |a| {
            let d = need_dna(&a[0])?;
            let frame = need_int(&a[1])?;
            if !(0..=2).contains(&frame) {
                return Err(GenAlgError::OutOfBounds { index: frame.max(0) as usize, len: 3 });
            }
            Ok(Value::ProteinSeq(dogma::decode(d, frame as usize, &GeneticCode::standard())?))
        })?;

        // --- Sequence operations -------------------------------------------
        self.register_op("complement", vec![S::dna()], S::dna(), |a| {
            Ok(Value::Dna(need_dna(&a[0])?.complement()))
        })?;
        self.register_op("reverse_complement", vec![S::dna()], S::dna(), |a| {
            Ok(Value::Dna(need_dna(&a[0])?.reverse_complement()))
        })?;
        self.register_op("reverse", vec![S::dna()], S::dna(), |a| {
            Ok(Value::Dna(need_dna(&a[0])?.reversed()))
        })?;
        self.register_op("gc_content", vec![S::dna()], S::float(), |a| {
            Ok(Value::Float(need_dna(&a[0])?.gc_content()))
        })?;
        self.with_kernel("gc_content", &[S::dna()], bound::gc_content);
        self.register_op("length", vec![S::dna()], S::int(), |a| {
            Ok(Value::Int(need_dna(&a[0])?.len() as i64))
        })?;
        self.with_kernel("length", &[S::dna()], bound::dna_length);
        self.register_op("length", vec![S::rna()], S::int(), |a| {
            let r = a[0].as_rna().ok_or_else(|| sort_err("length"))?;
            Ok(Value::Int(r.len() as i64))
        })?;
        self.register_op("length", vec![S::protein_seq()], S::int(), |a| {
            Ok(Value::Int(need_protein_seq(&a[0])?.len() as i64))
        })?;
        self.register_op("length", vec![S::string()], S::int(), |a| {
            Ok(Value::Int(need_str(&a[0])?.chars().count() as i64))
        })?;
        self.register_op("subsequence", vec![S::dna(), S::int(), S::int()], S::dna(), |a| {
            let d = need_dna(&a[0])?;
            let (s, e) = (need_int(&a[1])?, need_int(&a[2])?);
            if s < 0 || e < 0 {
                return Err(GenAlgError::OutOfBounds { index: 0, len: d.len() });
            }
            Ok(Value::Dna(d.subseq(s as usize, e as usize)?))
        })?;
        self.register_op("concat", vec![S::dna(), S::dna()], S::dna(), |a| {
            Ok(Value::Dna(need_dna(&a[0])?.concat(need_dna(&a[1])?)))
        })?;
        self.register_op("concat", vec![S::string(), S::string()], S::string(), |a| {
            Ok(Value::Str(format!("{}{}", need_str(&a[0])?, need_str(&a[1])?)))
        })?;
        self.register_op("getchar", vec![S::string(), S::int()], S::string(), |a| {
            let s = need_str(&a[0])?;
            let i = need_int(&a[1])?;
            let c = s.chars().nth(i.max(0) as usize).ok_or(GenAlgError::OutOfBounds {
                index: i.max(0) as usize,
                len: s.chars().count(),
            })?;
            Ok(Value::Str(c.to_string()))
        })?;

        // --- Search and similarity ------------------------------------------
        self.register_op("contains", vec![S::dna(), S::dna()], S::bool(), |a| {
            Ok(Value::Bool(need_dna(&a[0])?.contains(need_dna(&a[1])?)))
        })?;
        self.with_kernel("contains", &[S::dna(), S::dna()], bound::contains);
        self.register_op("find", vec![S::dna(), S::dna()], S::int(), |a| {
            Ok(Value::Int(need_dna(&a[0])?.find(need_dna(&a[1])?).map_or(-1, |p| p as i64)))
        })?;
        self.with_kernel("find", &[S::dna(), S::dna()], bound::find);
        self.register_op(
            "resembles",
            vec![S::dna(), S::dna(), S::float(), S::float()],
            S::bool(),
            |a| {
                Ok(Value::Bool(align::resembles(
                    need_dna(&a[0])?,
                    need_dna(&a[1])?,
                    need_float(&a[2])?,
                    need_float(&a[3])?,
                )))
            },
        )?;
        self.with_kernel(
            "resembles",
            &[S::dna(), S::dna(), S::float(), S::float()],
            bound::resembles,
        );
        self.register_op("local_score", vec![S::dna(), S::dna()], S::int(), |a| {
            let aln = align::local_align_dna(
                need_dna(&a[0])?,
                need_dna(&a[1])?,
                &align::NucleotideScore::default(),
            );
            Ok(Value::Int(aln.score as i64))
        })?;
        self.register_op("identity", vec![S::dna(), S::dna()], S::float(), |a| {
            let aln = align::global_align_dna(
                need_dna(&a[0])?,
                need_dna(&a[1])?,
                &align::NucleotideScore::default(),
            );
            Ok(Value::Float(aln.identity()))
        })?;
        self.register_op("hamming", vec![S::dna(), S::dna()], S::int(), |a| {
            Ok(Value::Int(need_dna(&a[0])?.hamming_distance(need_dna(&a[1])?)? as i64))
        })?;

        // --- Analysis --------------------------------------------------------
        self.register_op("orf_count", vec![S::dna(), S::int()], S::int(), |a| {
            let min_len = need_int(&a[1])?.max(0) as usize;
            let orfs = seqops::find_orfs(need_dna(&a[0])?, &GeneticCode::standard(), min_len);
            Ok(Value::Int(orfs.len() as i64))
        })?;
        self.register_op("melting_temperature", vec![S::dna()], S::float(), |a| {
            Ok(Value::Float(seqops::melting_temperature(need_dna(&a[0])?)))
        })?;
        self.register_op("molecular_weight", vec![S::protein_seq()], S::float(), |a| {
            Ok(Value::Float(need_protein_seq(&a[0])?.molecular_weight()))
        })?;
        self.register_op("gravy", vec![S::protein_seq()], S::float(), |a| {
            Ok(Value::Float(need_protein_seq(&a[0])?.gravy()))
        })?;
        self.register_op("isoelectric_point", vec![S::protein_seq()], S::float(), |a| {
            Ok(Value::Float(need_protein_seq(&a[0])?.isoelectric_point()))
        })?;
        self.register_op("longest_orf", vec![S::dna()], S::int(), |a| {
            Ok(Value::Int(seqops::longest_orf(need_dna(&a[0])?, &GeneticCode::standard()) as i64))
        })?;

        // --- Accessors --------------------------------------------------------
        self.register_op("sequence_of", vec![S::gene()], S::dna(), |a| {
            Ok(Value::Dna(need_gene(&a[0])?.sequence().clone()))
        })?;
        self.register_op("gene_id", vec![S::gene()], S::string(), |a| {
            Ok(Value::Str(need_gene(&a[0])?.id().to_string()))
        })?;
        self.register_op("protein_sequence", vec![S::protein()], S::protein_seq(), |a| {
            let p = a[0].as_protein().ok_or_else(|| sort_err("protein_sequence"))?;
            Ok(Value::ProteinSeq(p.sequence().clone()))
        })?;
        self.register_op("mrna_sequence", vec![S::mrna()], S::rna(), |a| {
            let m = a[0].as_mrna().ok_or_else(|| sort_err("mrna_sequence"))?;
            Ok(Value::Rna(m.sequence().clone()))
        })?;
        self.register_op("parse_dna", vec![S::string()], S::dna(), |a| {
            Ok(Value::Dna(DnaSeq::from_text(need_str(&a[0])?)?))
        })?;
        self.register_op("parse_protein", vec![S::string()], S::protein_seq(), |a| {
            Ok(Value::ProteinSeq(ProteinSeq::from_text(need_str(&a[0])?)?))
        })?;
        Ok(())
    }
}

fn sort_err(op: &str) -> GenAlgError {
    GenAlgError::SortMismatch { operation: op.to_string(), detail: "unexpected value kind".into() }
}

fn need_dna(v: &Value) -> Result<&DnaSeq> {
    v.as_dna().ok_or_else(|| sort_err("dna argument"))
}

fn need_protein_seq(v: &Value) -> Result<&ProteinSeq> {
    v.as_protein_seq().ok_or_else(|| sort_err("protein_seq argument"))
}

fn need_gene(v: &Value) -> Result<&crate::gdt::Gene> {
    v.as_gene().ok_or_else(|| sort_err("gene argument"))
}

fn need_int(v: &Value) -> Result<i64> {
    v.as_int().ok_or_else(|| sort_err("int argument"))
}

fn need_float(v: &Value) -> Result<f64> {
    v.as_float().ok_or_else(|| sort_err("float argument"))
}

fn need_str(v: &Value) -> Result<&str> {
    v.as_str().ok_or_else(|| sort_err("string argument"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::CallArg;
    use crate::gdt::Gene;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_text(s).unwrap()
    }

    fn gene() -> Gene {
        Gene::builder("g1")
            .sequence(dna("ATGGCCTTTAAGGTAACCGGGTTTCACTGA"))
            .exon(0, 12)
            .exon(21, 30)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_flagship_term_evaluates() {
        let alg = KernelAlgebra::standard();
        let term = Term::apply(
            "translate",
            vec![Term::apply(
                "splice",
                vec![Term::apply(
                    "transcribe",
                    vec![Term::constant(Value::Gene(Box::new(gene())))],
                )],
            )],
        );
        assert_eq!(term.sort(alg.signature()).unwrap(), SortId::protein());
        let result = alg.eval(&term).unwrap();
        let protein = result.as_protein().unwrap();
        assert_eq!(protein.sequence().to_text(), "MAFKFH");
    }

    #[test]
    fn getchar_concat_paper_example() {
        let alg = KernelAlgebra::standard();
        let term = Term::apply(
            "getchar",
            vec![
                Term::apply("concat", vec![Term::str("Genomics"), Term::str("Algebra")]),
                Term::int(10),
            ],
        );
        // "GenomicsAlgebra"[10] == 'g'.
        assert_eq!(alg.eval(&term).unwrap(), Value::Str("g".into()));
    }

    #[test]
    fn variables_bind_at_eval_time() {
        let alg = KernelAlgebra::standard();
        let term = Term::apply("gc_content", vec![Term::var("s", SortId::dna())]);
        let mut b = Bindings::new();
        b.insert("s".into(), Value::Dna(dna("GGCC")));
        assert_eq!(alg.eval_with(&term, &b).unwrap(), Value::Float(1.0));
        // Unbound.
        assert!(matches!(alg.eval(&term), Err(GenAlgError::UnboundVariable(_))));
        // Wrongly sorted binding.
        let mut wrong = Bindings::new();
        wrong.insert("s".into(), Value::Int(1));
        assert!(alg.eval_with(&term, &wrong).is_err());
    }

    #[test]
    fn overloaded_length() {
        let alg = KernelAlgebra::standard();
        assert_eq!(alg.apply("length", &[Value::Dna(dna("ATGC"))]).unwrap(), Value::Int(4));
        assert_eq!(alg.apply("length", &[Value::Str("hello".into())]).unwrap(), Value::Int(5));
        assert!(alg.apply("length", &[Value::Bool(true)]).is_err());
    }

    #[test]
    fn contains_and_find() {
        let alg = KernelAlgebra::standard();
        let frag = Value::Dna(dna("ATTGCCATAGG"));
        let pat = Value::Dna(dna("GCCATA"));
        assert_eq!(alg.apply("contains", &[frag.clone(), pat.clone()]).unwrap(), Value::Bool(true));
        assert_eq!(alg.apply("find", &[frag.clone(), pat]).unwrap(), Value::Int(3));
        assert_eq!(alg.apply("find", &[frag, Value::Dna(dna("TTTT"))]).unwrap(), Value::Int(-1));
    }

    #[test]
    fn extensibility_new_sort_and_op() {
        // Register a new sort plus an operation combining it with a
        // built-in sort — the paper's C13/C14 requirement.
        use crate::algebra::value::CustomValue;
        use std::any::Any;

        #[derive(Debug, PartialEq)]
        struct Motif(DnaSeq);
        impl CustomValue for Motif {
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn eq_dyn(&self, other: &dyn CustomValue) -> bool {
                other.as_any().downcast_ref::<Motif>() == Some(self)
            }
            fn render(&self) -> String {
                self.0.to_text()
            }
        }

        let mut alg = KernelAlgebra::standard();
        let motif_sort = SortId::new("motif");
        alg.register_sort(motif_sort.clone(), "a short regulatory motif");
        let ms = motif_sort.clone();
        alg.register_op(
            "motif_hits",
            vec![SortId::dna(), motif_sort.clone()],
            SortId::int(),
            move |args| {
                let seq = args[0].as_dna().expect("checked by signature");
                let motif = args[1].as_custom::<Motif>().expect("checked by signature");
                let _ = &ms;
                Ok(Value::Int(seq.find_all(&motif.0).len() as i64))
            },
        )
        .unwrap();

        let term = Term::apply(
            "motif_hits",
            vec![
                Term::constant(Value::Dna(dna("TATATATA"))),
                Term::constant(Value::Custom(motif_sort, Arc::new(Motif(dna("TATA"))))),
            ],
        );
        assert_eq!(alg.eval(&term).unwrap(), Value::Int(3));
    }

    #[test]
    fn standard_algebra_is_rich() {
        let alg = KernelAlgebra::standard();
        assert!(alg.signature().op_count() >= 25, "got {}", alg.signature().op_count());
        assert!(alg.signature().sorts().len() >= 15);
    }

    #[test]
    fn resembles_through_algebra() {
        let alg = KernelAlgebra::standard();
        let a = Value::Dna(dna("ATGGCCTTTAAGGGGCCCAAATTTGGGCCCATAT"));
        let res =
            alg.apply("resembles", &[a.clone(), a, Value::Float(0.9), Value::Float(0.9)]).unwrap();
        assert_eq!(res, Value::Bool(true));
    }

    #[test]
    fn decode_frames_checked() {
        let alg = KernelAlgebra::standard();
        let d = Value::Dna(dna("ATGGCC"));
        assert_eq!(
            alg.apply("decode", &[d.clone(), Value::Int(0)]).unwrap(),
            Value::ProteinSeq(ProteinSeq::from_text("MA").unwrap())
        );
        assert!(alg.apply("decode", &[d, Value::Int(7)]).is_err());
    }

    /// Every way of calling an operator agrees: `apply`, a binding with
    /// everything constant, and a binding called with the varying argument
    /// decoded or still in its compact payload.
    #[test]
    fn bound_calls_agree_with_apply() {
        use crate::compact::value_to_bytes;
        let alg = KernelAlgebra::standard();
        let frag = Value::Dna(dna("ATTGCCATAGGNNACGT"));
        let payload = value_to_bytes(&frag).unwrap();
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("contains", vec![Value::Dna(dna("GCCATA"))]),
            ("contains", vec![Value::Dna(dna("TTTT"))]),
            ("find", vec![Value::Dna(dna("CCAT"))]),
            ("find", vec![Value::Dna(dna("TTTT"))]),
            ("gc_content", vec![]),
            ("length", vec![]),
            (
                "resembles",
                vec![Value::Dna(dna("ATTGCCATAGGAAACGT")), Value::Float(0.8), Value::Float(0.8)],
            ),
            (
                "resembles",
                vec![Value::Dna(dna("ATTGCCATAGGAAACGT")), Value::Float(0.99), Value::Float(0.99)],
            ),
            // No kernel: the registered implementation, resolved once.
            ("complement", vec![]),
            ("subsequence", vec![Value::Int(2), Value::Int(9)]),
        ];
        for (op, rest) in cases {
            let mut all = vec![frag.clone()];
            all.extend(rest.iter().cloned());
            let want = alg.apply(op, &all).unwrap();

            let consts: Vec<BindArg<'_>> = all.iter().map(BindArg::Const).collect();
            assert_eq!(alg.bind(op, &consts).unwrap().call(&[]).unwrap(), want, "{op} const");

            let sort = SortId::dna();
            let mut args = vec![BindArg::Var(&sort)];
            args.extend(rest.iter().map(BindArg::Const));
            let bound = alg.bind(op, &args).unwrap();
            assert_eq!(bound.call(&[CallArg::Value(&frag)]).unwrap(), want, "{op} value");
            assert_eq!(bound.call(&[CallArg::Compact(&payload)]).unwrap(), want, "{op} compact");
        }
    }

    #[test]
    fn bind_reads_constant_text_as_a_sequence_when_nothing_else_resolves() {
        let alg = KernelAlgebra::standard();
        let sort = SortId::dna();
        let frag = Value::Dna(dna("ATTGCCATAGG"));
        // Text → dna.
        let pattern = Value::Str("gccata".into());
        let bound = alg.bind("contains", &[BindArg::Var(&sort), BindArg::Const(&pattern)]).unwrap();
        assert_eq!(bound.call(&[CallArg::Value(&frag)]).unwrap(), Value::Bool(true));
        // Text → protein_seq, for an operator with no dna overload.
        let residues = Value::Str("MAFK".into());
        let weight = alg.bind("molecular_weight", &[BindArg::Const(&residues)]).unwrap();
        assert_eq!(
            weight.call(&[]).unwrap(),
            alg.apply(
                "molecular_weight",
                &[Value::ProteinSeq(ProteinSeq::from_text("MAFK").unwrap())]
            )
            .unwrap()
        );
        // As it stands first: `length` of a string is its character count.
        let text = Value::Str("ACGT!".into());
        assert_eq!(
            alg.bind("length", &[BindArg::Const(&text)]).unwrap().call(&[]).unwrap(),
            Value::Int(5)
        );
        // Text that is no sequence, and a varying text argument, stay text.
        let junk = Value::Str("not dna".into());
        let direct = alg.apply("contains", &[frag.clone(), junk.clone()]).unwrap_err();
        let err = alg
            .bind("contains", &[BindArg::Var(&sort), BindArg::Const(&junk)])
            .err()
            .expect("nothing resolves");
        assert_eq!(err, direct);
        let string = SortId::string();
        assert!(alg.bind("contains", &[BindArg::Var(&sort), BindArg::Var(&string)]).is_err());
    }

    #[test]
    fn a_failed_coercion_reports_the_arguments_as_they_stand() {
        let alg = KernelAlgebra::standard();
        let args = [Value::Str("ACGT".into()), Value::Int(0), Value::Int(99)];
        let consts: Vec<BindArg<'_>> = args.iter().map(BindArg::Const).collect();
        let bound = alg.bind("subsequence", &consts).unwrap();
        assert_eq!(bound.call(&[]).unwrap_err(), alg.apply("subsequence", &args).unwrap_err());
    }

    #[test]
    fn a_bound_call_checks_what_it_is_handed() {
        use crate::compact::value_to_bytes;
        let alg = KernelAlgebra::standard();
        let sort = SortId::dna();
        let protein =
            value_to_bytes(&Value::ProteinSeq(ProteinSeq::from_text("MAFK").unwrap())).unwrap();
        let dna_payload = value_to_bytes(&Value::Dna(dna("ACGTACGT"))).unwrap();
        for op in ["gc_content", "complement"] {
            let bound = alg.bind(op, &[BindArg::Var(&sort)]).unwrap();
            // Another sort's payload, a truncated one, none at all.
            assert!(bound.call(&[CallArg::Compact(&protein)]).is_err(), "{op}");
            assert!(bound.call(&[CallArg::Compact(&dna_payload[..3])]).is_err(), "{op}");
            assert!(bound.call(&[CallArg::Value(&Value::Int(1))]).is_err(), "{op}");
            assert!(bound.call(&[]).is_err(), "{op}");
        }
    }
}
