//! # genalg-adapter — the DBMS-specific adapter (Figure 3)
//!
//! "The adapter provides a DBMS-specific coupling mechanism between the
//! ADTs together with their operations in the Genomics Algebra and the DBMS
//! managing the Unifying Database" (§6.2). Concretely, [`Adapter::install`]:
//!
//! 1. registers every genomic data type as an **opaque UDT** in `unidb`
//!    (the engine stores the compact §4.4 encoding and never looks inside),
//!    together with display hooks so query results render biologically;
//! 2. registers every Genomics Algebra operation as an **external
//!    function**, making `SELECT id FROM DNAFragments WHERE
//!    contains(fragment, 'ATTGCCATA')` (§6.3) work verbatim — text
//!    arguments are coerced to sequences where the algebra expects them.
//!    Each function comes with a binder: the engine hands over a call
//!    site's literal arguments when it compiles the statement, the
//!    operator is resolved and the literals prepared once, and each row
//!    then reaches the algebra as the stored payload it is;
//! 3. offers [`Adapter::attach_kmer_index`] to plug the k-mer index in as a
//!    **user-defined access method** (§6.5) so `contains` predicates become
//!    index probes instead of full scans.
//!
//! The adapter is the *only* component that knows both worlds; neither
//! `genalg-core` nor `unidb` references the other.

use genalg_core::algebra::{BindArg, BoundOp, CallArg, KernelAlgebra, SortId, Value};
use genalg_core::compact::{value_from_bytes, value_to_bytes};
use genalg_core::error::GenAlgError;
use genalg_core::index::KmerIndex;
use genalg_core::seq::DnaSeq;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};
use unidb::storage::heap::Rid;
use unidb::{
    AccessMethod, BoundScalarFn, DataType, Database, Datum, DbError, DbResult, ScalarBinder,
};

/// Opaque type ids assigned by the engine, keyed by sort.
#[derive(Debug, Clone, Default)]
pub struct TypeIds {
    by_sort: HashMap<SortId, u32>,
    by_id: HashMap<u32, SortId>,
}

impl TypeIds {
    /// Type id for a sort.
    pub fn id(&self, sort: &SortId) -> Option<u32> {
        self.by_sort.get(sort).copied()
    }

    /// Sort for a type id.
    pub fn sort(&self, id: u32) -> Option<&SortId> {
        self.by_id.get(&id)
    }

    /// Type id of the `dna` sort (the most common column type).
    pub fn dna(&self) -> u32 {
        self.id(&SortId::dna()).expect("dna is always registered")
    }
}

/// The installed adapter: algebra handle plus the type-id mapping.
#[derive(Clone)]
pub struct Adapter {
    algebra: Arc<KernelAlgebra>,
    types: TypeIds,
}

/// The operations exposed to SQL, with the name they get in the query
/// language (avoiding collisions with SQL built-ins like `length`).
const SQL_OPS: &[(&str, &str)] = &[
    ("transcribe", "transcribe"),
    ("splice", "splice"),
    ("translate", "translate"),
    ("express", "express"),
    ("reverse_transcribe", "reverse_transcribe"),
    ("decode", "decode"),
    ("complement", "complement"),
    ("reverse_complement", "reverse_complement"),
    ("gc_content", "gc_content"),
    ("length", "seq_length"),
    ("subsequence", "subsequence"),
    ("contains", "contains"),
    ("find", "find_pattern"),
    ("resembles", "resembles"),
    ("local_score", "local_score"),
    ("identity", "seq_identity"),
    ("hamming", "hamming"),
    ("orf_count", "orf_count"),
    ("melting_temperature", "melting_temperature"),
    ("molecular_weight", "molecular_weight"),
    ("gravy", "gravy"),
    ("isoelectric_point", "isoelectric_point"),
    ("longest_orf", "longest_orf"),
    ("sequence_of", "sequence_of"),
    ("gene_id", "gene_id"),
    ("protein_sequence", "protein_sequence"),
    ("mrna_sequence", "mrna_sequence"),
    ("parse_dna", "dna"),
    ("parse_protein", "protein_seq"),
];

impl Adapter {
    /// Register the standard Genomics Algebra with a database.
    pub fn install(db: &Database) -> DbResult<Adapter> {
        Self::install_algebra(db, Arc::new(KernelAlgebra::standard()))
    }

    /// Register a (possibly extended) algebra with a database.
    pub fn install_algebra(db: &Database, algebra: Arc<KernelAlgebra>) -> DbResult<Adapter> {
        let mut types = TypeIds::default();
        for sort in [
            SortId::dna(),
            SortId::rna(),
            SortId::protein_seq(),
            SortId::gene(),
            SortId::primary_transcript(),
            SortId::mrna(),
            SortId::protein(),
            SortId::chromosome(),
            SortId::genome(),
        ] {
            let display = display_hook();
            let id = db.register_opaque_type(sort.name(), Some(display))?;
            types.by_sort.insert(sort.clone(), id);
            types.by_id.insert(id, sort);
        }

        let adapter = Adapter { algebra, types };
        for &(op, sql_name) in SQL_OPS {
            let glue = adapter.clone();
            db.register_scalar_with_binder(
                sql_name,
                Arc::new(move |args: &[Datum]| glue.call(op, args)),
                adapter.binder(op),
            )?;
        }
        // A user-defined aggregate (requirement C14): the longest sequence
        // of a group.
        {
            let glue = adapter.clone();
            db.register_aggregate(
                "longest_seq",
                Arc::new(move || Box::new(LongestSeq { adapter: glue.clone(), best: None })),
            )?;
        }
        Ok(adapter)
    }

    /// The algebra behind this adapter.
    pub fn algebra(&self) -> &KernelAlgebra {
        &self.algebra
    }

    /// The opaque type-id mapping.
    pub fn types(&self) -> &TypeIds {
        &self.types
    }

    /// Convert an algebra value into a datum (GDTs become opaque payloads).
    pub fn to_datum(&self, v: &Value) -> DbResult<Datum> {
        Ok(match v {
            Value::Bool(b) => Datum::Bool(*b),
            Value::Int(i) => Datum::Int(*i),
            Value::Float(f) => Datum::Float(*f),
            Value::Str(s) => Datum::Text(s.clone()),
            gdt => {
                let sort = gdt.sort();
                let id = self.types.id(&sort).ok_or_else(|| {
                    DbError::External(format!("sort {sort} has no registered opaque type"))
                })?;
                let bytes = value_to_bytes(gdt).map_err(external)?;
                Datum::opaque(id, bytes)
            }
        })
    }

    /// Convert a datum into an algebra value.
    pub fn to_value(&self, d: &Datum) -> DbResult<Value> {
        Ok(match d {
            Datum::Bool(b) => Value::Bool(*b),
            Datum::Int(i) => Value::Int(*i),
            Datum::Float(f) => Value::Float(*f),
            Datum::Text(s) => Value::Str(s.clone()),
            Datum::Opaque(id, bytes) => {
                let value = value_from_bytes(bytes).map_err(external)?;
                match self.types.sort(*id) {
                    Some(sort) if *sort == value.sort() => value,
                    Some(sort) => {
                        return Err(DbError::External(format!(
                            "opaque payload decodes to sort {} but column type is {sort}",
                            value.sort()
                        )))
                    }
                    None => return Err(DbError::External(format!("unknown opaque type id {id}"))),
                }
            }
            Datum::Null => return Err(DbError::External("NULL reached the algebra bridge".into())),
            Datum::Blob(_) => {
                return Err(DbError::External("BLOB values have no algebra sort".into()))
            }
        })
    }

    /// Bridge one SQL call into the algebra with nothing known in advance:
    /// every argument is a constant of a binding that is used once. This is
    /// what a call site without a binding costs per row, and what a bound
    /// call site falls back to for a row its binding cannot serve.
    fn call(&self, op: &str, args: &[Datum]) -> DbResult<Datum> {
        if args.iter().any(Datum::is_null) {
            return Ok(Datum::Null);
        }
        let values: Vec<Value> = args.iter().map(|d| self.to_value(d)).collect::<DbResult<_>>()?;
        let consts: Vec<BindArg<'_>> = values.iter().map(BindArg::Const).collect();
        let bound = self.algebra.bind(op, &consts).map_err(external)?;
        self.to_datum(&bound.call(&[]).map_err(external)?)
    }

    /// The [`ScalarBinder`] of `op`: specialise a call site on its literal
    /// arguments.
    fn binder(&self, op: &'static str) -> ScalarBinder {
        let glue = self.clone();
        Arc::new(move |literals: &[Option<&Datum>]| -> Option<BoundScalarFn> {
            if literals.iter().flatten().any(|d| d.is_null()) {
                // NULL in, NULL out, whatever the other arguments are.
                return Some(Arc::new(|_: &[&Datum]| Ok(Datum::Null)));
            }
            let site = CallSite {
                adapter: glue.clone(),
                op,
                literals: literals.iter().map(|l| l.cloned()).collect(),
                plan: OnceLock::new(),
            };
            Some(Arc::new(move |vars: &[&Datum]| site.call(vars)))
        })
    }

    /// Attach a k-mer access method to `table.column` (a `dna` column), so
    /// `contains(column, pattern)` predicates probe the index.
    pub fn attach_kmer_index(
        &self,
        db: &Database,
        table: &str,
        column: &str,
        k: usize,
    ) -> DbResult<()> {
        let method = KmerAccessMethod {
            adapter: self.clone(),
            index: KmerIndex::new(k),
            all: BTreeSet::new(),
        };
        db.register_access_method(table, column, Box::new(method))
    }
}

fn external(e: GenAlgError) -> DbError {
    DbError::External(e.to_string())
}

/// One call site of an algebra operator in a compiled statement: the
/// literal arguments are known, the others arrive per row.
struct CallSite {
    adapter: Adapter,
    op: &'static str,
    /// The argument list with the varying positions left open.
    literals: Vec<Option<Datum>>,
    /// The operator bound for the varying arguments' types as the first
    /// row showed them (`None`: they do not bind). Columns are typed, so
    /// in practice every row shows the same.
    plan: OnceLock<Option<Plan>>,
}

struct Plan {
    var_types: Vec<DataType>,
    bound: BoundOp,
}

impl CallSite {
    fn call(&self, vars: &[&Datum]) -> DbResult<Datum> {
        if vars.iter().any(|d| d.is_null()) {
            return Ok(Datum::Null);
        }
        if let Some(plan) = self.plan.get_or_init(|| self.plan(vars)) {
            let same_types = plan.var_types.len() == vars.len()
                && plan.var_types.iter().zip(vars).all(|(t, d)| d.data_type() == Some(*t));
            if same_types {
                if let Some(value) = self.call_bound(&plan.bound, vars) {
                    return self.adapter.to_datum(&value);
                }
            }
        }
        // Not bound, or not this row: the plain call decides the outcome
        // and words the error.
        let mut vars = vars.iter();
        let args: Vec<Datum> = self
            .literals
            .iter()
            .map(|l| l.clone().or_else(|| vars.next().map(|d| (*d).clone())))
            .collect::<Option<_>>()
            .ok_or_else(|| DbError::Internal(format!("{}: argument count changed", self.op)))?;
        self.adapter.call(self.op, &args)
    }

    /// Bind the operator for the literals and for varying arguments of the
    /// sorts this first row shows. Anything that stands in the way — a
    /// value with no algebra sort, sorts that do not resolve — means no
    /// plan, and every row takes the plain call.
    fn plan(&self, vars: &[&Datum]) -> Option<Plan> {
        let var_types = vars.iter().map(|d| d.data_type()).collect::<Option<_>>()?;
        let to_value = |d: &Datum| self.adapter.to_value(d).ok();
        let consts: Vec<Option<Value>> = self
            .literals
            .iter()
            .map(|l| match l {
                Some(d) => to_value(d).map(Some),
                None => Some(None),
            })
            .collect::<Option<_>>()?;
        let var_sorts: Vec<SortId> =
            vars.iter().map(|d| Some(to_value(d)?.sort())).collect::<Option<_>>()?;
        let mut var_sorts = var_sorts.iter();
        let args: Vec<BindArg<'_>> = consts
            .iter()
            .map(|c| match c {
                Some(v) => Some(BindArg::Const(v)),
                None => var_sorts.next().map(BindArg::Var),
            })
            .collect::<Option<_>>()?;
        let bound = self.adapter.algebra.bind(self.op, &args).ok()?;
        Some(Plan { var_types, bound })
    }

    /// The bound call, or `None` for anything but a value.
    fn call_bound(&self, bound: &BoundOp, vars: &[&Datum]) -> Option<Value> {
        // One stored payload is the whole argument list of most calls in a
        // scan; it goes to the kernel as it lies in the row.
        if let [Datum::Opaque(_, bytes)] = vars {
            return bound.call(&[CallArg::Compact(bytes)]).ok();
        }
        // Payloads stay where they are; scalars become values.
        let scalars: Vec<Option<Value>> = vars
            .iter()
            .map(|d| match d {
                Datum::Opaque(..) => Some(None),
                scalar => self.adapter.to_value(scalar).ok().map(Some),
            })
            .collect::<Option<_>>()?;
        let args: Vec<CallArg<'_>> = vars
            .iter()
            .zip(&scalars)
            .map(|(d, scalar)| match (d, scalar) {
                (_, Some(v)) => Some(CallArg::Value(v)),
                (Datum::Opaque(_, bytes), None) => Some(CallArg::Compact(bytes)),
                _ => None,
            })
            .collect::<Option<_>>()?;
        bound.call(&args).ok()
    }
}

/// Display hook for opaque payloads: decode and render, truncating long
/// sequences for terminal output.
fn display_hook() -> unidb::catalog::DisplayHook {
    Arc::new(|bytes: &[u8]| match value_from_bytes(bytes) {
        Ok(v) => {
            let text = v.render();
            if text.len() > 60 {
                format!("{}…({} chars)", &text[..60], text.len())
            } else {
                text
            }
        }
        Err(_) => format!("<corrupt payload, {} bytes>", bytes.len()),
    })
}

// ---------------------------------------------------------------------------
// k-mer user-defined access method
// ---------------------------------------------------------------------------

fn rid_key(rid: Rid) -> u64 {
    (u64::from(rid.page) << 16) | u64::from(rid.slot)
}

fn key_rid(key: u64) -> Rid {
    Rid { page: (key >> 16) as u32, slot: (key & 0xFFFF) as u16 }
}

/// The genomic index of §6.5, wrapped as a `unidb` access method. Answers
/// `contains(column, pattern)` with a candidate superset (no false
/// negatives); the executor re-checks every candidate.
struct KmerAccessMethod {
    adapter: Adapter,
    index: KmerIndex,
    /// Every indexed rid, for unfilterable patterns.
    all: BTreeSet<Rid>,
}

impl KmerAccessMethod {
    fn decode(&self, value: &Datum) -> Option<DnaSeq> {
        match self.adapter.to_value(value).ok()? {
            Value::Dna(d) => Some(d),
            _ => None,
        }
    }

    fn pattern(&self, args: &[Datum]) -> Option<DnaSeq> {
        match args.first()? {
            Datum::Text(s) => DnaSeq::from_text(s).ok(),
            other => self.decode(other),
        }
    }
}

impl AccessMethod for KmerAccessMethod {
    fn name(&self) -> &str {
        "kmer"
    }

    fn on_insert(&mut self, rid: Rid, value: &Datum) {
        self.all.insert(rid);
        if let Some(seq) = self.decode(value) {
            self.index.add(rid_key(rid), &seq);
        }
    }

    fn on_delete(&mut self, rid: Rid, value: &Datum) {
        self.all.remove(&rid);
        if let Some(seq) = self.decode(value) {
            self.index.remove(rid_key(rid), &seq);
        }
    }

    fn supports(&self, func: &str) -> bool {
        func == "contains"
    }

    fn probe(&self, func: &str, args: &[Datum]) -> Option<Vec<Rid>> {
        if func != "contains" {
            return None;
        }
        let pattern = self.pattern(args)?;
        match self.index.candidates(&pattern) {
            Some(keys) => {
                let mut rids: Vec<Rid> = keys.into_iter().map(key_rid).collect();
                rids.sort();
                Some(rids)
            }
            // Unfilterable pattern (short or ambiguous): every row is a
            // candidate; the residual predicate does the work.
            None => Some(self.all.iter().copied().collect()),
        }
    }

    fn selectivity(&self, func: &str, args: &[Datum]) -> Option<f64> {
        if func != "contains" {
            return None;
        }
        let pattern = self.pattern(args)?;
        Some(self.index.estimate_selectivity(&pattern))
    }
}

// ---------------------------------------------------------------------------
// A user-defined aggregate over sequences (C14)
// ---------------------------------------------------------------------------

struct LongestSeq {
    adapter: Adapter,
    best: Option<(usize, Datum)>,
}

impl unidb::expr::func::Accumulator for LongestSeq {
    fn update(&mut self, value: &Datum) -> DbResult<()> {
        if value.is_null() {
            return Ok(());
        }
        let len = match self.adapter.to_value(value)? {
            Value::Dna(d) => d.len(),
            Value::Rna(r) => r.len(),
            Value::ProteinSeq(p) => p.len(),
            Value::Str(s) => s.len(),
            other => {
                return Err(DbError::External(format!(
                    "longest_seq() expects a sequence, got sort {}",
                    other.sort()
                )))
            }
        };
        if self.best.as_ref().is_none_or(|(l, _)| len > *l) {
            self.best = Some((len, value.clone()));
        }
        Ok(())
    }

    fn finish(&self) -> Datum {
        self.best.as_ref().map_or(Datum::Null, |(_, d)| d.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genalg_core::gdt::Gene;
    use genalg_core::seq::ProteinSeq;

    fn setup() -> (Database, Adapter) {
        let db = Database::in_memory();
        let adapter = Adapter::install(&db).unwrap();
        (db, adapter)
    }

    #[test]
    fn installs_types_and_functions() {
        let (_db, adapter) = setup();
        assert!(adapter.types().id(&SortId::dna()).is_some());
        assert!(adapter.types().id(&SortId::protein()).is_some());
        assert_eq!(adapter.types().sort(adapter.types().dna()), Some(&SortId::dna()));
    }

    #[test]
    fn paper_flagship_query_works_verbatim() {
        let (db, _) = setup();
        db.execute("CREATE TABLE DNAFragments (id INT, fragment dna)").unwrap();
        db.execute(
            "INSERT INTO DNAFragments VALUES
               (1, dna('GGGATTGCCATAGG')),
               (2, dna('TTTTTTTT')),
               (3, dna('ATTGCCATA'))",
        )
        .unwrap();
        let rs = db
            .execute(
                "SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA') ORDER BY id",
            )
            .unwrap();
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn operators_work_in_every_clause() {
        let (db, _) = setup();
        db.execute("CREATE TABLE seqs (id INT, s dna)").unwrap();
        db.execute(
            "INSERT INTO seqs VALUES
               (1, dna('GGCC')), (2, dna('ATAT')), (3, dna('GGAT'))",
        )
        .unwrap();
        // SELECT list.
        let rs = db.execute("SELECT gc_content(s) FROM seqs WHERE id = 1").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Float(1.0));
        // WHERE.
        let rs = db.execute("SELECT count(*) FROM seqs WHERE gc_content(s) > 0.4").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(2));
        // ORDER BY.
        let rs = db.execute("SELECT id FROM seqs ORDER BY gc_content(s), id").unwrap();
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        // GROUP BY.
        let rs =
            db.execute("SELECT seq_length(s), count(*) FROM seqs GROUP BY seq_length(s)").unwrap();
        assert_eq!(rs.rows[0], vec![Datum::Int(4), Datum::Int(3)]);
    }

    #[test]
    fn central_dogma_through_sql() {
        let (db, adapter) = setup();
        db.execute("CREATE TABLE genes (id INT, g gene)").unwrap();
        let gene = Gene::builder("g1")
            .sequence(DnaSeq::from_text("ATGGCCTTTAAGGTAACCGGGTTTCACTGA").unwrap())
            .exon(0, 12)
            .exon(21, 30)
            .build()
            .unwrap();
        let payload = adapter.to_datum(&Value::Gene(Box::new(gene))).unwrap();
        // Route the opaque payload in through a registered constructor.
        let datum = payload.clone();
        db.register_scalar("the_gene", Arc::new(move |_| Ok(datum.clone()))).unwrap();
        db.execute("INSERT INTO genes VALUES (1, the_gene())").unwrap();

        let rs = db
            .execute("SELECT protein_sequence(translate(splice(transcribe(g)))) FROM genes")
            .unwrap();
        let value = adapter.to_value(&rs.rows[0][0]).unwrap();
        let Value::ProteinSeq(p) = value else { panic!("expected a protein sequence") };
        assert_eq!(p.to_text(), "MAFKFH");

        // And the one-step form.
        let rs = db.execute("SELECT gene_id(g) FROM genes").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Text("g1".into()));
    }

    #[test]
    fn nulls_propagate_through_operators() {
        let (db, _) = setup();
        db.execute("CREATE TABLE seqs (id INT, s dna)").unwrap();
        db.execute("INSERT INTO seqs VALUES (1, NULL)").unwrap();
        let rs = db.execute("SELECT gc_content(s) FROM seqs").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Null);
    }

    #[test]
    fn type_confusion_is_rejected() {
        let (db, _) = setup();
        db.execute("CREATE TABLE seqs (id INT, s dna)").unwrap();
        // protein_seq payload into a dna column.
        assert!(db.execute("INSERT INTO seqs VALUES (1, protein_seq('MAFK'))").is_err());
        // A non-sequence argument to a sequence operator.
        db.execute("INSERT INTO seqs VALUES (1, dna('ACGT'))").unwrap();
        assert!(db.execute("SELECT gc_content(id) FROM seqs").is_err());
    }

    #[test]
    fn kmer_index_accelerates_contains() {
        let (db, adapter) = setup();
        db.execute("CREATE TABLE frags (id INT, s dna)").unwrap();
        for i in 0..50 {
            let seq = if i % 10 == 0 {
                "CCCCCCCCATTGCCATACCCC".to_string()
            } else {
                "GGGGGGGGGGGGGGGGGGGGGG".to_string()
            };
            db.execute(&format!("INSERT INTO frags VALUES ({i}, dna('{seq}'))")).unwrap();
        }
        // Plan is a scan before attaching, a UDI scan after.
        let plan = db
            .execute("EXPLAIN SELECT id FROM frags WHERE contains(s, 'ATTGCCATA')")
            .unwrap()
            .explain
            .unwrap();
        assert!(plan.contains("SeqScan"), "{plan}");
        let before =
            db.execute("SELECT count(*) FROM frags WHERE contains(s, 'ATTGCCATA')").unwrap();

        adapter.attach_kmer_index(&db, "frags", "s", 6).unwrap();
        let plan = db
            .execute("EXPLAIN SELECT id FROM frags WHERE contains(s, 'ATTGCCATA')")
            .unwrap()
            .explain
            .unwrap();
        assert!(plan.contains("UdiScan"), "{plan}");
        let after =
            db.execute("SELECT count(*) FROM frags WHERE contains(s, 'ATTGCCATA')").unwrap();
        assert_eq!(before.rows, after.rows);
        assert_eq!(after.rows[0][0], Datum::Int(5));

        // Short patterns fall back to checking every row, still correct.
        let rs = db.execute("SELECT count(*) FROM frags WHERE contains(s, 'ATT')").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(5));

        // Index survives deletes.
        db.execute("DELETE FROM frags WHERE id = 0").unwrap();
        let rs = db.execute("SELECT count(*) FROM frags WHERE contains(s, 'ATTGCCATA')").unwrap();
        assert_eq!(rs.rows[0][0], Datum::Int(4));
    }

    #[test]
    fn user_defined_aggregate_longest_seq() {
        let (db, adapter) = setup();
        db.execute("CREATE TABLE seqs (grp INT, s dna)").unwrap();
        db.execute(
            "INSERT INTO seqs VALUES
               (1, dna('AT')), (1, dna('ATGGCC')), (2, dna('A'))",
        )
        .unwrap();
        let rs =
            db.execute("SELECT grp, longest_seq(s) FROM seqs GROUP BY grp ORDER BY grp").unwrap();
        let v = adapter.to_value(&rs.rows[0][1]).unwrap();
        assert_eq!(v.render(), "ATGGCC");
    }

    #[test]
    fn resembles_in_sql() {
        let (db, _) = setup();
        db.execute("CREATE TABLE seqs (id INT, s dna)").unwrap();
        db.execute(
            "INSERT INTO seqs VALUES
               (1, dna('ATGGCCTTTAAGGGGCCCAAATTTGGGCCCATAT')),
               (2, dna('GCGCGCGCGCGCGCGCGCGCGCGCGCGCGCGCGC'))",
        )
        .unwrap();
        let rs = db
            .execute(
                "SELECT id FROM seqs \
                 WHERE resembles(s, 'ATGGCCTTTAAGGGGCACAAATTTGGGCCCATAT', 0.9, 0.9)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Datum::Int(1));
    }

    #[test]
    fn extended_analysis_operators_in_sql() {
        let (db, _) = setup();
        db.execute("CREATE TABLE seqs (id INT, s dna)").unwrap();
        db.execute(
            "INSERT INTO seqs VALUES
               (1, dna('CCATGAAATTTTAACC')),  -- carries a complete ORF
               (2, dna('CCCCCCCCCCCC'))",
        )
        .unwrap();
        let rs = db.execute("SELECT id, longest_orf(s) FROM seqs ORDER BY id").unwrap();
        assert!(rs.rows[0][1].as_int().unwrap() >= 12);
        assert_eq!(rs.rows[1][1].as_int(), Some(0));

        // Isoelectric point over protein sequences, straight from text.
        let rs = db.execute("SELECT isoelectric_point(protein_seq('KKKKKK'))").unwrap();
        assert!(rs.rows[0][0].as_float().unwrap() > 9.0);
        let rs = db.execute("SELECT isoelectric_point(protein_seq('DDDDDD'))").unwrap();
        assert!(rs.rows[0][0].as_float().unwrap() < 4.5);
    }

    #[test]
    fn roundtrip_conversions() {
        let (_db, adapter) = setup();
        for v in [
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(1.5),
            Value::Str("abc".into()),
            Value::Dna(DnaSeq::from_text("ATGCN").unwrap()),
            Value::ProteinSeq(ProteinSeq::from_text("MAFK").unwrap()),
        ] {
            let d = adapter.to_datum(&v).unwrap();
            let back = adapter.to_value(&d).unwrap();
            assert_eq!(back, v);
        }
        assert!(adapter.to_value(&Datum::Null).is_err());
        assert!(adapter.to_value(&Datum::Blob(vec![1])).is_err());
        assert!(adapter.to_value(&Datum::opaque(999, vec![1, 2])).is_err());
    }

    /// Deterministic strict fragments with a planted motif in every tenth.
    fn fragments(n: usize) -> Vec<DnaSeq> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|i| {
                let mut text: String = (0..60)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        b"ACGT"[(state >> 33) as usize % 4] as char
                    })
                    .collect();
                if i % 10 == 0 {
                    text.replace_range(20..32, "ATTGCCATAGGC");
                }
                DnaSeq::from_text(&text).unwrap()
            })
            .collect()
    }

    fn load_fragments(db: &Database, frags: &[DnaSeq]) {
        db.execute("CREATE TABLE frags (id INT, s dna)").unwrap();
        for (chunk, rows) in frags.chunks(250).enumerate() {
            let values: Vec<String> = rows
                .iter()
                .enumerate()
                .map(|(i, s)| format!("({}, dna('{}'))", chunk * 250 + i, s.to_text()))
                .collect();
            db.execute(&format!("INSERT INTO frags VALUES {}", values.join(","))).unwrap();
        }
    }

    fn ids(db: &Database, sql: &str) -> Vec<i64> {
        let mut ids: Vec<i64> =
            db.execute(sql).unwrap().rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort_unstable();
        ids
    }

    /// A pattern shorter than the index's word size cannot be filtered; the
    /// access method says so (selectivity 1) and the planner scans instead
    /// of fetching every row through the index one rid at a time.
    #[test]
    fn a_pattern_the_index_cannot_filter_is_planned_as_a_scan() {
        let (db, adapter) = setup();
        let frags = fragments(300);
        load_fragments(&db, &frags);
        adapter.attach_kmer_index(&db, "frags", "s", 8).unwrap();
        let plan = |pattern: &str| {
            db.execute(&format!("EXPLAIN SELECT id FROM frags WHERE contains(s, '{pattern}')"))
                .unwrap()
                .explain
                .unwrap()
        };
        let seven = plan("ATTGCCA");
        assert!(seven.contains("SeqScan") && !seven.contains("UdiScan"), "{seven}");
        // An ambiguity code breaks the pattern's k-mer cover just the same.
        let blurred = plan("ATTGCCATNGGC");
        assert!(blurred.contains("SeqScan") && !blurred.contains("UdiScan"), "{blurred}");
        let twelve = plan("ATTGCCATAGGC");
        assert!(twelve.contains("UdiScan"), "{twelve}");

        for pattern in ["ATTGCCA", "ATTGCCATNGGC", "ATTGCCATAGGC"] {
            let want: Vec<i64> = frags
                .iter()
                .enumerate()
                .filter(|(_, f)| f.contains(&DnaSeq::from_text(pattern).unwrap()))
                .map(|(i, _)| i as i64)
                .collect();
            assert!(want.len() >= 30, "{pattern}");
            let sql = format!("SELECT id FROM frags WHERE contains(s, '{pattern}')");
            assert_eq!(ids(&db, &sql), want, "{pattern}");
        }
    }

    /// `contains` through the k-mer index is one statement whichever entry it
    /// comes in by: autocommit, inside a (clean) transaction, and prepared
    /// then executed all probe the access method through the same view —
    /// same plan, same rows.
    #[test]
    fn contains_through_the_index_is_the_same_statement_in_every_entry() {
        let (db, adapter) = setup();
        let frags = fragments(1_000);
        load_fragments(&db, &frags);
        adapter.attach_kmer_index(&db, "frags", "s", 8).unwrap();
        let sql = "SELECT id FROM frags WHERE contains(s, 'ATTGCCATAGGC')";
        let explain = format!("EXPLAIN {sql}");
        let (auto, stats) = db.explain_analyze(sql).unwrap();
        assert!(stats.render_counters().contains("UdiScan"), "{}", stats.render_counters());
        assert_eq!(auto.rows.len(), 100, "every tenth fragment carries the motif");
        assert_eq!(db.execute(sql).unwrap().rows, auto.rows);

        let txn = db.txn_begin();
        let plan = db.txn_execute(txn, &explain).unwrap().explain.unwrap();
        assert_eq!(plan, db.execute(&explain).unwrap().explain.unwrap());
        assert_eq!(db.txn_execute(txn, sql).unwrap().rows, auto.rows);
        // An index scan's one deterministic counter, node by node.
        let rows_out = |text: &str| -> Vec<String> {
            let words = text.split([' ', ')', '\n']).filter(|w| w.contains("rows_out="));
            words.map(String::from).collect()
        };
        let analyzed = db.txn_execute(txn, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
        assert_eq!(rows_out(&analyzed.explain.unwrap()), rows_out(&stats.render_counters()));
        db.txn_commit(txn).unwrap();

        let prepared = db.prepare(sql).unwrap();
        assert!(prepared.access_label().starts_with("UdiScan"), "{}", prepared.access_label());
        assert_eq!(db.execute_prepared(&prepared).unwrap().rows, auto.rows);
    }

    /// Index maintenance costs what the deleted sequence's own k-mers cost,
    /// so deleting half of a table is no longer quadratic in its size — and
    /// what is left answers exactly as a scan does.
    #[test]
    fn the_index_survives_deleting_half_the_table() {
        let (db, adapter) = setup();
        let frags = fragments(5_000);
        load_fragments(&db, &frags);
        adapter.attach_kmer_index(&db, "frags", "s", 8).unwrap();
        db.execute("DELETE FROM frags WHERE id % 20 < 10").unwrap();
        // A fragment planted after the deletes is found too.
        db.execute("INSERT INTO frags VALUES (5001, dna('GGGGATTGCCATAGGCGGGG'))").unwrap();

        let cut = frags[4_998].subseq(3, 19).unwrap().to_text();
        for pattern in ["ATTGCCATAGGC", "GCCATAGG", cut.as_str(), "ACGTACGTACGT"] {
            let p = DnaSeq::from_text(pattern).unwrap();
            let mut want: Vec<i64> = frags
                .iter()
                .enumerate()
                .filter(|(i, f)| i % 20 >= 10 && f.contains(&p))
                .map(|(i, _)| i as i64)
                .collect();
            if DnaSeq::from_text("GGGGATTGCCATAGGCGGGG").unwrap().contains(&p) {
                want.push(5001);
            }
            let sql = format!("SELECT id FROM frags WHERE contains(s, '{pattern}')");
            let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            assert!(plan.contains("UdiScan"), "{plan}");
            assert_eq!(ids(&db, &sql), want, "{pattern}");
        }
        assert_eq!(ids(&db, "SELECT id FROM frags WHERE contains(s, 'ATTGCCATAGGC')").len(), 251);
    }

    /// The statement-level binding must be invisible: for every operator
    /// exposed to SQL, whichever of its arguments are literals, a bound
    /// call site returns what the plain per-row call returns — value for
    /// value and error text for error text. One argument at a time is swept
    /// through NULL, every scalar type, text that is a dna / a protein /
    /// neither, every genomic sort, and corrupt and mistyped payloads.
    #[test]
    fn bound_call_sites_agree_with_the_plain_call() {
        let (_db, adapter) = setup();
        let alg = adapter.algebra();
        let gene = Value::Gene(Box::new(
            Gene::builder("g1")
                .sequence(DnaSeq::from_text("ATGGCCTTTAAGGTAACCGGGTTTCACTGA").unwrap())
                .exon(0, 12)
                .exon(21, 30)
                .build()
                .unwrap(),
        ));
        let transcript = alg.apply("transcribe", std::slice::from_ref(&gene)).unwrap();
        let mrna = alg.apply("splice", std::slice::from_ref(&transcript)).unwrap();
        let protein = alg.apply("translate", std::slice::from_ref(&mrna)).unwrap();
        let rna = alg.apply("mrna_sequence", std::slice::from_ref(&mrna)).unwrap();
        let d = |v: &Value| adapter.to_datum(v).unwrap();
        let dna = d(&Value::Dna(DnaSeq::from_text("CCATGGCCTTTAAGTGACC").unwrap()));
        let protein_seq = d(&Value::ProteinSeq(ProteinSeq::from_text("MAFKW").unwrap()));
        let (gene, transcript, mrna, protein, rna) =
            (d(&gene), d(&transcript), d(&mrna), d(&protein), d(&rna));
        let dna_id = adapter.types().dna();
        let (_, dna_bytes) = dna.as_opaque().unwrap();
        let (_, protein_bytes) = protein_seq.as_opaque().unwrap();

        let text = |s: &str| Datum::Text(s.into());
        let sweep: Vec<Datum> = vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(0),
            Datum::Int(99),
            Datum::Float(0.8),
            text("GGCCTTTAAG"),
            text("MAFKW"),
            text("hello, world"),
            text(""),
            Datum::Blob(vec![1, 2, 3]),
            dna.clone(),
            rna.clone(),
            protein_seq.clone(),
            gene.clone(),
            transcript.clone(),
            mrna.clone(),
            protein.clone(),
            // A dna column holding a protein payload, a truncated payload,
            // one that lies about its length, and an unregistered type.
            Datum::opaque(dna_id, protein_bytes.to_vec()),
            Datum::opaque(dna_id, dna_bytes[..dna_bytes.len() - 2].to_vec()),
            Datum::opaque(dna_id, vec![1, 200, 0x21, 0x43]),
            Datum::opaque(9_999, dna_bytes.to_vec()),
        ];

        // One well-sorted argument list per operator (per arity).
        let good: Vec<(&str, Vec<Datum>)> = vec![
            ("transcribe", vec![gene.clone()]),
            ("splice", vec![transcript.clone()]),
            ("translate", vec![mrna.clone()]),
            ("express", vec![gene.clone()]),
            ("reverse_transcribe", vec![mrna.clone()]),
            ("decode", vec![dna.clone(), Datum::Int(2)]),
            ("complement", vec![dna.clone()]),
            ("reverse_complement", vec![dna.clone()]),
            ("gc_content", vec![dna.clone()]),
            ("length", vec![dna.clone()]),
            ("subsequence", vec![dna.clone(), Datum::Int(2), Datum::Int(9)]),
            ("contains", vec![dna.clone(), text("GGCCTTTAAG")]),
            ("find", vec![dna.clone(), text("TTTAAG")]),
            (
                "resembles",
                vec![
                    dna.clone(),
                    text("CCATGGCCTTAAAGTGACC"),
                    Datum::Float(0.8),
                    Datum::Float(0.8),
                ],
            ),
            ("local_score", vec![dna.clone(), text("GGCCTTTAAG")]),
            ("identity", vec![dna.clone(), text("CCATGGCCTTAAAGTGACC")]),
            ("hamming", vec![dna.clone(), text("CCATGGCCTTTAAGTGACG")]),
            ("orf_count", vec![dna.clone(), Datum::Int(6)]),
            ("melting_temperature", vec![dna.clone()]),
            ("molecular_weight", vec![protein_seq.clone()]),
            ("gravy", vec![protein_seq.clone()]),
            ("isoelectric_point", vec![protein_seq.clone()]),
            ("longest_orf", vec![dna.clone()]),
            ("sequence_of", vec![gene.clone()]),
            ("gene_id", vec![gene.clone()]),
            ("protein_sequence", vec![protein.clone()]),
            ("mrna_sequence", vec![mrna.clone()]),
            ("parse_dna", vec![text("acgtn")]),
            ("parse_protein", vec![text("MAFKW")]),
        ];
        let covered: Vec<&str> = good.iter().map(|(op, _)| *op).collect();
        assert_eq!(covered, SQL_OPS.iter().map(|(op, _)| *op).collect::<Vec<_>>());

        let show = |r: &DbResult<Datum>| match r {
            Ok(d) => format!("ok {d:?}"),
            Err(e) => format!("err {e}"),
        };
        let (mut calls, mut errors, mut nulls) = (0, 0, 0);
        for (op, base) in &good {
            assert!(matches!(adapter.call(op, base), Ok(d) if !d.is_null()), "{op} base case");
            for position in 0..base.len() {
                for value in &sweep {
                    let mut args = base.clone();
                    args[position] = value.clone();
                    let plain = adapter.call(op, &args);
                    match &plain {
                        Ok(Datum::Null) => nulls += 1,
                        Ok(_) => {}
                        Err(_) => errors += 1,
                    }
                    // Every choice of which arguments are literals.
                    for literal_mask in 0..(1u32 << args.len()) {
                        let is_literal = |i: usize| literal_mask & (1 << i) != 0;
                        let literals: Vec<Option<&Datum>> = args
                            .iter()
                            .enumerate()
                            .map(|(i, a)| is_literal(i).then_some(a))
                            .collect();
                        let vars: Vec<&Datum> = args
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| !is_literal(*i))
                            .map(|(_, a)| a)
                            .collect();
                        let bound = match adapter.binder(op)(&literals) {
                            Some(f) => f(&vars),
                            None => adapter.call(op, &args),
                        };
                        assert_eq!(
                            show(&bound),
                            show(&plain),
                            "{op}({args:?}) with literals {literal_mask:#b}"
                        );
                        calls += 1;
                    }
                }
            }
        }
        assert!(calls > 3_000 && errors > 300 && nulls > 40, "{calls} {errors} {nulls}");

        // The agreement above would also hold if nothing ever bound, so:
        // the shapes a scan is made of do bind, on their first row.
        let threshold = Some(Datum::Float(0.8));
        for (op, literals) in [
            ("contains", vec![None, Some(text("GGCCTTTAAG"))]),
            ("find", vec![None, Some(text("TTTAAG"))]),
            ("gc_content", vec![None]),
            ("length", vec![None]),
            (
                "resembles",
                vec![None, Some(text("CCATGGCCTTAAAGTGACC")), threshold.clone(), threshold],
            ),
            ("translate", vec![None]),
        ] {
            let site = CallSite { adapter: adapter.clone(), op, literals, plan: OnceLock::new() };
            let var = if op == "translate" { &mrna } else { &dna };
            assert!(site.call(&[var]).is_ok(), "{op}");
            assert!(matches!(site.plan.get(), Some(Some(_))), "{op} did not bind");
        }

        // A call site keeps working when rows of another type follow the
        // one it bound for: `seq_length` has a text and a dna overload.
        let length = adapter.binder("length")(&[None]).expect("binds");
        for _ in 0..2 {
            assert_eq!(length(&[&dna]).unwrap(), Datum::Int(19));
            assert_eq!(length(&[&text("héllo")]).unwrap(), Datum::Int(5));
            assert_eq!(length(&[&Datum::Null]).unwrap(), Datum::Null);
            assert!(length(&[&Datum::Bool(true)]).is_err());
        }
    }
}
