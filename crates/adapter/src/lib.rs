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
//! 3. registers the k-mer index as the **domain index kind** `kmer` (§6.5):
//!    `CREATE INDEX ON t USING kmer (seq) WITH (k = 8)` (or
//!    [`Adapter::attach_kmer_index`]) makes `contains` predicates index
//!    probes instead of full scans. The engine catalogues, logs and
//!    recovers the index like a B-tree, so a durable database reopened with
//!    the adapter installed answers through it again.
//!
//! The adapter is the *only* component that knows both worlds; neither
//! `genalg-core` nor `unidb` references the other.

use genalg_core::algebra::{BindArg, BoundOp, CallArg, KernelAlgebra, SortId, Value};
use genalg_core::compact::{dna_view, value_from_bytes, value_to_bytes};
use genalg_core::error::GenAlgError;
use genalg_core::index::KmerIndex;
use genalg_core::seq::{DnaSeq, DnaView};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use unidb::sql::ast::Stmt;
use unidb::storage::heap::Rid;
use unidb::{
    AccessMethod, BoundCall, BoundColumnFn, DataType, Database, Datum, DbError, DbResult, Role,
    ScalarBinder,
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
        let glue = adapter.clone();
        db.register_index_kind(
            "kmer",
            Arc::new(move |params: &[(String, Datum)]| {
                let index = KmerIndex::new(kmer_word_size(params)?);
                Ok(Box::new(KmerAccessMethod { adapter: glue.clone(), index }) as Box<_>)
            }),
        )?;
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

    /// The sequence of a well-formed payload of the `dna` type, borrowed
    /// from the datum; `None` for anything else, including a payload that
    /// would not decode (which [`Adapter::to_value`] words as an error).
    fn dna_payload<'a>(&self, d: &'a Datum) -> Option<DnaView<'a>> {
        match d {
            Datum::Opaque(id, bytes) if *id == self.types.dna() => dna_view(bytes).ok(),
            _ => None,
        }
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
    /// arguments. A site with one varying argument also gets a
    /// page-at-a-time entry ([`CallSite::call_column`]).
    fn binder(&self, op: &'static str) -> ScalarBinder {
        let glue = self.clone();
        Arc::new(move |literals: &[Option<&Datum>]| -> Option<BoundCall> {
            if literals.iter().flatten().any(|d| d.is_null()) {
                // NULL in, NULL out, whatever the other arguments are.
                return Some(BoundCall::per_row(Arc::new(|_: &[&Datum]| Ok(Datum::Null))));
            }
            let site = Arc::new(CallSite {
                adapter: glue.clone(),
                op,
                literals: literals.iter().map(|l| l.cloned()).collect(),
                plan: OnceLock::new(),
            });
            let column = (literals.iter().filter(|l| l.is_none()).count() == 1).then(|| {
                let site = Arc::clone(&site);
                Arc::new(move |values: &[&Datum], out: &mut Vec<Datum>| {
                    site.call_column(values, out)
                }) as BoundColumnFn
            });
            Some(BoundCall { row: Arc::new(move |vars: &[&Datum]| site.call(vars)), column })
        })
    }

    /// `CREATE INDEX ON table USING kmer (column) WITH (k = k)`, run as the
    /// maintainer: `contains(column, pattern)` predicates then probe the
    /// index, built in bulk from the rows already there. An unqualified
    /// `table` names the one table of that name in any space. Fails with
    /// [`DbError::TypeMismatch`] unless the column is declared `dna`, and
    /// with [`DbError::Constraint`] unless `k` is in
    /// 1..=[`KmerIndex::MAX_K`].
    pub fn attach_kmer_index(
        &self,
        db: &Database,
        table: &str,
        column: &str,
        k: usize,
    ) -> DbResult<()> {
        let suffix = format!(".{}", table.to_ascii_lowercase());
        let mut spaces = db.table_names().into_iter().filter(|name| name.ends_with(&suffix));
        let table = match (table.contains('.'), spaces.next(), spaces.next()) {
            (false, Some(qualified), None) => qualified,
            _ => table.to_string(),
        };
        let k = Datum::Int(i64::try_from(k).unwrap_or(i64::MAX));
        let params = vec![("k".to_string(), k)];
        let stmt = Stmt::CreateIndex { table, column: column.into(), kind: "kmer".into(), params };
        db.run_stmt(None, stmt, &Role::Maintainer).map(|_| ())
    }
}

/// The word size a `kmer` index is declared with: `WITH (k = n)`, `n` an
/// integer in 1..=[`KmerIndex::MAX_K`].
fn kmer_word_size(params: &[(String, Datum)]) -> DbResult<usize> {
    let bound = format!("1..={}", KmerIndex::MAX_K);
    match params {
        [(name, Datum::Int(k))] if name == "k" => usize::try_from(*k)
            .ok()
            .filter(|k| (1..=KmerIndex::MAX_K).contains(k))
            .ok_or_else(|| DbError::Constraint(format!("kmer index: k = {k} is outside {bound}"))),
        [(name, other)] if name == "k" => Err(DbError::Constraint(format!(
            "kmer index: k must be an integer in {bound}, got {other}"
        ))),
        _ => Err(DbError::Constraint(format!(
            "kmer index takes one parameter, WITH (k = n) for n in {bound}"
        ))),
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

    /// The page-at-a-time entry of a site with one varying argument: the
    /// value of each of a run of rows through the same bound kernel
    /// [`CallSite::call`] sends a stored `dna` payload to, one output per
    /// value appended to `out`. Refuses the run (`false`) at the first value
    /// it cannot serve — one that is neither NULL nor a `dna` payload, or a
    /// payload the kernel rejects (`dna_view` does not read it) — and when
    /// the site binds no kernel for `dna`: the per-row call then decides
    /// each row, and words the error.
    fn call_column(&self, values: &[&Datum], out: &mut Vec<Datum>) -> bool {
        let dna = self.adapter.types.dna();
        // The plan the per-row call makes on its first non-NULL row.
        let plan = match values.iter().find(|d| !d.is_null()) {
            Some(first) => self.plan.get_or_init(|| self.plan(&[first])),
            None => self.plan.get().unwrap_or(&None),
        };
        let bound = match plan {
            Some(plan) if plan.var_types == [DataType::Opaque(dna)] => Some(&plan.bound),
            _ => None,
        };
        out.reserve(values.len());
        for d in values {
            let value = match (d, bound) {
                (Datum::Null, _) => Datum::Null,
                (Datum::Opaque(id, bytes), Some(bound)) if *id == dna => {
                    // A number or a truth value is taken out of the result
                    // by value: through `to_datum` and dropping the `Value`
                    // it cost ~25 ns a value, as much as the `seq_length`
                    // kernel itself.
                    match bound.call(&[CallArg::Compact(bytes)]) {
                        Ok(Value::Int(i)) => Datum::Int(i),
                        Ok(Value::Float(f)) => Datum::Float(f),
                        Ok(Value::Bool(b)) => Datum::Bool(b),
                        Ok(v) => match self.adapter.to_datum(&v) {
                            Ok(d) => d,
                            Err(_) => return false,
                        },
                        Err(_) => return false,
                    }
                }
                _ => return false,
            };
            out.push(value);
        }
        true
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
/// negatives); the executor re-checks every candidate. A pattern the index
/// cannot filter estimates 1, so the planner never probes for it.
struct KmerAccessMethod {
    adapter: Adapter,
    index: KmerIndex,
}

impl KmerAccessMethod {
    fn pattern(&self, args: &[Datum]) -> Option<DnaSeq> {
        match args.first()? {
            Datum::Text(s) => DnaSeq::from_text(s).ok(),
            other => self.adapter.dna_payload(other).map(|v| v.to_seq()),
        }
    }
}

impl AccessMethod for KmerAccessMethod {
    fn name(&self) -> &str {
        "kmer"
    }

    fn indexes(&self, ty: DataType) -> bool {
        ty == DataType::Opaque(self.adapter.types.dna())
    }

    fn build(&mut self, rows: &[(Rid, Datum)]) {
        // Every stored payload is indexed where it lies, as on insert.
        let seqs = rows
            .iter()
            .filter_map(|(rid, value)| Some((rid_key(*rid), self.adapter.dna_payload(value)?)));
        self.index = KmerIndex::build(self.index.k(), seqs);
    }

    fn on_insert(&mut self, rid: Rid, value: &Datum) {
        // The stored payload is indexed where it lies.
        if let Some(seq) = self.adapter.dna_payload(value) {
            self.index.add(rid_key(rid), seq);
        }
    }

    fn on_delete(&mut self, rid: Rid, value: &Datum) {
        if let Some(seq) = self.adapter.dna_payload(value) {
            self.index.remove(rid_key(rid), seq);
        }
    }

    fn supports(&self, func: &str) -> bool {
        func == "contains"
    }

    fn probe(&self, func: &str, args: &[Datum]) -> Option<Vec<Rid>> {
        if func != "contains" {
            return None;
        }
        let keys = self.index.candidates(&self.pattern(args)?)?;
        // Keys ascend, and so do the rids they encode.
        Some(keys.into_iter().map(key_rid).collect())
    }

    fn selectivity(&self, func: &str, args: &[Datum]) -> Option<f64> {
        if func != "contains" {
            return None;
        }
        // An argument that is no sequence (NULL, text that does not parse)
        // is left to the scan, which words its outcome.
        Some(self.pattern(args).map_or(1.0, |pattern| self.index.estimate_selectivity(&pattern)))
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
        // A stored `dna` value's length is in its header.
        let len = match self.adapter.dna_payload(value) {
            Some(seq) => seq.len(),
            None => self.generic_len(value)?,
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

impl LongestSeq {
    /// The length of any other value, decoded; this also words the error
    /// for a value that is no sequence or does not decode.
    fn generic_len(&self, value: &Datum) -> DbResult<usize> {
        Ok(match self.adapter.to_value(value)? {
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
        })
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

    /// A strict pattern one or two symbols short of the index's word size is
    /// answered from the k-mers it can lie inside; a shorter or ambiguous
    /// one cannot be filtered, the access method says so (selectivity 1)
    /// and the planner scans instead.
    #[test]
    fn patterns_down_to_two_below_k_probe_the_index_and_the_rest_scan() {
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
        for probed in ["ATTGCCA", "TTGCCA", "ATTGCCATAGGC"] {
            let text = plan(probed);
            assert!(text.contains("UdiScan"), "{probed}: {text}");
        }
        // Three short of k, and an ambiguity code that breaks the
        // pattern's k-mer cover.
        for scanned in ["ATTGC", "ATTGCCATNGGC"] {
            let text = plan(scanned);
            assert!(text.contains("SeqScan") && !text.contains("UdiScan"), "{scanned}: {text}");
        }

        for pattern in ["ATTGCCA", "TTGCCA", "ATTGC", "ATTGCCATNGGC", "ATTGCCATAGGC"] {
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

    /// Two databases with the same rows, the first with the k-mer index on
    /// `frags.s`, the second without.
    fn indexed_and_plain(frags: &[DnaSeq]) -> (Database, Database) {
        let (indexed, adapter) = setup();
        let (plain, _) = setup();
        load_fragments(&indexed, frags);
        load_fragments(&plain, frags);
        adapter.attach_kmer_index(&indexed, "frags", "s", 8).unwrap();
        (indexed, plain)
    }

    /// An ambiguity code in a stored sequence matches any pattern base, so
    /// the sequence can contain a pattern none of its strict k-mers shows;
    /// a sequence shorter than k has no k-mers at all. Through the index
    /// they are still found, at, above and below the word size: a window
    /// with an ambiguity code is indexed under the k-mers it stands for, and
    /// a sequence too short or too ambiguous for that is a candidate for
    /// every pattern.
    #[test]
    fn ambiguous_and_short_sequences_are_found_through_the_index() {
        let mut frags = fragments(198);
        frags.insert(1, DnaSeq::from_text("CCCCCCCCATGGCCNTTAAGGGGGGGGG").unwrap());
        frags.push(DnaSeq::from_text("GATTACA").unwrap());
        frags.push(DnaSeq::from_text("CCCCATGGCNNNTAAGCCCC").unwrap());
        let (indexed, plain) = indexed_and_plain(&frags);
        for pattern in ["ATGGCCATTAAG", "ATGGCCAT", "GCCATTA", "CATTAA", "GATTACA", "ATTGCCATAGGC"]
        {
            let sql = format!("SELECT id FROM frags WHERE contains(s, '{pattern}')");
            let plan = indexed.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            assert!(plan.contains("UdiScan"), "{pattern}: {plan}");
            let rows = |db: &Database| db.execute(&sql).unwrap().rows;
            assert_eq!(rows(&indexed), rows(&plain), "{pattern}");
        }
        let sql = "SELECT id FROM frags WHERE contains(s, 'ATGGCCATTAAG')";
        assert_eq!(ids(&indexed, sql), vec![1, 200]);
        assert!(ids(&indexed, "SELECT id FROM frags WHERE contains(s, 'GATTACA')").contains(&199));
    }

    /// UPDATE and DELETE find their rows through the same access path as a
    /// SELECT: below the word size that is now the index, and the rows
    /// touched are the ones a scan touches.
    #[test]
    fn dml_below_the_word_size_touches_the_rows_a_scan_touches() {
        let (indexed, plain) = indexed_and_plain(&fragments(400));
        let update = "UPDATE frags SET id = id + 1000 WHERE contains(s, 'TTGCCAT')";
        let delete = "DELETE FROM frags WHERE contains(s, 'CATAGG')";
        for sql in [update, delete] {
            let plan = indexed.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            assert!(plan.contains("UdiScan"), "{plan}");
            let plan = plain.execute(&format!("EXPLAIN {sql}")).unwrap().explain.unwrap();
            assert!(!plan.contains("UdiScan"), "{plan}");
            let (a, b) = (indexed.execute(sql).unwrap(), plain.execute(sql).unwrap());
            assert_eq!(a.affected, b.affected, "{sql}");
            assert!(a.affected >= 40, "{sql}: {}", a.affected);
            let all = "SELECT id FROM frags";
            assert_eq!(indexed.execute(all).unwrap().rows, plain.execute(all).unwrap().rows);
        }
        let sql = "SELECT id FROM frags WHERE contains(s, 'GCCATA')";
        assert_eq!(indexed.execute(sql).unwrap().rows, plain.execute(sql).unwrap().rows);
    }

    /// On an empty table a pattern the index cannot filter is planned as a
    /// scan, not a probe the index would have to answer with every row;
    /// after inserts it still returns what a scan returns. A pattern
    /// argument that is no sequence is left to the scan as well.
    #[test]
    fn an_unfilterable_pattern_on_an_empty_table_scans() {
        let (indexed, plain) = indexed_and_plain(&[]);
        let explain = |sql: &str| indexed.execute(&format!("EXPLAIN {sql}")).unwrap().explain;
        let short = "SELECT id FROM frags WHERE contains(s, 'ACG')";
        let plan = explain(short).unwrap();
        assert!(plan.contains("SeqScan") && !plan.contains("UdiScan"), "{plan}");
        assert!(indexed.execute(short).unwrap().rows.is_empty());
        let seven = "SELECT id FROM frags WHERE contains(s, 'GCCATAG')";
        assert!(explain(seven).unwrap().contains("UdiScan"));
        assert!(indexed.execute(seven).unwrap().rows.is_empty());

        let frags = fragments(200);
        for db in [&indexed, &plain] {
            for (id, f) in frags.iter().enumerate() {
                db.execute(&format!("INSERT INTO frags VALUES ({id}, dna('{}'))", f.to_text()))
                    .unwrap();
            }
        }
        let want: Vec<i64> = (0..200)
            .filter(|&i| frags[i].contains(&DnaSeq::from_text("ACG").unwrap()))
            .map(|i| i as i64)
            .collect();
        assert!(!want.is_empty());
        assert_eq!(ids(&indexed, short), want);
        for sql in [short, seven] {
            assert_eq!(ids(&indexed, sql), ids(&plain, sql), "{sql}");
        }
        for sql in [
            "SELECT id FROM frags WHERE contains(s, NULL)",
            "SELECT id FROM frags WHERE contains(s, 'XYZZY')",
            "SELECT id FROM frags WHERE contains(s, 'gccatag')",
        ] {
            let outcome =
                |db: &Database| db.execute(sql).map(|r| r.rows).map_err(|e| e.to_string());
            assert_eq!(outcome(&indexed), outcome(&plain), "{sql}");
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

    /// A table the transaction wrote, or that another session committed to
    /// after the snapshot, is dirty for the transaction. The k-mer index
    /// still answers there, as a B-tree does: its candidates are checked
    /// against the snapshot and the transaction's own writes are added, so
    /// its own insert is in, its own delete is out, the concurrent commit is
    /// invisible. After COMMIT the index answers for everyone.
    #[test]
    fn contains_on_a_dirty_table_probes_the_index_inside_the_transaction_and_after() {
        let (db, adapter) = setup();
        let frags = fragments(300);
        load_fragments(&db, &frags);
        adapter.attach_kmer_index(&db, "frags", "s", 8).unwrap();
        let motif = DnaSeq::from_text("ATTGCCATAGGC").unwrap();
        let sql = "SELECT id FROM frags WHERE contains(s, 'ATTGCCATAGGC')";
        let explain = format!("EXPLAIN {sql}");
        let loaded: Vec<i64> =
            (0..frags.len()).filter(|&i| frags[i].contains(&motif)).map(|i| i as i64).collect();
        assert!(loaded.len() >= 30 && loaded.contains(&10), "{loaded:?}");

        let txn = db.txn_begin();
        db.txn_execute(txn, "INSERT INTO frags VALUES (1000, dna('GGGGATTGCCATAGGCGGGG'))")
            .unwrap();
        db.txn_execute(txn, "DELETE FROM frags WHERE id = 10").unwrap();
        db.execute("INSERT INTO frags VALUES (2000, dna('CCATTGCCATAGGCCC'))").unwrap();

        let mut want: Vec<i64> = loaded.iter().copied().filter(|&id| id != 10).collect();
        want.push(1000);
        let mut inside: Vec<i64> =
            db.txn_execute(txn, sql).unwrap().rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        inside.sort_unstable();
        assert_eq!(inside, want);
        let plan = db.txn_execute(txn, &explain).unwrap().explain.unwrap();
        assert!(plan.contains("UdiScan"), "{plan}");
        db.txn_commit(txn).unwrap();

        let plan = db.execute(&explain).unwrap().explain.unwrap();
        assert!(plan.contains("UdiScan"), "{plan}");
        want.push(2000);
        assert_eq!(ids(&db, sql), want);
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
                            Some(bound) => (bound.row)(&vars),
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
        let length = adapter.binder("length")(&[None]).expect("binds").row;
        for _ in 0..2 {
            assert_eq!(length(&[&dna]).unwrap(), Datum::Int(19));
            assert_eq!(length(&[&text("héllo")]).unwrap(), Datum::Int(5));
            assert_eq!(length(&[&Datum::Null]).unwrap(), Datum::Null);
            assert!(length(&[&Datum::Bool(true)]).is_err());
        }
    }

    /// Rows rewritten in place keep their rid, so their keys re-enter the
    /// index below keys already there. Through the index, `contains` must
    /// still return what a scan returns, in the same (heap) order.
    #[test]
    fn reused_rids_come_back_from_the_index_in_scan_order() {
        let frags = fragments(600);
        let (indexed, adapter) = setup();
        let (plain, _) = setup();
        load_fragments(&indexed, &frags);
        load_fragments(&plain, &frags);
        adapter.attach_kmer_index(&indexed, "frags", "s", 8).unwrap();
        let planted = "ACGTTGCAAGGCATTGCCATAGGCTTACGATCGGATCCAAGCTTGCATGCCTGCAGGTCG";
        let shorter = "TTGCCATAGGCAAGCTTGCA";
        for db in [&indexed, &plain] {
            db.execute("DELETE FROM frags WHERE id % 3 = 0").unwrap();
            // Same length and shorter: rewritten in place, on early pages.
            db.execute(&format!("UPDATE frags SET s = dna('{planted}') WHERE id % 7 = 1")).unwrap();
            db.execute(&format!("UPDATE frags SET s = dna('{shorter}') WHERE id % 11 = 2"))
                .unwrap();
            db.execute(&format!("INSERT INTO frags VALUES (900, dna('GG{shorter}CC'))")).unwrap();
        }
        let mut compared = 0;
        for pattern in ["ATTGCCATAGGC", "TTGCCATAGGCAAG", "GCATGCCTGCAGG", "ACGTACGTACGT"] {
            let sql = format!("SELECT id FROM frags WHERE contains(s, '{pattern}')");
            let plan = |db: &Database| db.execute(&format!("EXPLAIN {sql}")).unwrap().explain;
            let (through, past) = (plan(&indexed).unwrap(), plan(&plain).unwrap());
            assert!(through.contains("UdiScan"), "{through}");
            assert!(past.contains("SeqScan") && !past.contains("UdiScan"), "{past}");
            let rows = |db: &Database| db.execute(&sql).unwrap().rows;
            assert_eq!(rows(&indexed), rows(&plain), "{pattern}");
            compared += rows(&plain).len();
        }
        assert!(compared > 100, "only {compared} rows compared");
    }

    /// The k-mer index reads `dna` payloads only, so attached to a column of
    /// another type it would hold nothing and estimate 0: a query that
    /// finds rows without it, or fails without it, would return no rows
    /// with it. The attach is refused instead, and both queries answer as
    /// before.
    #[test]
    fn attaching_the_kmer_index_to_a_text_column_fails_and_leaves_the_query_alone() {
        let (db, adapter) = setup();
        db.execute("CREATE TABLE t (id INT, s TEXT)").unwrap();
        db.execute("CREATE TABLE u (id INT, s TEXT)").unwrap();
        let frags = fragments(200);
        let rows = |text: &dyn Fn(usize) -> String| -> String {
            (0..frags.len()).map(|i| format!("({i}, '{}')", text(i))).collect::<Vec<_>>().join(",")
        };
        db.execute(&format!("INSERT INTO t VALUES {}", rows(&|i| frags[i].to_text()))).unwrap();
        db.execute(&format!("INSERT INTO u VALUES {}", rows(&|i| format!("row {i}")))).unwrap();
        let found = "SELECT id FROM t WHERE contains(s, 'ATTGCCATAGGC')";
        let failing = "SELECT id FROM u WHERE contains(s, 'ATGGCCATTAAG')";
        let outcome = |sql: &str| db.execute(sql).map(|r| r.rows).map_err(|e| e.to_string());
        let before = (outcome(found), outcome(failing));
        assert_eq!(before.0.as_ref().map(Vec::len), Ok(20));
        let error = before.1.as_ref().unwrap_err();
        assert!(error.contains("no overload accepts (string, string)"), "{error}");

        for table in ["t", "u"] {
            let refused = adapter.attach_kmer_index(&db, table, "s", 8).unwrap_err();
            assert!(matches!(refused, DbError::TypeMismatch(_)), "{refused}");
        }
        assert_eq!((outcome(found), outcome(failing)), before);
        let plan = db.execute(&format!("EXPLAIN {found}")).unwrap().explain.unwrap();
        assert!(!plan.contains("UdiScan"), "{plan}");
    }

    /// The k-mer index is catalogued, logged and recovered like a B-tree. It
    /// is attached right after a recovery, on load, and a durable table then
    /// sees deleted rows, rows rewritten in place, a checkpoint and a WAL
    /// tail. Reopened by `recover()` alone, the database answers `contains`
    /// through the index exactly as a twin that never had the index answers
    /// by scanning — an ambiguous subject and one shorter than k included —
    /// whether the index comes back from the snapshot, from the WAL tail
    /// (attached after the checkpoint) or from the WAL alone (no checkpoint).
    #[test]
    fn an_index_attached_after_recovery_answers_as_the_scan_did() {
        let root = std::env::temp_dir()
            .join(format!("genalg-adapter-kmer-recovered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let open = |dir: &std::path::Path| {
            let db = Database::open(dir).unwrap();
            let adapter = Adapter::install(&db).unwrap();
            db.recover().unwrap();
            (db, adapter)
        };
        let blurred = "CCCCCCCCATGGCCNTTAAGGGGGGGGG";
        let planted = "ACGTTGCAAGGCATTGCCATAGGCTTACGATCGGATCCAAGCTTGCATGCCTGCAGGTCG";
        // (directory, attach before the checkpoint?, checkpoint at all?)
        let twins = [
            ("plain", None, true),
            ("snapshot", Some(true), true),
            ("tail", Some(false), true),
            ("wal", Some(true), false),
        ];
        for (name, attach_first, checkpoint) in twins {
            let (db, adapter) = open(&root.join(name));
            let mut frags = fragments(400);
            frags[3] = DnaSeq::from_text(blurred).unwrap();
            load_fragments(&db, &frags);
            let attach = || adapter.attach_kmer_index(&db, "frags", "s", 8).unwrap();
            if attach_first == Some(true) {
                attach();
            }
            db.execute("DELETE FROM frags WHERE id % 5 = 0").unwrap();
            // Same length: rewritten in place, keeping its rid.
            db.execute(&format!("UPDATE frags SET s = dna('{planted}') WHERE id % 7 = 1")).unwrap();
            db.execute("INSERT INTO frags VALUES (500, dna('GATTACA')), (501, dna('GCCATTAA'))")
                .unwrap();
            if checkpoint {
                db.checkpoint().unwrap();
            }
            if attach_first == Some(false) {
                attach();
            }
            // The WAL tail, replayed on top of the snapshot.
            db.execute("DELETE FROM frags WHERE id % 5 = 1").unwrap();
            db.execute("UPDATE frags SET s = dna('TTGCCATAGGCAAGCTTGCA') WHERE id % 11 = 2")
                .unwrap();
            db.execute(&format!("INSERT INTO frags VALUES (502, dna('{blurred}'))")).unwrap();
        }
        let patterns = ["ATGGCCATTAAG", "ATTGCCATAGGC", "GCCATTA", "GATTACA", "CATTAA"];
        let sql = |pattern: &str| format!("SELECT id FROM frags WHERE contains(s, '{pattern}')");
        let plan = |db: &Database, pattern: &str| {
            db.execute(&format!("EXPLAIN {}", sql(pattern))).unwrap().explain.unwrap()
        };
        let (plain, _) = open(&root.join("plain"));
        for (name, ..) in &twins[1..] {
            let (db, _) = open(&root.join(name));
            for pattern in patterns {
                assert!(plan(&db, pattern).contains("UdiScan"), "{name} {pattern}");
                assert!(!plan(&plain, pattern).contains("UdiScan"), "{pattern}");
                let rows = |db: &Database| db.execute(&sql(pattern)).unwrap().rows;
                assert_eq!(rows(&db), rows(&plain), "{name} {pattern}");
            }
            for pattern in ["ATGGCCATTAAG", "GCCATTA", "CATTAA"] {
                let found = ids(&db, &sql(pattern));
                assert!(found.contains(&3) && found.contains(&502), "{pattern}: {found:?}");
            }
            assert!(ids(&db, &sql("GATTACA")).contains(&500));
            assert!(ids(&db, &sql("ATTGCCATAGGC")).len() >= 20);
        }
        drop(plain);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Plan equivalence for `contains`: with the k-mer index and without it,
    /// every probe returns the same rows in the same order — in autocommit,
    /// inside a clean transaction, and inside a dirty one that wrote the
    /// table itself while other sessions deleted rows after its snapshot and
    /// reinserted into the freed rids. Subjects include ambiguous sequences
    /// and ones shorter than k; patterns run from above the word size to
    /// below what the index can filter. Divergences are collected, so a
    /// broken probe reports how many answers it changed.
    #[test]
    fn contains_answers_alike_with_and_without_the_index_in_every_entry() {
        let mut frags = fragments(300);
        frags[1] = DnaSeq::from_text("CCCCCCCCATGGCCNTTAAGGGGGGGGG").unwrap();
        frags[2] = DnaSeq::from_text("GATTACA").unwrap();
        frags[4] = DnaSeq::from_text("CCCCATGGCNNNTAAGCCCC").unwrap();
        let (indexed, plain) = indexed_and_plain(&frags);
        let patterns = [
            "ATTGCCATAGGC",
            "ATGGCCATTAAG",
            "TTGCCAT",
            "GCCATTA",
            "CATTAA",
            "GATTACA",
            "ATTGC",
            "ATTGCCATNGGC",
        ];
        let sql = |pattern: &str| format!("SELECT id, s FROM frags WHERE contains(s, '{pattern}')");
        let (mut divergences, mut probed) = (Vec::new(), Vec::new());
        let dbs = [&indexed, &plain];
        // Every pattern on both sides, in autocommit or in the transaction
        // each side has open.
        let mut compare = |entry: &str, txns: Option<[u64; 2]>| {
            let run = |side: usize, sql: &str| match txns {
                Some(ids) => dbs[side].txn_execute(ids[side], sql),
                None => dbs[side].execute(sql),
            };
            // In order: a dirty table's virtual page lists prior images in
            // the one fixed order a concurrent multi-row delete applied them in.
            let rows = |side: usize, sql: &str| run(side, sql).map(|r| r.rows);
            for pattern in patterns {
                let (a, b) = (rows(0, &sql(pattern)), rows(1, &sql(pattern)));
                let plan = run(0, &format!("EXPLAIN {}", sql(pattern))).unwrap().explain;
                if plan.unwrap().contains("UdiScan") {
                    probed.push(format!("{entry} {pattern}"));
                }
                if a != b {
                    divergences.push(format!("{entry} {pattern}"));
                }
            }
        };
        compare("autocommit", None);
        let clean = dbs.map(Database::txn_begin);
        compare("clean transaction", Some(clean));
        let dirty = dbs.map(Database::txn_begin);
        // Other sessions, after the snapshot: deletes, then inserts that
        // take the freed rids.
        for db in dbs {
            db.execute("DELETE FROM frags WHERE id % 4 = 0").unwrap();
            db.execute(
                "INSERT INTO frags VALUES (600, dna('GGGGATTGCCATAGGCGGGG')), \
                 (601, dna('GATTACA')), (602, dna('TTTTTTTTTTTTTTTTTT'))",
            )
            .unwrap();
        }
        // The transaction's own writes.
        for (db, id) in dbs.into_iter().zip(dirty) {
            for write in [
                "INSERT INTO frags VALUES (700, dna('CCATTGCCATAGGCCC')), (701, dna('CATTAA'))",
                "DELETE FROM frags WHERE id % 10 = 5",
                "UPDATE frags SET s = dna('ATGGCCATTAAGTT') WHERE id % 9 = 2 AND id % 4 <> 0",
            ] {
                db.txn_execute(id, write).unwrap();
            }
        }
        compare("dirty transaction", Some(dirty));
        for (side, db) in dbs.into_iter().enumerate() {
            db.txn_commit(clean[side]).unwrap();
            db.txn_commit(dirty[side]).unwrap();
        }
        compare("after commit", None);
        // Six patterns are filterable; the dirty transaction probes them all.
        let dirty_probes = probed.iter().filter(|p| p.starts_with("dirty")).count();
        assert!(dirty_probes == 6 && probed.len() >= 20, "{probed:?}");
        assert!(divergences.is_empty(), "{} divergences: {divergences:?}", divergences.len());
    }

    /// `USING kmer` takes exactly `k`, an integer in 1..=MAX_K; anything
    /// else is an error naming that bound, through SQL and through
    /// `attach_kmer_index`, and leaves no index behind.
    #[test]
    fn bad_kmer_word_sizes_are_errors_naming_the_bound() {
        let (db, adapter) = setup();
        db.execute("CREATE TABLE frags (id INT, s dna)").unwrap();
        let bound = format!("1..={}", KmerIndex::MAX_K);
        let too_big = KmerIndex::MAX_K + 1;
        for with in [
            String::new(),
            " WITH (w = 8)".into(),
            " WITH (k = 8, w = 2)".into(),
            " WITH (k = 'eight')".into(),
            " WITH (k = 2.5)".into(),
            " WITH (k = 0)".into(),
            " WITH (k = -3)".into(),
            format!(" WITH (k = {too_big})"),
        ] {
            let err =
                db.execute(&format!("CREATE INDEX ON frags USING kmer (s){with}")).unwrap_err();
            assert!(matches!(err, DbError::Constraint(_)), "{with}: {err}");
            assert!(err.to_string().contains(&bound), "{with}: {err}");
        }
        for k in [0, too_big, usize::MAX] {
            let err = adapter.attach_kmer_index(&db, "frags", "s", k).unwrap_err();
            assert!(err.to_string().contains(&bound), "{k}: {err}");
        }
        let explain = "EXPLAIN SELECT id FROM frags WHERE contains(s, 'ATTGCCATAGGC')";
        assert!(!db.execute(explain).unwrap().explain.unwrap().contains("UdiScan"));
        db.execute("CREATE INDEX ON frags USING kmer (s) WITH (k = 8)").unwrap();
        assert!(db.execute(explain).unwrap().explain.unwrap().contains("UdiScan"));
    }

    /// `longest_seq` reads a `dna` value's length from its header and
    /// decodes everything else; which of the two ran must not show. Each
    /// value alone and all of them in one group give what decoding every
    /// value gives: the same longest value or the same error text.
    #[test]
    fn longest_seq_reads_dna_in_place_with_the_same_results_and_errors() {
        let (_db, adapter) = setup();
        let d = |v: Value| adapter.to_datum(&v).unwrap();
        let dna = d(Value::Dna(DnaSeq::from_text("ACGTNACGTA").unwrap()));
        let short = d(Value::Dna(DnaSeq::from_text("ACG").unwrap()));
        let rna = d(Value::Rna(genalg_core::seq::RnaSeq::from_text("ACGUACGUACGUA").unwrap()));
        let protein_seq = d(Value::ProteinSeq(ProteinSeq::from_text("MAFKW").unwrap()));
        let gene = d(Value::Gene(Box::new(
            Gene::builder("g1").sequence(DnaSeq::from_text("ATGGCC").unwrap()).build().unwrap(),
        )));
        let (dna_id, dna_bytes) = dna.as_opaque().unwrap();
        let (rna_id, _) = rna.as_opaque().unwrap();
        let (_, protein_bytes) = protein_seq.as_opaque().unwrap();
        let values = [
            Datum::Null,
            dna.clone(),
            short,
            rna,
            protein_seq.clone(),
            Datum::Text("ACGTACGTACGTACGT".into()),
            Datum::Int(7),
            Datum::Blob(vec![1, 2]),
            gene,
            // Mistyped and corrupt payloads under the dna type, a dna
            // payload under another type, and an unregistered type.
            Datum::opaque(dna_id, protein_bytes.to_vec()),
            Datum::opaque(dna_id, dna_bytes[..dna_bytes.len() - 2].to_vec()),
            Datum::opaque(dna_id, vec![1, 200, 0x21, 0x43]),
            Datum::opaque(dna_id, vec![]),
            Datum::opaque(rna_id, dna_bytes.to_vec()),
            Datum::opaque(9_999, dna_bytes.to_vec()),
        ];
        // The accumulator as it was: every value decoded.
        let decoded = |group: &[Datum]| -> Result<Datum, String> {
            let mut best: Option<(usize, Datum)> = None;
            for value in group.iter().filter(|v| !v.is_null()) {
                let len = match adapter.to_value(value).map_err(|e| e.to_string())? {
                    Value::Dna(d) => d.len(),
                    Value::Rna(r) => r.len(),
                    Value::ProteinSeq(p) => p.len(),
                    Value::Str(s) => s.len(),
                    other => {
                        return Err(DbError::External(format!(
                            "longest_seq() expects a sequence, got sort {}",
                            other.sort()
                        ))
                        .to_string())
                    }
                };
                if best.as_ref().is_none_or(|(l, _)| len > *l) {
                    best = Some((len, value.clone()));
                }
            }
            Ok(best.map_or(Datum::Null, |(_, d)| d))
        };
        let accumulated = |group: &[Datum]| -> Result<Datum, String> {
            use unidb::expr::func::Accumulator;
            let mut acc = LongestSeq { adapter: adapter.clone(), best: None };
            for value in group {
                acc.update(value).map_err(|e| e.to_string())?;
            }
            Ok(acc.finish())
        };
        for value in &values {
            let group = [dna.clone(), value.clone(), protein_seq.clone()];
            for group in [std::slice::from_ref(value), &group[..]] {
                assert_eq!(accumulated(group), decoded(group), "{value:?}");
            }
        }
        let sequences = &values[..6];
        assert_eq!(accumulated(sequences), decoded(sequences));
        assert_eq!(accumulated(sequences).unwrap(), values[5]);
        assert!(accumulated(&values).is_err());
    }

    /// Every operator's page entry, where a call site has one, writes
    /// exactly what the per-row call returns for each value of a run, or
    /// refuses the run; a run holding a value the per-row call raises on is
    /// always refused. Runs are drawn from strict and ambiguous `dna`
    /// payloads, NULLs, corrupt payloads and values of other types.
    #[test]
    fn page_entries_agree_with_the_per_row_call() {
        let (_db, adapter) = setup();
        let dna_id = adapter.types().dna();
        let d = |v: Value| adapter.to_datum(&v).unwrap();
        let protein = d(Value::ProteinSeq(ProteinSeq::from_text("MAFKW").unwrap()));
        let (_, protein_bytes) = protein.as_opaque().unwrap();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % n
        };
        let draw = |next: &mut dyn FnMut(usize) -> usize| -> Datum {
            let seq = |next: &mut dyn FnMut(usize) -> usize, alphabet: &[u8]| -> DnaSeq {
                let len = next(40);
                let text: String =
                    (0..len).map(|_| alphabet[next(alphabet.len())] as char).collect();
                DnaSeq::from_text(&text).unwrap()
            };
            match next(10) {
                0 => Datum::Null,
                1 => d(Value::Dna(seq(next, b"ACGTNRYKMSWBDHV"))),
                2 => {
                    let good = d(Value::Dna(seq(next, b"ACGT")));
                    let (_, bytes) = good.as_opaque().unwrap();
                    Datum::opaque(dna_id, bytes[..bytes.len().saturating_sub(1)].to_vec())
                }
                3 => Datum::opaque(dna_id, protein_bytes.to_vec()),
                4 => protein.clone(),
                5 => Datum::Text("GATTACA".into()),
                _ => d(Value::Dna(seq(next, b"ACGT"))),
            }
        };
        let show = |r: &DbResult<Datum>| match r {
            Ok(d) => format!("ok {d:?}"),
            Err(e) => format!("err {e}"),
        };
        let (mut served, mut refused, mut sites) = (0usize, 0usize, 0usize);
        for &(op, _) in SQL_OPS {
            // The scan shape: the first argument varies, any others are the
            // literals the operator's tests bind with.
            let literals: Vec<Option<Datum>> = match op {
                "contains" | "find" => vec![None, Some(Datum::Text("GATT".into()))],
                "subsequence" => vec![None, Some(Datum::Int(1)), Some(Datum::Int(3))],
                "decode" => vec![None, Some(Datum::Int(2))],
                "resembles" => {
                    let text = Some(Datum::Text("ACGTACGTAC".into()));
                    vec![None, text, Some(Datum::Float(0.8)), Some(Datum::Float(0.8))]
                }
                "local_score" | "identity" | "hamming" => {
                    vec![None, Some(Datum::Text("ACGTACGTAC".into()))]
                }
                _ => vec![None],
            };
            let literals: Vec<Option<&Datum>> = literals.iter().map(Option::as_ref).collect();
            for _ in 0..30 {
                // A fresh call site per run, and runs on one site in turn.
                let bound = adapter.binder(op)(&literals).expect("binds");
                let Some(column) = bound.column.clone() else { continue };
                sites += 1;
                for _ in 0..3 {
                    let run: Vec<Datum> = (0..1 + next(6)).map(|_| draw(&mut next)).collect();
                    let refs: Vec<&Datum> = run.iter().collect();
                    let per_row: Vec<DbResult<Datum>> =
                        run.iter().map(|v| (bound.row)(&[v])).collect();
                    let mut out = Vec::new();
                    if column(&refs, &mut out) {
                        served += 1;
                        let got: Vec<String> = out.into_iter().map(|d| show(&Ok(d))).collect();
                        let want: Vec<String> = per_row.iter().map(show).collect();
                        assert_eq!(got, want, "{op} over {run:?}");
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        assert!(sites > 300 && served > 200 && refused > 200, "{sites} {served} {refused}");
    }

    /// A statement whose page entry refuses its pages — a `protein_seq`
    /// column where the site binds for `dna`, a TEXT or INT column where it
    /// binds for nothing — returns what the per-row call gives each row, or
    /// the per-row call's error.
    #[test]
    fn a_refused_page_folds_through_the_per_row_call() {
        let (db, _adapter) = setup();
        db.execute("CREATE TABLE m (id INT, org TEXT, s dna, p protein_seq)").unwrap();
        let rows: Vec<String> = (0..400)
            .map(|i| {
                let s = ["ACGTNACGT", "GGCCA", "ATTRYA", "NNNN", "CCCCGGGG"][i % 5];
                let org = ["'a'", "'GATC'", "NULL"][i % 3];
                format!("({i}, {org}, dna('{s}'), protein_seq('MAFKW{}'))", "W".repeat(i % 4))
            })
            .collect();
        db.execute(&format!("INSERT INTO m VALUES {}", rows.join(", "))).unwrap();
        let outcome =
            |r: DbResult<unidb::ResultSet>| r.map(|rs| rs.rows).map_err(|e| e.to_string());
        let mut errors = 0;
        for call in [
            "gc_content(s)",
            "seq_length(s)",
            "seq_length(p)",
            "gc_content(org)",
            "seq_length(org)",
            "gc_content(id)",
        ] {
            let sql =
                format!("SELECT org, count(*), max({call}) FROM m WHERE id >= 0 GROUP BY org");
            let got = outcome(db.execute(&sql));
            let per_row = outcome(db.execute(&format!("SELECT org, {call} FROM m WHERE id >= 0")));
            let want = per_row.map(|rows| {
                let mut groups: Vec<Vec<Datum>> = Vec::new();
                for row in rows {
                    match groups.iter_mut().find(|g| g[0] == row[0]) {
                        Some(g) => {
                            g[1] = Datum::Int(g[1].as_int().unwrap() + 1);
                            if row[1].total_cmp(&g[2]).is_gt() {
                                g[2] = row[1].clone();
                            }
                        }
                        None => groups.push(vec![row[0].clone(), Datum::Int(1), row[1].clone()]),
                    }
                }
                groups
            });
            errors += usize::from(want.is_err());
            assert_eq!(got, want, "{sql}");
        }
        assert_eq!(errors, 1, "only gc_content over INT raises");
    }
}
