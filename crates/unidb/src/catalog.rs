//! The system catalog: spaces, tables, columns, and opaque UDT registry.
//!
//! The paper's Unifying Database separates the **public space** — the
//! integrated, read-only external data — from updatable per-user spaces
//! (§5.1): "The schema containing the external data is read-only to
//! facilitate maintenance of the warehouse; user-owned entities are
//! updateable by their owners." Writes to the public space require the
//! maintainer role (held by the ETL loader).

use crate::datum::{DataType, Datum};
use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Rendering hook an adapter registers for an opaque type's payloads.
pub type DisplayHook = Arc<dyn Fn(&[u8]) -> String + Send + Sync>;

/// Who is issuing a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Role {
    /// The warehouse maintainer (the ETL loader); may write every space.
    Maintainer,
    /// An ordinary user; may write only spaces they own.
    User(String),
}

impl Role {
    /// The space a user's unqualified table names resolve to.
    pub fn default_space(&self) -> &str {
        match self {
            Role::Maintainer => "public",
            Role::User(name) => name,
        }
    }
}

/// A namespace within the warehouse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Space {
    pub name: String,
    /// Owner; `None` marks the shared public space.
    pub owner: Option<String>,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    pub id: u32,
    pub space: String,
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

impl TableDef {
    /// `space.name`, the canonical key.
    pub fn qualified_name(&self) -> String {
        format!("{}.{}", self.space, self.name)
    }

    /// Position of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }
}

/// Sketch size: the K smallest hashes kept per column. 256 keeps the
/// estimate within a few percent while costing 2 KiB per column.
const NDV_SKETCH_K: usize = 256;

/// A KMV (k-minimum-values) distinct-count sketch.
///
/// Feed it the 64-bit hash of every observed value; it keeps only the K
/// smallest distinct hashes. If fewer than K have been seen the count is
/// exact; otherwise the classic KMV estimator extrapolates from how
/// tightly the K minima crowd the bottom of the hash space. Insert-only:
/// deletes are not un-observed, so the estimate is an upper bound on a
/// shrinking table (the planner only needs relative magnitudes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NdvSketch {
    mins: BTreeSet<u64>,
}

impl NdvSketch {
    /// Observe one value by its 64-bit hash.
    pub fn observe(&mut self, hash: u64) {
        if self.mins.len() < NDV_SKETCH_K {
            self.mins.insert(hash);
        } else if let Some(&max) = self.mins.last() {
            if hash < max && self.mins.insert(hash) {
                self.mins.pop_last();
            }
        }
    }

    /// Estimated number of distinct values observed.
    pub fn estimate(&self) -> u64 {
        if self.mins.len() < NDV_SKETCH_K {
            return self.mins.len() as u64;
        }
        // KMV: with the K-th smallest hash at fraction x of the hash
        // space, NDV ≈ (K-1)/x. Computed in f64 to dodge u64 overflow.
        let kth = (*self.mins.last().expect("sketch is full")).max(1);
        ((NDV_SKETCH_K - 1) as f64 * (u64::MAX as f64) / kth as f64) as u64
    }
}

/// Reservoir sample size per column. 256 values bound the equi-depth
/// histogram's memory while keeping bucket boundaries within a few
/// percent of the true quantiles for the table sizes this engine serves.
const SAMPLE_CAP: usize = 256;

/// Maximum equi-depth histogram buckets built from a sample.
const HIST_BUCKETS: usize = 16;

/// A fixed-size uniform random sample of a column's non-NULL values
/// (Vitter's reservoir algorithm R).
///
/// The RNG is a seeded xorshift64 — *deterministic*, which matters more
/// here than statistical polish: WAL replay re-observes the same values
/// in the same order, so a recovered database lands on byte-identical
/// samples (and therefore identical histograms and plans).
#[derive(Debug, Clone)]
pub struct ReservoirSample {
    values: Vec<Datum>,
    seen: u64,
    rng: u64,
}

impl ReservoirSample {
    fn new(column: usize) -> Self {
        // Per-column seed so sibling columns don't share an RNG stream.
        ReservoirSample {
            values: Vec::new(),
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((column as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)),
        }
    }

    /// Observe one value; returns whether it entered the sample.
    fn observe(&mut self, d: &Datum) -> bool {
        self.seen += 1;
        if self.values.len() < SAMPLE_CAP {
            self.values.push(d.clone());
            return true;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let j = (self.rng % self.seen) as usize;
        if j < SAMPLE_CAP {
            self.values[j] = d.clone();
        }
        j < SAMPLE_CAP
    }
}

/// One column's statistics: distinct-value sketch, NULL count, and the
/// sample the equi-depth histogram is built from.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    ndv: NdvSketch,
    sample: ReservoirSample,
    nulls: u64,
    /// The histogram of `sample`, built by the first plan that asks after
    /// the sample last changed and lent to every plan until it changes again.
    histogram: OnceLock<Option<EquiDepthHistogram>>,
}

impl ColumnStats {
    fn new(column: usize) -> Self {
        ColumnStats {
            ndv: NdvSketch::default(),
            sample: ReservoirSample::new(column),
            nulls: 0,
            histogram: OnceLock::new(),
        }
    }
}

/// Per-table statistics maintained at insert/update time.
///
/// Row counts live in the heap (always exact); this adds the per-column
/// distinct-value sketches, NULL counts, and histogram samples the
/// planner uses for join ordering and filter selectivity. Stats are
/// runtime-only state: like the rest of the catalog they are rebuilt by
/// WAL replay on recovery, so they never need their own persistence.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// One entry per column position. NULLs are counted but never fed to
    /// the sketch or sample — the estimates describe the non-NULL
    /// population, which is exactly what join keys and comparisons match.
    columns: Vec<ColumnStats>,
    /// Rows observed (inserts and post-update images) since the last
    /// reset.
    observed: u64,
    /// Deletes since the last reset. Sketches and samples are insert-only,
    /// so heavy deletion drifts them away from the live data; past a
    /// threshold ([`Catalog::observe_delete`]) the engine rebuilds.
    deleted: u64,
}

/// An equi-depth histogram over one column's sampled non-NULL values:
/// every bucket holds the same number of sampled values, so bucket
/// *boundaries* (not counts) carry the shape of the distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiDepthHistogram {
    /// Smallest sampled value: anything below it selects nothing.
    min: Datum,
    /// Bucket upper bounds, nondecreasing, at most [`HIST_BUCKETS`].
    bounds: Vec<Datum>,
    /// The full sorted sample, kept for exact-match selectivity.
    sorted: Vec<Datum>,
}

impl EquiDepthHistogram {
    /// Build from a (not necessarily sorted) sample; `None` when empty.
    pub fn from_sample(values: &[Datum]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let n = sorted.len();
        let buckets = HIST_BUCKETS.min(n);
        let bounds = (1..=buckets).map(|b| sorted[b * n / buckets - 1].clone()).collect();
        Some(EquiDepthHistogram { min: sorted[0].clone(), bounds, sorted })
    }

    /// Bucket upper bounds (equal depth each).
    pub fn buckets(&self) -> &[Datum] {
        &self.bounds
    }

    /// Estimated fraction of non-NULL values at or below `v` (strictly
    /// below when `inclusive` is false). Bucket-granular with half-bucket
    /// interpolation for values landing inside a bucket.
    fn frac_at_most(&self, v: &Datum, inclusive: bool) -> f64 {
        match v.total_cmp(&self.min) {
            Ordering::Less => return 0.0,
            Ordering::Equal if !inclusive => return 0.0,
            _ => {}
        }
        let k = self.bounds.len() as f64;
        // Repeated values can share several bucket bounds; an inclusive
        // probe equal to a bound covers every bucket ending at it.
        let mut eq_through: Option<usize> = None;
        for (i, ub) in self.bounds.iter().enumerate() {
            match v.total_cmp(ub) {
                Ordering::Less => {
                    return match eq_through {
                        Some(n) => n as f64 / k,
                        None => (i as f64 + 0.5) / k,
                    };
                }
                Ordering::Equal if inclusive => eq_through = Some(i + 1),
                Ordering::Equal => return (i as f64 + 0.5) / k,
                Ordering::Greater => {}
            }
        }
        match eq_through {
            Some(n) => n as f64 / k,
            None => 1.0,
        }
    }

    /// Estimated selectivity of `lo < / <= col < / <= hi` over the
    /// non-NULL population (either side optional; the bool is
    /// "inclusive").
    pub fn range_selectivity(&self, lo: Option<(&Datum, bool)>, hi: Option<(&Datum, bool)>) -> f64 {
        let hi_f = hi.map_or(1.0, |(v, incl)| self.frac_at_most(v, incl));
        let lo_f = lo.map_or(0.0, |(v, incl)| self.frac_at_most(v, !incl));
        (hi_f - lo_f).clamp(0.0, 1.0)
    }

    /// Estimated selectivity of `col = v` over the non-NULL population:
    /// the exact match fraction within the sample.
    pub fn eq_selectivity(&self, v: &Datum) -> f64 {
        let lo = self.sorted.partition_point(|x| x.total_cmp(v) == Ordering::Less);
        let hi = self.sorted.partition_point(|x| x.total_cmp(v) != Ordering::Greater);
        (hi - lo) as f64 / self.sorted.len() as f64
    }
}

/// A registered opaque user-defined type (§6.2).
///
/// The engine never inspects the payload; the registering adapter may
/// provide a display hook so query results render meaningfully.
#[derive(Clone)]
pub struct OpaqueTypeDef {
    pub id: u32,
    pub name: String,
    pub display: Option<DisplayHook>,
}

impl fmt::Debug for OpaqueTypeDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpaqueTypeDef")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("display", &self.display.is_some())
            .finish()
    }
}

/// The catalog.
#[derive(Debug, Default)]
pub struct Catalog {
    spaces: HashMap<String, Space>,
    tables: HashMap<String, TableDef>,
    types_by_name: HashMap<String, OpaqueTypeDef>,
    types_by_id: HashMap<u32, OpaqueTypeDef>,
    stats: HashMap<u32, TableStats>,
    next_table_id: u32,
    next_type_id: u32,
}

impl Catalog {
    /// A catalog with the `public` space pre-created.
    pub fn new() -> Self {
        let mut c = Catalog { next_table_id: 1, next_type_id: 1, ..Default::default() };
        c.spaces.insert("public".into(), Space { name: "public".into(), owner: None });
        c
    }

    // -- spaces -------------------------------------------------------------

    /// Create a user space owned by `owner`.
    pub fn create_space(&mut self, name: &str, owner: &str) -> DbResult<()> {
        let key = name.to_ascii_lowercase();
        if self.spaces.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "space", name: name.into() });
        }
        self.spaces.insert(key.clone(), Space { name: key, owner: Some(owner.to_string()) });
        Ok(())
    }

    /// Ensure a user's default space exists (created lazily on first write).
    pub fn ensure_user_space(&mut self, user: &str) {
        let key = user.to_ascii_lowercase();
        self.spaces
            .entry(key.clone())
            .or_insert_with(|| Space { name: key, owner: Some(user.to_string()) });
    }

    /// Look up a space.
    pub fn space(&self, name: &str) -> Option<&Space> {
        self.spaces.get(&name.to_ascii_lowercase())
    }

    /// May `role` write into `space`?
    pub fn can_write(&self, role: &Role, space: &str) -> bool {
        match role {
            Role::Maintainer => true,
            Role::User(user) => self
                .space(space)
                .and_then(|s| s.owner.as_deref())
                .is_some_and(|owner| owner.eq_ignore_ascii_case(user)),
        }
    }

    // -- tables -------------------------------------------------------------

    /// Create a table; the space must exist.
    pub fn create_table(
        &mut self,
        space: &str,
        name: &str,
        columns: Vec<ColumnDef>,
    ) -> DbResult<&TableDef> {
        let space_key = space.to_ascii_lowercase();
        if self.space(&space_key).is_none() {
            return Err(DbError::NotFound { kind: "space", name: space.into() });
        }
        if columns.is_empty() {
            return Err(DbError::Constraint("a table needs at least one column".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.to_ascii_lowercase()) {
                return Err(DbError::Constraint(format!("duplicate column {:?}", c.name)));
            }
        }
        let key = format!("{space_key}.{}", name.to_ascii_lowercase());
        if self.tables.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "table", name: key });
        }
        let def = TableDef {
            id: self.next_table_id,
            space: space_key,
            name: name.to_ascii_lowercase(),
            columns,
        };
        self.next_table_id += 1;
        Ok(self.tables.entry(key).or_insert(def))
    }

    /// Drop a table (and its statistics).
    pub fn drop_table(&mut self, space: &str, name: &str) -> DbResult<TableDef> {
        let key = format!("{}.{}", space.to_ascii_lowercase(), name.to_ascii_lowercase());
        let def = self.tables.remove(&key).ok_or(DbError::NotFound { kind: "table", name: key })?;
        self.stats.remove(&def.id);
        Ok(def)
    }

    // -- statistics ---------------------------------------------------------

    /// Fold one inserted (or post-update) row into the table's per-column
    /// statistics. Called from the row mutators, including WAL replay,
    /// so recovery rebuilds statistics along with the data.
    pub fn observe_row(&mut self, table_id: u32, row: &[Datum]) {
        let stats = self.stats.entry(table_id).or_default();
        stats.observed += 1;
        while stats.columns.len() < row.len() {
            let pos = stats.columns.len();
            stats.columns.push(ColumnStats::new(pos));
        }
        for (col, datum) in stats.columns.iter_mut().zip(row) {
            if datum.is_null() {
                col.nulls += 1;
            } else {
                col.ndv.observe(crate::fxhash::hash_one(datum));
                if col.sample.observe(datum) {
                    col.histogram.take();
                }
            }
        }
    }

    /// Record one deleted row. Returns `true` when deletion has outpaced
    /// the insert-only statistics badly enough that the caller should
    /// rebuild them from the live rows: at least 64 deletes since the
    /// last reset, and deletes make up half of everything observed.
    pub fn observe_delete(&mut self, table_id: u32) -> bool {
        let Some(stats) = self.stats.get_mut(&table_id) else { return false };
        stats.deleted += 1;
        stats.deleted >= 64 && stats.deleted * 2 >= stats.observed
    }

    /// Discard a table's statistics so the caller can re-observe the live
    /// rows from scratch (fresh sketches, samples, and churn counters).
    pub fn reset_stats(&mut self, table_id: u32) {
        self.stats.remove(&table_id);
    }

    /// Estimated count of distinct non-NULL values in a column, or `None`
    /// when the column has never been observed (pre-existing data, or a
    /// table with no inserts yet) — callers fall back to the row count.
    pub fn column_ndv(&self, table_id: u32, column: usize) -> Option<u64> {
        let sketch = &self.stats.get(&table_id)?.columns.get(column)?.ndv;
        match sketch.estimate() {
            0 => None,
            n => Some(n),
        }
    }

    /// Fraction of observed rows whose value in `column` is NULL, or
    /// `None` when nothing has been observed.
    pub fn column_null_frac(&self, table_id: u32, column: usize) -> Option<f64> {
        let stats = self.stats.get(&table_id)?;
        if stats.observed == 0 {
            return None;
        }
        let col = stats.columns.get(column)?;
        Some(col.nulls as f64 / stats.observed as f64)
    }

    /// Equi-depth histogram over a column's sampled non-NULL values, or
    /// `None` when the sample is empty. Sorting the sample costs more than
    /// planning a point lookup, so it is built once per change of the
    /// sample and lent by reference to every plan in between.
    pub fn column_histogram(&self, table_id: u32, column: usize) -> Option<&EquiDepthHistogram> {
        let col = self.stats.get(&table_id)?.columns.get(column)?;
        col.histogram.get_or_init(|| EquiDepthHistogram::from_sample(&col.sample.values)).as_ref()
    }

    /// Order-sensitive fingerprint of a table's statistics: sketches,
    /// samples, NULL counts, and churn counters. Two databases that
    /// applied the same logical history (e.g. a clean run and a
    /// crash-recovered WAL replay) must produce the same value; `0` for a
    /// table with no statistics.
    pub fn stats_fingerprint(&self, table_id: u32) -> u64 {
        let Some(stats) = self.stats.get(&table_id) else { return 0 };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mix = |h: &mut u64, v: u64| *h = (*h ^ v).wrapping_mul(0x100_0000_01b3);
        mix(&mut h, stats.observed);
        mix(&mut h, stats.deleted);
        for col in &stats.columns {
            mix(&mut h, col.nulls);
            mix(&mut h, col.sample.seen);
            for m in &col.ndv.mins {
                mix(&mut h, *m);
            }
            for v in &col.sample.values {
                mix(&mut h, crate::fxhash::hash_one(v));
            }
        }
        h
    }

    /// Resolve a possibly qualified table name against the session's
    /// default space, falling back to `public`.
    pub fn resolve_table(&self, default_space: &str, name: &str) -> DbResult<&TableDef> {
        let lower = name.to_ascii_lowercase();
        if let Some((space, table)) = lower.split_once('.') {
            let key = format!("{space}.{table}");
            return self.tables.get(&key).ok_or(DbError::NotFound { kind: "table", name: key });
        }
        let own = format!("{}.{lower}", default_space.to_ascii_lowercase());
        if let Some(t) = self.tables.get(&own) {
            return Ok(t);
        }
        let public = format!("public.{lower}");
        self.tables.get(&public).ok_or(DbError::NotFound { kind: "table", name: name.into() })
    }

    /// Find a table by qualified name, or by bare name when it is
    /// unambiguous across spaces (used by API-level registration calls
    /// that have no session space).
    pub fn find_table(&self, name: &str) -> DbResult<&TableDef> {
        let lower = name.to_ascii_lowercase();
        if lower.contains('.') {
            return self.tables.get(&lower).ok_or(DbError::NotFound { kind: "table", name: lower });
        }
        let hits: Vec<&TableDef> = self.tables.values().filter(|t| t.name == lower).collect();
        match hits.as_slice() {
            [one] => Ok(one),
            [] => Err(DbError::NotFound { kind: "table", name: lower }),
            _ => Err(DbError::Constraint(format!(
                "table name {lower:?} is ambiguous across spaces; qualify it"
            ))),
        }
    }

    /// Look a table up by its numeric id.
    pub fn table_by_id(&self, id: u32) -> Option<&TableDef> {
        self.tables.values().find(|t| t.id == id)
    }

    /// All tables, sorted by qualified name.
    pub fn tables(&self) -> Vec<&TableDef> {
        let mut v: Vec<&TableDef> = self.tables.values().collect();
        v.sort_by_key(|t| t.qualified_name());
        v
    }

    // -- opaque types ---------------------------------------------------------

    /// Register an opaque UDT; returns its assigned type id.
    pub fn register_opaque_type(
        &mut self,
        name: &str,
        display: Option<DisplayHook>,
    ) -> DbResult<u32> {
        let key = name.to_ascii_lowercase();
        if self.types_by_name.contains_key(&key) {
            return Err(DbError::AlreadyExists { kind: "type", name: name.into() });
        }
        let id = self.next_type_id;
        self.next_type_id += 1;
        let def = OpaqueTypeDef { id, name: key.clone(), display };
        self.types_by_name.insert(key, def.clone());
        self.types_by_id.insert(id, def);
        Ok(id)
    }

    /// Look up an opaque type by name (how `CREATE TABLE` refers to it).
    pub fn opaque_type_by_name(&self, name: &str) -> Option<&OpaqueTypeDef> {
        self.types_by_name.get(&name.to_ascii_lowercase())
    }

    /// Look up an opaque type by id (how datums refer to it).
    pub fn opaque_type_by_id(&self, id: u32) -> Option<&OpaqueTypeDef> {
        self.types_by_id.get(&id)
    }

    /// Parse a column type name: builtin or registered opaque type.
    pub fn parse_type(&self, name: &str) -> DbResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Ok(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Ok(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Ok(DataType::Text),
            "BLOB" | "BYTEA" => Ok(DataType::Blob),
            _ => self
                .opaque_type_by_name(name)
                .map(|t| DataType::Opaque(t.id))
                .ok_or(DbError::NotFound { kind: "type", name: name.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<ColumnDef> {
        vec![
            ColumnDef { name: "id".into(), ty: DataType::Int, nullable: false },
            ColumnDef { name: "name".into(), ty: DataType::Text, nullable: true },
        ]
    }

    #[test]
    fn create_and_resolve_tables() {
        let mut c = Catalog::new();
        c.ensure_user_space("alice");
        c.create_table("public", "genes", cols()).unwrap();
        c.create_table("alice", "notes", cols()).unwrap();

        // Unqualified resolution prefers the user's space, falls back to public.
        assert_eq!(c.resolve_table("alice", "notes").unwrap().space, "alice");
        assert_eq!(c.resolve_table("alice", "genes").unwrap().space, "public");
        assert_eq!(c.resolve_table("alice", "public.genes").unwrap().space, "public");
        assert!(c.resolve_table("alice", "missing").is_err());
        assert_eq!(c.tables().len(), 2);
    }

    #[test]
    fn duplicate_and_invalid_tables_rejected() {
        let mut c = Catalog::new();
        c.create_table("public", "t", cols()).unwrap();
        assert!(matches!(
            c.create_table("public", "T", cols()),
            Err(DbError::AlreadyExists { .. })
        ));
        assert!(c.create_table("nosuch", "t2", cols()).is_err());
        assert!(c.create_table("public", "t3", vec![]).is_err());
        let dup = vec![
            ColumnDef { name: "a".into(), ty: DataType::Int, nullable: true },
            ColumnDef { name: "A".into(), ty: DataType::Int, nullable: true },
        ];
        assert!(c.create_table("public", "t4", dup).is_err());
    }

    #[test]
    fn access_control() {
        let mut c = Catalog::new();
        c.ensure_user_space("alice");
        c.create_space("shared", "alice").unwrap();
        assert!(c.can_write(&Role::Maintainer, "public"));
        assert!(!c.can_write(&Role::User("alice".into()), "public"));
        assert!(c.can_write(&Role::User("alice".into()), "alice"));
        assert!(c.can_write(&Role::User("alice".into()), "shared"));
        assert!(!c.can_write(&Role::User("bob".into()), "alice"));
    }

    #[test]
    fn opaque_type_registry() {
        let mut c = Catalog::new();
        let id = c
            .register_opaque_type("dna", Some(Arc::new(|b: &[u8]| format!("{} bytes", b.len()))))
            .unwrap();
        assert_eq!(c.opaque_type_by_name("DNA").unwrap().id, id);
        assert_eq!(c.opaque_type_by_id(id).unwrap().name, "dna");
        assert!(c.register_opaque_type("dna", None).is_err());
        assert_eq!(c.parse_type("dna").unwrap(), DataType::Opaque(id));
        assert_eq!(c.parse_type("INT").unwrap(), DataType::Int);
        assert!(c.parse_type("nonsense").is_err());
        let disp = c.opaque_type_by_id(id).unwrap().display.clone().unwrap();
        assert_eq!(disp(&[1, 2, 3]), "3 bytes");
    }

    #[test]
    fn table_column_lookup() {
        let mut c = Catalog::new();
        let t = c.create_table("public", "t", cols()).unwrap();
        assert_eq!(t.column_index("ID"), Some(0));
        assert_eq!(t.column_index("name"), Some(1));
        assert_eq!(t.column_index("zz"), None);
        assert_eq!(t.qualified_name(), "public.t");
    }

    #[test]
    fn drop_table() {
        let mut c = Catalog::new();
        c.create_table("public", "t", cols()).unwrap();
        assert!(c.drop_table("public", "t").is_ok());
        assert!(c.drop_table("public", "t").is_err());
    }

    #[test]
    fn ndv_sketch_exact_below_k_and_close_above() {
        let mut s = NdvSketch::default();
        for i in 0..100u64 {
            s.observe(crate::fxhash::hash_one(&i));
            s.observe(crate::fxhash::hash_one(&i)); // duplicates don't count
        }
        assert_eq!(s.estimate(), 100);

        let mut big = NdvSketch::default();
        for i in 0..100_000u64 {
            big.observe(crate::fxhash::hash_one(&i));
        }
        let est = big.estimate() as f64;
        assert!((est - 100_000.0).abs() / 100_000.0 < 0.25, "estimate {est} too far from 100000");
    }

    #[test]
    fn reservoir_and_fingerprint_are_deterministic() {
        let build = || {
            let mut c = Catalog::new();
            let id = c.create_table("public", "t", cols()).unwrap().id;
            for i in 0..2000i64 {
                let name =
                    if i % 5 == 0 { Datum::Null } else { Datum::Text(format!("g{}", i % 7)) };
                c.observe_row(id, &[Datum::Int(i), name]);
            }
            (c, id)
        };
        let (a, ia) = build();
        let (b, ib) = build();
        assert_ne!(a.stats_fingerprint(ia), 0);
        assert_eq!(a.stats_fingerprint(ia), b.stats_fingerprint(ib));
        assert_eq!(a.column_histogram(ia, 0), b.column_histogram(ib, 0));
        // Different history ⇒ different fingerprint.
        let (mut c, ic) = build();
        c.observe_row(ic, &[Datum::Int(9999), Datum::Null]);
        assert_ne!(a.stats_fingerprint(ia), c.stats_fingerprint(ic));
    }

    #[test]
    fn equi_depth_histogram_selectivity() {
        let mut c = Catalog::new();
        let id = c.create_table("public", "t", cols()).unwrap().id;
        for i in 0..200i64 {
            c.observe_row(id, &[Datum::Int(i), Datum::Null]);
        }
        let h = c.column_histogram(id, 0).unwrap();
        assert!(h.buckets().len() <= 16);
        assert!(h.buckets().windows(2).all(|w| w[0].total_cmp(&w[1]) != Ordering::Greater));
        // Below the minimum: nothing qualifies.
        assert_eq!(h.range_selectivity(Some((&Datum::Int(500), true)), None), 0.0);
        // Top ~10% of a uniform column.
        let sel = h.range_selectivity(Some((&Datum::Int(180), true)), None);
        assert!(sel > 0.02 && sel < 0.25, "selectivity {sel} not near 0.1");
        // Whole range.
        assert_eq!(h.range_selectivity(None, None), 1.0);
        // Exact match on a 200-distinct-values column is rare.
        assert!(h.eq_selectivity(&Datum::Int(42)) <= 0.05);
        // No histogram for the all-NULL column.
        assert!(c.column_histogram(id, 1).is_none());
        let nf = c.column_null_frac(id, 1).unwrap();
        assert!((nf - 1.0).abs() < f64::EPSILON);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The histogram a plan borrows is always the one `from_sample`
        /// builds from the column's current sample — through the sample
        /// filling up, reservoir replacements, NULLs, deletes and resets —
        /// and two reads with no write between them lend the same object.
        #[test]
        fn lent_histogram_tracks_the_sample(
            ops in proptest::collection::vec((0u8..8, 0i64..40), 1..600),
        ) {
            let mut c = Catalog::new();
            let id = c.create_table("public", "t", cols()).unwrap().id;
            for (op, v) in ops {
                match op {
                    0 => {
                        c.observe_delete(id);
                    }
                    1 if v < 2 => c.reset_stats(id),
                    _ => {
                        let name =
                            if v % 3 == 0 { Datum::Null } else { Datum::Text(format!("g{v}")) };
                        c.observe_row(id, &[Datum::Int(v), name]);
                    }
                }
                for col in 0..3 {
                    let sample = c.stats.get(&id).and_then(|s| s.columns.get(col));
                    let expected =
                        sample.and_then(|s| EquiDepthHistogram::from_sample(&s.sample.values));
                    let lent = c.column_histogram(id, col);
                    proptest::prop_assert_eq!(lent, expected.as_ref());
                    if let (Some(a), Some(b)) = (lent, c.column_histogram(id, col)) {
                        proptest::prop_assert!(std::ptr::eq(a, b));
                    }
                }
            }
        }
    }

    #[test]
    fn observe_delete_flags_heavy_churn() {
        let mut c = Catalog::new();
        let id = c.create_table("public", "t", cols()).unwrap().id;
        // No stats yet: deletes against an unobserved table never flag.
        assert!(!c.observe_delete(id));
        for i in 0..100i64 {
            c.observe_row(id, &[Datum::Int(i), Datum::Null]);
        }
        for n in 1..=100u64 {
            let flagged = c.observe_delete(id);
            assert_eq!(flagged, n >= 64, "delete #{n}");
            if flagged {
                break;
            }
        }
        // A reset clears the churn counters.
        c.reset_stats(id);
        assert!(!c.observe_delete(id));
    }

    #[test]
    fn table_stats_observe_and_lookup() {
        let mut c = Catalog::new();
        let id = c.create_table("public", "t", cols()).unwrap().id;
        assert_eq!(c.column_ndv(id, 0), None); // nothing observed yet
        for i in 0..10i64 {
            c.observe_row(id, &[Datum::Int(i % 3), Datum::Null]);
        }
        assert_eq!(c.column_ndv(id, 0), Some(3));
        assert_eq!(c.column_ndv(id, 1), None); // all-NULL column: no estimate
        assert_eq!(c.column_ndv(id, 9), None); // out-of-range column
        c.drop_table("public", "t").unwrap();
        assert_eq!(c.column_ndv(id, 0), None); // stats dropped with the table
    }
}
