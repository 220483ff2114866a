//! Index structures: built-in B+-trees plus the user-defined index
//! mechanism (§6.5) that lets the adapter plug genomic indexes into plans.
//!
//! Both live behind one entry type, `TableIndex`, in one collection per
//! table: `CREATE INDEX` makes either kind through `new_index` and fills it
//! with one `TableIndex::build` call, every row mutation maintains the
//! table's indexes in one walk, and the WAL and the snapshot log either as
//! one `CreateIndex { table, column, kind, params }` record — so recovery
//! rebuilds domain indexes exactly as it rebuilds B-trees. Reads ask
//! through one [`Probe`]: `TableStorage::index_probe` finds the index on the
//! column that serves it, and this module alone knows which kind serves
//! which probe.

pub mod btree;
pub mod udi;

pub use btree::BTreeIndex;
pub use udi::AccessMethod;

use crate::datum::{DataType, Datum};
use crate::db::TableStorage;
use crate::error::{DbError, DbResult};
use crate::expr::func::FunctionRegistry;
use crate::plan::Probe;
use crate::storage::heap::Rid;

/// The built-in index kind: `CREATE [UNIQUE] INDEX ON t (c)`.
pub const BTREE: &str = "btree";

/// An index's `WITH (name = literal, …)` parameters, names lower-cased.
pub type IndexParams = Vec<(String, Datum)>;

/// One index of a table: the column it covers, the kind and parameters it
/// was declared with (what the WAL logs), and the structure itself.
pub(crate) struct TableIndex {
    pub(crate) column: String,
    /// Position of `column` in the table's rows.
    pub(crate) pos: usize,
    pub(crate) kind: String,
    pub(crate) params: IndexParams,
    pub(crate) structure: Structure,
}

pub(crate) enum Structure {
    BTree(BTreeIndex),
    Domain(Box<dyn AccessMethod>),
}

/// An empty index of `kind` over the column at `pos`, of type `ty`.
/// `btree` is built in (parameter `unique`); any other kind must be
/// registered in `funcs` and accept the parameters and the column type.
pub(crate) fn new_index(
    funcs: &FunctionRegistry,
    column: String,
    pos: usize,
    ty: DataType,
    kind: &str,
    params: IndexParams,
) -> DbResult<TableIndex> {
    let kind = kind.to_ascii_lowercase();
    let (structure, params) = if kind == BTREE {
        let unique = match params.as_slice() {
            [] => false,
            [(name, Datum::Bool(unique))] if name == "unique" => *unique,
            _ => {
                return Err(DbError::Constraint(format!(
                    "index kind btree takes one parameter, unique = TRUE | FALSE; got {params:?}"
                )))
            }
        };
        let canonical = vec![("unique".to_string(), Datum::Bool(unique))];
        (Structure::BTree(BTreeIndex::new(unique)), canonical)
    } else {
        let make = funcs
            .index_kind(&kind)
            .ok_or_else(|| DbError::NotFound { kind: "index kind", name: kind.clone() })?;
        let method = make(&params)?;
        if !method.indexes(ty) {
            return Err(DbError::TypeMismatch(format!(
                "index kind {kind} cannot index column {column} of type {ty}"
            )));
        }
        (Structure::Domain(method), params)
    };
    Ok(TableIndex { column, pos, kind, params, structure })
}

impl TableIndex {
    /// Fill the empty index from the column's existing values, `(rid,
    /// value)` in ascending rid order — the one way an index is built, when
    /// it is created and when recovery replays its creation.
    pub(crate) fn build(&mut self, rows: Vec<(Rid, Datum)>) -> DbResult<()> {
        match &mut self.structure {
            Structure::BTree(tree) => {
                rows.into_iter().try_for_each(|(rid, key)| tree.insert(key, rid))
            }
            Structure::Domain(method) => {
                method.build(&rows);
                Ok(())
            }
        }
    }

    /// File `row`, stored at `rid`.
    pub(crate) fn insert(&mut self, rid: Rid, row: &[Datum]) -> DbResult<()> {
        let value = &row[self.pos];
        match &mut self.structure {
            Structure::BTree(tree) => tree.insert(value.clone(), rid),
            Structure::Domain(method) => {
                method.on_insert(rid, value);
                Ok(())
            }
        }
    }

    /// Forget `row`, stored at `rid`.
    pub(crate) fn remove(&mut self, rid: Rid, row: &[Datum]) {
        let value = &row[self.pos];
        match &mut self.structure {
            Structure::BTree(tree) => {
                tree.remove(value, rid);
            }
            Structure::Domain(method) => method.on_delete(rid, value),
        }
    }

    /// The rids this index answers `probe` with — the rows of the latest
    /// heap it files under the probe — or `None` when it cannot serve it:
    /// a B-tree serves equality and ranges, a domain index the calls its
    /// access method answers.
    fn answer(&self, probe: &Probe) -> Option<Vec<Rid>> {
        match (&self.structure, probe) {
            (Structure::BTree(tree), Probe::Eq(key)) => Some(tree.get(key)),
            (Structure::BTree(tree), Probe::Range { lo, hi }) => {
                Some(tree.range(lo.as_ref(), hi.as_ref()).into_iter().map(|(_, rid)| rid).collect())
            }
            (Structure::Domain(method), Probe::Call { func, args }) if method.supports(func) => {
                method.probe(func, args)
            }
            _ => None,
        }
    }

    /// The B-tree, if this is one.
    pub(crate) fn btree(&self) -> Option<&BTreeIndex> {
        match &self.structure {
            Structure::BTree(tree) => Some(tree),
            Structure::Domain(_) => None,
        }
    }

    /// The B-tree, if this is a unique one.
    pub(crate) fn unique_btree(&self) -> Option<&BTreeIndex> {
        self.btree().filter(|tree| tree.is_unique())
    }

    /// The access method, if this is a domain index that can answer `func`.
    pub(crate) fn domain_for(&self, func: &str) -> Option<&dyn AccessMethod> {
        match &self.structure {
            Structure::Domain(method) if method.supports(func) => Some(method.as_ref()),
            _ => None,
        }
    }
}

/// The one collection of a table's indexes, looked up by what a caller
/// needs of it.
impl TableStorage {
    /// The B-tree on `column`, if it has one.
    pub(crate) fn btree(&self, column: &str) -> Option<&BTreeIndex> {
        self.indexes.iter().filter(|i| i.column == column).find_map(TableIndex::btree)
    }

    /// The first domain index on `column` that can answer `func`.
    pub(crate) fn domain_index(&self, column: &str, func: &str) -> Option<&dyn AccessMethod> {
        self.indexes.iter().filter(|i| i.column == column).find_map(|i| i.domain_for(func))
    }

    /// The candidates of `probe` from the first index on `column` that
    /// serves it.
    pub(crate) fn index_probe(&self, column: &str, probe: &Probe) -> DbResult<Vec<Rid>> {
        let mut on_column = self.indexes.iter().filter(|i| i.column == column);
        on_column.find_map(|i| i.answer(probe)).ok_or_else(|| {
            DbError::Internal(format!("no index on {column} serves the probe {probe:?}"))
        })
    }

    /// Every unique B-tree, with its entry.
    pub(crate) fn unique_btrees(&self) -> impl Iterator<Item = (&TableIndex, &BTreeIndex)> {
        self.indexes.iter().filter_map(|i| Some((i, i.unique_btree()?)))
    }
}
