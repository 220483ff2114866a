//! The row locator: how `UPDATE`, `DELETE` and WAL replay find the rows
//! they write.
//!
//! A DML statement's `WHERE` is planned by the planner's own `build_scan`
//! (through [`plan_table_scan`]) — the same `INDEX_WORTHWHILE` rule and the
//! same residual ordering a `SELECT` gets — and the chosen access path runs
//! against the statement's [`ReadView`], the same view its reads would run
//! against (every DML statement runs in a transaction, autocommit's being
//! one statement long). Beyond the executor's probes the locator uses the
//! view's rid-addressed fetch and full walk that say where each row lives:
//! every match comes back with its [`Prov`] *before* any row is written, so
//! an `UPDATE` that moves the key it is being located by never meets its own
//! output.

use crate::catalog::{Role, TableDef};
use crate::db::TableStorage;
use crate::error::{DbError, DbResult};
use crate::exec::StorageAccess;
use crate::expr::compile::compile;
use crate::expr::eval::ColumnBinding;
use crate::plan::planner::{plan_table_scan, PlannerContext};
use crate::plan::PhysicalPlan;
use crate::sql::ast::{Expr, Stmt};
use crate::storage::heap::Rid;
use crate::tuple::{decode_row, Row};
use crate::txn::ReadView;

/// Where a located row lives, i.e. what a write to it must target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Prov {
    /// A committed heap row (visible to the snapshot, if there is one);
    /// writes target its rid.
    Committed(Rid),
    /// A row the running transaction inserted, addressed by write-set
    /// position.
    OwnInsert(usize),
    /// A prior image: visible to the snapshot, but a concurrent
    /// transaction already committed over it. Writing it is a
    /// serialization conflict.
    Stale,
}

/// The bindings DML compiles its `WHERE` and `SET` expressions against.
pub(crate) fn table_bindings(def: &TableDef) -> Vec<ColumnBinding> {
    def.columns.iter().map(|c| ColumnBinding::new(&def.name, &c.name)).collect()
}

/// The access path for `filter` over `def`, with every name in the filter
/// resolved: an exact index path drops its conjunct from the residual, so
/// compiling the residual alone would let `WHERE nosuch.k = 1` through.
fn plan_access(
    src: &dyn PlannerContext,
    def: &TableDef,
    bindings: &[ColumnBinding],
    filter: Option<&Expr>,
) -> DbResult<PhysicalPlan> {
    if let Some(whole) = filter {
        compile(whole, bindings, src.funcs())?;
    }
    Ok(plan_table_scan(src, def, bindings, filter))
}

/// The rows of `def` that pass `filter`, each with where it lives.
pub(crate) fn locate_rows(
    src: &ReadView,
    def: &TableDef,
    bindings: &[ColumnBinding],
    filter: Option<&Expr>,
) -> DbResult<Vec<(Prov, Row)>> {
    let funcs = src.funcs();
    let plan = plan_access(src, def, bindings, filter)?;
    let (rids, residual) = match &plan {
        PhysicalPlan::SeqScan { residual, .. } => (None, residual),
        PhysicalPlan::IndexScan { column, probe, residual, .. } => {
            (Some(src.index_probe(def.id, column, probe)?), residual)
        }
        other => return Err(DbError::Internal(format!("{} is not a scan", other.node_label()))),
    };
    let residual = residual.as_ref().map(|r| compile(r, bindings, funcs)).transpose()?;
    let mut out = Vec::new();
    let mut keep = |prov: Prov, row: Row| -> DbResult<()> {
        if residual.as_ref().map_or(Ok(true), |pred| pred.accepts(&row))? {
            out.push((prov, row));
        }
        Ok(())
    };
    match rids {
        Some(rids) => {
            for (prov, row) in src.rows_at(def.id, &rids)? {
                keep(prov, row)?;
            }
        }
        None => src.for_each_row(def.id, &mut keep)?,
    }
    Ok(out)
}

/// `EXPLAIN UPDATE` / `EXPLAIN DELETE`: the target table over the access
/// path [`locate_rows`] takes. `None` for any other statement.
pub(crate) fn explain_dml(
    src: &dyn PlannerContext,
    stmt: &Stmt,
    role: &Role,
) -> DbResult<Option<String>> {
    let (verb, table, filter) = match stmt {
        Stmt::Update { table, filter, .. } => ("Update", table, filter),
        Stmt::Delete { table, filter } => ("Delete", table, filter),
        _ => return Ok(None),
    };
    let def = src.catalog().resolve_table(role.default_space(), table)?;
    let plan = plan_access(src, def, &table_bindings(def), filter.as_ref())?;
    Ok(Some(format!("{verb} {}\n  {}\n", def.qualified_name(), plan.node_label())))
}

impl TableStorage {
    /// Visit every live heap row, decoded, in rid order.
    pub(crate) fn for_each_row(
        &self,
        visit: &mut dyn FnMut(Rid, Row) -> DbResult<()>,
    ) -> DbResult<()> {
        for page_no in 0..self.heap.num_pages() {
            self.heap
                .page_visit_rows_rid(page_no, &mut |rid, bytes| visit(rid, decode_row(bytes)?))?;
        }
        Ok(())
    }

    /// Every live row of one heap page, decoded, in slot order.
    pub(crate) fn page_rows(&self, page_no: u32) -> DbResult<Vec<Row>> {
        let mut rows = Vec::new();
        self.heap.page_visit_rows_rid(page_no, &mut |_, bytes| {
            rows.push(decode_row(bytes)?);
            Ok(())
        })?;
        Ok(rows)
    }

    /// The row at `rid`, decoded; `None` if nothing lives there.
    pub(crate) fn fetch_row(&self, rid: Rid) -> DbResult<Option<Row>> {
        self.heap.get(rid)?.map(|bytes| decode_row(&bytes)).transpose()
    }

    /// The lowest rid holding exactly `row` — the target of a replayed
    /// `Update`/`Delete` record, which logs the row image, not its rid.
    /// Any B-tree, a unique one first, narrows the search to the rows
    /// sharing one key with the image (every full match is filed under that
    /// key in every B-tree, so which one is probed changes only how many
    /// candidates are compared); a table without one is walked. Taking the
    /// lowest rid keeps replay deterministic on tables with duplicate rows.
    pub(crate) fn find_row(&self, row: &Row) -> DbResult<Option<Rid>> {
        let btrees = self.indexes.iter().filter_map(|i| Some((i.pos, i.btree()?)));
        if let Some((pos, index)) = btrees.max_by_key(|(_, tree)| tree.is_unique()) {
            let mut rids = index.get(&row[pos]);
            rids.sort_unstable();
            for rid in rids {
                if self.fetch_row(rid)?.as_ref() == Some(row) {
                    return Ok(Some(rid));
                }
            }
            return Ok(None);
        }
        let mut found = None;
        for page_no in 0..self.heap.num_pages() {
            self.heap.page_visit_rows_rid(page_no, &mut |rid, bytes| {
                if found.is_none() && decode_row(bytes)? == *row {
                    found = Some(rid);
                }
                Ok(())
            })?;
            if found.is_some() {
                break;
            }
        }
        Ok(found)
    }
}
