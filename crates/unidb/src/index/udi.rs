//! User-defined index access methods (§6.5).
//!
//! "As we add the ability to store genomic data, a need arises for indexing
//! these data by using domain-specific indexing techniques. The DBMS must
//! then offer a mechanism to integrate these user-defined index
//! structures." This trait is that mechanism. A domain index is an index
//! like a B-tree: its kind is registered by name
//! ([`crate::Database::register_index_kind`]), `CREATE INDEX ON t USING
//! kind (c) WITH (…)` makes one, and the engine catalogues it, logs it in
//! the WAL and the snapshot, and rebuilds it on recovery. The method is
//! built in bulk from the indexed column's existing rows, when it is
//! created and when recovery replays its creation, maintains itself on
//! every insert/delete of the column after that, and may volunteer to
//! answer a *function predicate* (e.g. `contains(seq, pattern)`) with a
//! candidate rid list plus a selectivity estimate for the optimizer — on a
//! table a transaction has written as well as on a clean one.
//!
//! The contract is filter-semantics: a probe may return false positives
//! (the executor re-checks the predicate on each candidate row) but must
//! never miss a true match. The rids describe the latest heap; the engine
//! checks each against the reader's snapshot and adds what the snapshot
//! sees elsewhere.

use crate::datum::{DataType, Datum};
use crate::storage::heap::Rid;

/// A pluggable domain index over one column of one table.
///
/// `Send + Sync` because registered methods live inside the database and are
/// probed under the shared read lock by concurrent sessions.
pub trait AccessMethod: Send + Sync {
    /// Name for EXPLAIN output and diagnostics.
    fn name(&self) -> &str;

    /// Can this method index a column declared with type `ty`? Asked once,
    /// when the index is created; a method that answers no is refused.
    fn indexes(&self, ty: DataType) -> bool {
        let _ = ty;
        true
    }

    /// Fill the index from the indexed column's existing rows, `(rid,
    /// value)` in ascending rid order. Called once, on a method that holds
    /// nothing yet; it is the one way an index is built, on `CREATE INDEX`
    /// and on its replay. The default inserts the rows one at a time; a
    /// method that can build in bulk overrides it.
    fn build(&mut self, rows: &[(Rid, Datum)]) {
        for (rid, value) in rows {
            self.on_insert(*rid, value);
        }
    }

    /// Maintain the index on insert of a row (called with the indexed
    /// column's value).
    fn on_insert(&mut self, rid: Rid, value: &Datum);

    /// Maintain the index on delete of a row. An update is a delete of the
    /// old value and an insert of the new one, or nothing at all when the
    /// row keeps its rid and its indexed value.
    fn on_delete(&mut self, rid: Rid, value: &Datum);

    /// Can this method answer probes for the named function predicate?
    /// Consulted by the planner before committing to a UDI scan.
    fn supports(&self, func: &str) -> bool;

    /// Offer candidates for `func(indexed_column, args...)`. `args` holds
    /// the non-column arguments. Return `None` if this method cannot help
    /// with the predicate (the planner falls back to a scan).
    fn probe(&self, func: &str, args: &[Datum]) -> Option<Vec<Rid>>;

    /// Estimated fraction of rows satisfying the predicate, if estimable.
    /// Feeds the optimizer's cost model (§6.5).
    fn selectivity(&self, func: &str, args: &[Datum]) -> Option<f64> {
        let _ = (func, args);
        None
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::collections::HashMap;

    /// A toy access method indexing text values by their first byte —
    /// answers `starts_with(col, prefix)` probes. Used by planner tests.
    #[derive(Default)]
    pub struct FirstByteIndex {
        by_first: HashMap<u8, Vec<Rid>>,
    }

    impl AccessMethod for FirstByteIndex {
        fn name(&self) -> &str {
            "first_byte"
        }

        fn on_insert(&mut self, rid: Rid, value: &Datum) {
            if let Some(text) = value.as_text() {
                if let Some(&b) = text.as_bytes().first() {
                    self.by_first.entry(b).or_default().push(rid);
                }
            }
        }

        fn on_delete(&mut self, rid: Rid, value: &Datum) {
            if let Some(text) = value.as_text() {
                if let Some(&b) = text.as_bytes().first() {
                    if let Some(v) = self.by_first.get_mut(&b) {
                        v.retain(|r| *r != rid);
                    }
                }
            }
        }

        fn supports(&self, func: &str) -> bool {
            func == "starts_with"
        }

        fn probe(&self, func: &str, args: &[Datum]) -> Option<Vec<Rid>> {
            if func != "starts_with" {
                return None;
            }
            let prefix = args.first()?.as_text()?;
            let first = *prefix.as_bytes().first()?;
            Some(self.by_first.get(&first).cloned().unwrap_or_default())
        }

        fn selectivity(&self, func: &str, args: &[Datum]) -> Option<f64> {
            let hits = self.probe(func, args)?.len();
            let total: usize = self.by_first.values().map(Vec::len).sum();
            Some(if total == 0 { 0.0 } else { hits as f64 / total as f64 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::FirstByteIndex;
    use super::*;

    fn rid(n: u32) -> Rid {
        Rid { page: n, slot: 0 }
    }

    #[test]
    fn maintains_and_probes() {
        let mut idx = FirstByteIndex::default();
        idx.on_insert(rid(1), &Datum::Text("apple".into()));
        idx.on_insert(rid(2), &Datum::Text("avocado".into()));
        idx.on_insert(rid(3), &Datum::Text("banana".into()));
        idx.on_insert(rid(4), &Datum::Int(7)); // non-text ignored

        let hits = idx.probe("starts_with", &[Datum::Text("apri".into())]).unwrap();
        assert_eq!(hits, vec![rid(1), rid(2)]);
        assert!(idx.probe("contains", &[Datum::Text("x".into())]).is_none());
        let sel = idx.selectivity("starts_with", &[Datum::Text("a".into())]).unwrap();
        assert!((sel - 2.0 / 3.0).abs() < 1e-12);

        idx.on_delete(rid(1), &Datum::Text("apple".into()));
        let hits = idx.probe("starts_with", &[Datum::Text("a".into())]).unwrap();
        assert_eq!(hits, vec![rid(2)]);
        assert_eq!(idx.name(), "first_byte");
    }
}
