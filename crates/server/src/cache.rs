//! The statement cache: one LRU entry per statement, holding its prepared
//! plan and, while it is valid, its result.
//!
//! Entries key on the statement's rendered tokens ([`unidb::sql::render`]:
//! words case-folded, whitespace and comments gone, literals kept with
//! their type) plus the session's default space, so `SELECT * FROM t` and
//! `select  *  from t -- again` share an entry, `k = 1` and `k = '1'` do
//! not, and the same text from sessions resolving different spaces does
//! not either.
//!
//! Invalidation is generation-based, piggybacking on counters the engine
//! already maintains:
//!
//! * an entry's **plan** is valid while the catalog generation it was built
//!   under is current — any DDL bumps it and the whole entry is dropped on
//!   next use;
//! * its **result** is valid while every base table the plan reads still
//!   has the version counter observed *before* execution — any DML on one
//!   of those tables drops the result and keeps the plan. Snapshotting
//!   versions before execution errs toward spurious misses, never stale
//!   hits.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use unidb::sql::{lex, render};
use unidb::{Datum, Prepared, ResultSet};

/// Statements the cache holds before it evicts the least recently used.
pub(crate) const CACHE_CAPACITY: usize = 256;

/// A statement's cache key text: its rendered tokens, or the text itself
/// when it does not lex.
pub fn normalize_sql(text: &str) -> String {
    lex(text).map_or_else(|_| text.to_string(), |tokens| render(&tokens).0)
}

/// Cache key: rendered statement + the space unqualified names resolve
/// under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StatementKey {
    pub normalized_sql: String,
    pub space: String,
}

/// A small LRU map: capacity-bounded, least-recently-*used* eviction via a
/// logical clock.
struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    capacity: usize,
    clock: u64,
}

impl<K: Eq + std::hash::Hash + Clone, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru { map: HashMap::new(), capacity: capacity.max(1), clock: 0 }
    }

    fn get(&mut self, k: &K) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(k).map(|(v, used)| {
            *used = clock;
            v
        })
    }

    fn insert(&mut self, k: K, v: V) {
        if !self.map.contains_key(&k) && self.map.len() >= self.capacity {
            if let Some(victim) =
                self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.clock += 1;
        self.map.insert(k, (v, self.clock));
    }
}

/// One statement's cached state.
struct Entry {
    plan: Arc<Prepared>,
    result: Option<CachedResult>,
}

/// A result and the versions of the plan's tables it was computed at.
struct CachedResult {
    rows: Arc<ResultSet>,
    versions: Vec<u64>,
    bytes: usize,
}

/// What one probe found.
pub(crate) enum Lookup {
    /// A result whose tables are all unchanged.
    Result(Arc<ResultSet>),
    /// A plan still valid for the catalog; its result is missing or stale.
    Plan(Arc<Prepared>),
    Miss,
}

/// The plan-and-result cache.
pub(crate) struct StatementCache {
    entries: Mutex<Lru<StatementKey, Entry>>,
}

impl StatementCache {
    pub(crate) fn new(capacity: usize) -> Self {
        StatementCache { entries: Mutex::new(Lru::new(capacity)) }
    }

    /// Probe `key` once under one lock. An entry planned under another
    /// catalog generation is dropped; a result whose tables moved on is
    /// dropped and its plan returned. `current_versions` receives the
    /// plan's table ids and returns their versions now.
    pub(crate) fn lookup(
        &self,
        key: &StatementKey,
        catalog_gen: u64,
        current_versions: impl FnOnce(&[u32]) -> Vec<u64>,
    ) -> Lookup {
        let mut entries = self.entries.lock();
        let Some(entry) = entries.get(key) else { return Lookup::Miss };
        if entry.plan.catalog_generation() != catalog_gen {
            entries.map.remove(key);
            return Lookup::Miss;
        }
        if let Some(cached) = &entry.result {
            // Versions are compared inside the cache lock, so a concurrent
            // fill cannot swap the entry underneath us.
            if current_versions(entry.plan.table_ids()) == cached.versions {
                return Lookup::Result(Arc::clone(&cached.rows));
            }
            entry.result = None;
        }
        Lookup::Plan(Arc::clone(&entry.plan))
    }

    /// Store `plan` under `key`, with the result it produced from tables at
    /// `versions` (snapshotted before execution), if it produced one.
    pub(crate) fn store(
        &self,
        key: StatementKey,
        plan: Arc<Prepared>,
        result: Option<(Arc<ResultSet>, Vec<u64>)>,
    ) {
        let result = result.map(|(rows, versions)| CachedResult {
            bytes: approx_result_bytes(&rows) + versions.len() * std::mem::size_of::<u64>(),
            rows,
            versions,
        });
        self.entries.lock().insert(key, Entry { plan, result });
    }

    /// `(entries, entries holding a result, plan bytes, result bytes)`;
    /// plan bytes include the keys.
    pub(crate) fn sizes(&self) -> (usize, usize, usize, usize) {
        let entries = self.entries.lock();
        let mut sizes = (entries.map.len(), 0, 0, 0);
        for (key, (entry, _)) in &entries.map {
            sizes.2 += key.normalized_sql.len() + key.space.len() + entry.plan.approx_bytes();
            if let Some(result) = &entry.result {
                sizes.1 += 1;
                sizes.3 += result.bytes;
            }
        }
        sizes
    }
}

/// Approximate heap footprint of a result set: per-row/per-cell overhead
/// plus the variable payload of text and blob datums.
fn approx_result_bytes(rs: &ResultSet) -> usize {
    let cell_overhead = std::mem::size_of::<Datum>();
    let mut bytes = rs.columns.iter().map(|c| c.len()).sum::<usize>();
    for row in &rs.rows {
        bytes += row.len() * cell_overhead;
        for cell in row {
            bytes += match cell {
                Datum::Text(s) => s.len(),
                Datum::Blob(b) => b.len(),
                Datum::Opaque(_, b) => b.len(),
                _ => 0,
            };
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidb::{Database, Role};

    #[test]
    fn normalization_folds_case_and_space() {
        assert_eq!(
            normalize_sql("SELECT  *\n FROM   T  WHERE name = 'MiXeD Case';"),
            "select * from t where name = 'MiXeD Case'"
        );
        assert_eq!(normalize_sql("select 1"), normalize_sql("  SELECT    1 ; -- it's one"));
        assert_ne!(normalize_sql("select 1"), normalize_sql("select 1.0"));
        // Text that does not lex is its own key.
        assert_eq!(normalize_sql("SELECT 'oops"), "SELECT 'oops");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1).copied(), Some(10)); // 2 becomes LRU
        lru.insert(3, 30);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1).copied(), Some(10));
        assert_eq!(lru.get(&3).copied(), Some(30));
        // Re-inserting a live key replaces it without evicting.
        lru.insert(1, 11);
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.get(&1).copied(), Some(11));
    }

    #[test]
    fn result_cache_invalidated_by_table_version() {
        let db = Database::in_memory();
        db.execute_as("CREATE TABLE t (x INT)", &Role::Maintainer).unwrap();
        let plan = Arc::new(db.prepare_as("SELECT x FROM t", &Role::Maintainer).unwrap());
        let gen = plan.catalog_generation();
        let cache = StatementCache::new(4);
        let key = StatementKey { normalized_sql: "select x from t".into(), space: "public".into() };
        let rs = Arc::new(ResultSet {
            columns: vec!["x".into()],
            rows: vec![],
            affected: 0,
            explain: None,
        });
        assert!(matches!(cache.lookup(&key, gen, |_| vec![3]), Lookup::Miss));
        cache.store(key.clone(), Arc::clone(&plan), Some((Arc::clone(&rs), vec![3])));
        // Same versions: a result hit, probed with the plan's table ids.
        let probe = cache.lookup(&key, gen, |ids| {
            assert_eq!(ids, plan.table_ids());
            vec![3]
        });
        assert!(matches!(probe, Lookup::Result(_)));
        // Bumped table version: the result goes, the plan stays.
        assert!(matches!(cache.lookup(&key, gen, |_| vec![4]), Lookup::Plan(_)));
        let (entries, results, plan_bytes, result_bytes) = cache.sizes();
        assert_eq!((entries, results, result_bytes), (1, 0, 0));
        assert!(plan_bytes > 0);
        // Catalog generation moved: the whole entry goes.
        cache.store(key.clone(), plan, Some((rs, vec![3])));
        assert!(matches!(cache.lookup(&key, gen + 1, |_| vec![3]), Lookup::Miss));
        assert_eq!(cache.sizes(), (0, 0, 0, 0));
    }
}
