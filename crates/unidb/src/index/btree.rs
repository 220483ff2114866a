//! An arena-based B+-tree mapping datum keys to record ids.
//!
//! * Non-unique by default: each key holds a posting list of rids; a
//!   unique index rejects a second rid for an existing key.
//! * Leaves are chained for range scans.
//! * Deletion is lazy (no rebalancing): emptied entries are removed from
//!   their leaf but underflowing leaves are tolerated. Lookups remain
//!   correct; space is reclaimed when the key is reinserted.

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use crate::storage::heap::Rid;
use std::ops::Bound;

/// Maximum keys per node before a split.
const MAX_KEYS: usize = 32;

#[derive(Debug)]
enum Node {
    Internal { keys: Vec<Datum>, children: Vec<u32> },
    Leaf { keys: Vec<Datum>, postings: Vec<Vec<Rid>>, next: Option<u32> },
}

/// A B+-tree secondary index.
#[derive(Debug)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: u32,
    entries: usize,
    /// Keys with a non-empty posting list, kept by `insert_rec` and `remove`.
    distinct: usize,
    unique: bool,
}

impl BTreeIndex {
    /// An empty index. A unique index rejects duplicate keys.
    pub fn new(unique: bool) -> Self {
        BTreeIndex {
            nodes: vec![Node::Leaf { keys: Vec::new(), postings: Vec::new(), next: None }],
            root: 0,
            entries: 0,
            distinct: 0,
            unique,
        }
    }

    /// Number of (key, rid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Whether this index enforces key uniqueness.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Insert an entry.
    pub fn insert(&mut self, key: Datum, rid: Rid) -> DbResult<()> {
        if self.unique && !self.get(&key).is_empty() {
            return Err(DbError::Constraint(format!("duplicate key {key} in unique index")));
        }
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid)? {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            self.nodes.push(Node::Internal { keys: vec![sep], children: vec![old_root, right] });
            self.root = self.nodes.len() as u32 - 1;
        }
        self.entries += 1;
        Ok(())
    }

    /// Remove one (key, rid) entry; returns whether it existed.
    pub fn remove(&mut self, key: &Datum, rid: Rid) -> bool {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &mut self.nodes[leaf as usize] else {
            unreachable!("find_leaf returns leaves")
        };
        let Ok(pos) = keys.binary_search(key) else { return false };
        let list = &mut postings[pos];
        let Some(at) = list.iter().position(|r| *r == rid) else { return false };
        list.swap_remove(at);
        if list.is_empty() {
            keys.remove(pos);
            postings.remove(pos);
            self.distinct -= 1;
        }
        self.entries -= 1;
        true
    }

    /// The rids stored under `key`.
    pub fn get(&self, key: &Datum) -> Vec<Rid> {
        let leaf = self.find_leaf(key);
        let Node::Leaf { keys, postings, .. } = &self.nodes[leaf as usize] else {
            unreachable!("find_leaf returns leaves")
        };
        match keys.binary_search(key) {
            Ok(pos) => postings[pos].clone(),
            Err(_) => Vec::new(),
        }
    }

    /// Range scan over `(lo, hi)` bounds, ascending by key.
    pub fn range(&self, lo: Bound<&Datum>, hi: Bound<&Datum>) -> Vec<(Datum, Rid)> {
        let mut out = Vec::new();
        // Find the starting leaf.
        let mut leaf = match lo {
            Bound::Included(k) | Bound::Excluded(k) => self.find_leaf(k),
            Bound::Unbounded => self.leftmost_leaf(),
        };
        loop {
            let Node::Leaf { keys, postings, next } = &self.nodes[leaf as usize] else {
                unreachable!("leaf chain only contains leaves")
            };
            for (k, list) in keys.iter().zip(postings) {
                let after_lo = match lo {
                    Bound::Included(b) => k >= b,
                    Bound::Excluded(b) => k > b,
                    Bound::Unbounded => true,
                };
                if !after_lo {
                    continue;
                }
                let before_hi = match hi {
                    Bound::Included(b) => k <= b,
                    Bound::Excluded(b) => k < b,
                    Bound::Unbounded => true,
                };
                if !before_hi {
                    return out;
                }
                for rid in list {
                    out.push((k.clone(), *rid));
                }
            }
            match next {
                Some(n) => leaf = *n,
                None => return out,
            }
        }
    }

    /// All entries in key order.
    pub fn iter_all(&self) -> Vec<(Datum, Rid)> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Number of distinct keys (used for selectivity estimation).
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Height of the tree (1 = just a root leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { .. } => return h,
                Node::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    // -- internals -----------------------------------------------------------

    fn find_leaf(&self, key: &Datum) -> u32 {
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { .. } => return node,
                Node::Internal { keys, children } => {
                    // children[i] covers keys < keys[i]; the last child
                    // covers the rest.
                    let idx = keys.partition_point(|k| k <= key);
                    node = children[idx];
                }
            }
        }
    }

    fn leftmost_leaf(&self) -> u32 {
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                Node::Leaf { .. } => return node,
                Node::Internal { children, .. } => node = children[0],
            }
        }
    }

    /// Recursive insert; returns `Some((separator, new_right_node))` when
    /// the child split.
    fn insert_rec(&mut self, node: u32, key: Datum, rid: Rid) -> DbResult<Option<(Datum, u32)>> {
        // Decide the path with a short immutable borrow so recursion can
        // re-borrow the arena.
        let descend = match &self.nodes[node as usize] {
            Node::Leaf { .. } => None,
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|k| k <= &key);
                Some((idx, children[idx]))
            }
        };
        match descend {
            None => {
                let Node::Leaf { keys, postings, .. } = &mut self.nodes[node as usize] else {
                    unreachable!("checked above")
                };
                let needs_split = match keys.binary_search(&key) {
                    Ok(pos) => {
                        postings[pos].push(rid);
                        false
                    }
                    Err(pos) => {
                        keys.insert(pos, key);
                        postings.insert(pos, vec![rid]);
                        self.distinct += 1;
                        keys.len() > MAX_KEYS
                    }
                };
                Ok(needs_split.then(|| self.split_leaf(node)))
            }
            Some((idx, child)) => {
                if let Some((sep, right)) = self.insert_rec(child, key, rid)? {
                    let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
                        unreachable!("node kind is stable")
                    };
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > MAX_KEYS {
                        return Ok(Some(self.split_internal(node)));
                    }
                }
                Ok(None)
            }
        }
    }

    fn split_leaf(&mut self, node: u32) -> (Datum, u32) {
        let new_idx = self.nodes.len() as u32;
        let Node::Leaf { keys, postings, next } = &mut self.nodes[node as usize] else {
            unreachable!("split_leaf called on a leaf")
        };
        let mid = keys.len() / 2;
        let right_keys = keys.split_off(mid);
        let right_postings = postings.split_off(mid);
        let right_next = next.take();
        *next = Some(new_idx);
        let sep = right_keys[0].clone();
        self.nodes.push(Node::Leaf {
            keys: right_keys,
            postings: right_postings,
            next: right_next,
        });
        (sep, new_idx)
    }

    fn split_internal(&mut self, node: u32) -> (Datum, u32) {
        let new_idx = self.nodes.len() as u32;
        let Node::Internal { keys, children } = &mut self.nodes[node as usize] else {
            unreachable!("split_internal called on an internal node")
        };
        let mid = keys.len() / 2;
        // The middle key moves up; right node takes keys after it.
        let right_keys = keys.split_off(mid + 1);
        let sep = keys.pop().expect("mid < len");
        let right_children = children.split_off(mid + 1);
        self.nodes.push(Node::Internal { keys: right_keys, children: right_children });
        (sep, new_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u32) -> Rid {
        Rid { page: n, slot: 0 }
    }

    #[test]
    fn insert_and_get() {
        let mut idx = BTreeIndex::new(false);
        idx.insert(Datum::Int(5), rid(1)).unwrap();
        idx.insert(Datum::Int(3), rid(2)).unwrap();
        idx.insert(Datum::Int(5), rid(3)).unwrap();
        assert_eq!(idx.get(&Datum::Int(5)), vec![rid(1), rid(3)]);
        assert_eq!(idx.get(&Datum::Int(3)), vec![rid(2)]);
        assert!(idx.get(&Datum::Int(9)).is_empty());
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let mut idx = BTreeIndex::new(true);
        idx.insert(Datum::Text("a".into()), rid(1)).unwrap();
        assert!(idx.insert(Datum::Text("a".into()), rid(2)).is_err());
        assert!(idx.is_unique());
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let mut idx = BTreeIndex::new(false);
        // Insert in a scrambled order.
        let n = 2000i64;
        let mut keys: Vec<i64> = (0..n).collect();
        // Deterministic shuffle.
        for i in 0..keys.len() {
            let j = (i * 7919) % keys.len();
            keys.swap(i, j);
        }
        for &k in &keys {
            idx.insert(Datum::Int(k), rid(k as u32)).unwrap();
        }
        assert_eq!(idx.len(), n as usize);
        assert!(idx.height() > 1, "tree should have split");
        let all = idx.iter_all();
        assert_eq!(all.len(), n as usize);
        for (i, (k, r)) in all.iter().enumerate() {
            assert_eq!(*k, Datum::Int(i as i64));
            assert_eq!(*r, rid(i as u32));
        }
        // Point lookups all work.
        for k in [0, 1, 999, 1999] {
            assert_eq!(idx.get(&Datum::Int(k)), vec![rid(k as u32)]);
        }
        assert_eq!(idx.distinct_keys(), n as usize);
    }

    #[test]
    fn range_scans() {
        let mut idx = BTreeIndex::new(false);
        for k in 0..100i64 {
            idx.insert(Datum::Int(k), rid(k as u32)).unwrap();
        }
        let lo = Datum::Int(10);
        let hi = Datum::Int(20);
        let inclusive = idx.range(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(inclusive.len(), 11);
        assert_eq!(inclusive[0].0, Datum::Int(10));
        assert_eq!(inclusive[10].0, Datum::Int(20));
        let exclusive = idx.range(Bound::Excluded(&lo), Bound::Excluded(&hi));
        assert_eq!(exclusive.len(), 9);
        let from = idx.range(Bound::Included(&Datum::Int(95)), Bound::Unbounded);
        assert_eq!(from.len(), 5);
        let upto = idx.range(Bound::Unbounded, Bound::Excluded(&Datum::Int(5)));
        assert_eq!(upto.len(), 5);
    }

    #[test]
    fn remove_entries() {
        let mut idx = BTreeIndex::new(false);
        for k in 0..200i64 {
            idx.insert(Datum::Int(k % 50), rid(k as u32)).unwrap();
        }
        assert_eq!(idx.get(&Datum::Int(7)).len(), 4);
        assert!(idx.remove(&Datum::Int(7), rid(7)));
        assert_eq!(idx.get(&Datum::Int(7)).len(), 3);
        assert!(!idx.remove(&Datum::Int(7), rid(7)), "already removed");
        assert!(!idx.remove(&Datum::Int(999), rid(0)));
        // Remove every posting of one key.
        for r in [57, 107, 157] {
            assert!(idx.remove(&Datum::Int(7), rid(r)));
        }
        assert!(idx.get(&Datum::Int(7)).is_empty());
        // The key is gone from range scans too.
        let hits = idx.range(Bound::Included(&Datum::Int(7)), Bound::Included(&Datum::Int(7)));
        assert!(hits.is_empty());
    }

    #[test]
    fn mixed_type_keys_order_consistently() {
        let mut idx = BTreeIndex::new(false);
        idx.insert(Datum::Text("b".into()), rid(1)).unwrap();
        idx.insert(Datum::Int(10), rid(2)).unwrap();
        idx.insert(Datum::Null, rid(3)).unwrap();
        idx.insert(Datum::Float(2.5), rid(4)).unwrap();
        let all = idx.iter_all();
        // Null < numerics < text per Datum's total order.
        assert_eq!(all[0].1, rid(3));
        assert_eq!(all[1].1, rid(4));
        assert_eq!(all[2].1, rid(2));
        assert_eq!(all[3].1, rid(1));
    }

    #[test]
    fn reinsert_after_full_removal() {
        let mut idx = BTreeIndex::new(true);
        idx.insert(Datum::Int(1), rid(1)).unwrap();
        assert!(idx.remove(&Datum::Int(1), rid(1)));
        // Unique constraint sees the key as free again.
        idx.insert(Datum::Int(1), rid(2)).unwrap();
        assert_eq!(idx.get(&Datum::Int(1)), vec![rid(2)]);
    }
}
