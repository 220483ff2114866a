//! Property-based tests for the storage engine's invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use unidb::datum::Datum;
use unidb::expr::eval::like_match;
use unidb::index::btree::BTreeIndex;
use unidb::storage::colpage::ColumnPage;
use unidb::storage::heap::{HeapFile, Rid};
use unidb::storage::page::Page;
use unidb::storage::wal::{crc32, WalRecord};
use unidb::tuple::{decode_row, decode_row_cols_into, encode_row};
use unidb::Database;

fn arb_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Int),
        any::<f64>().prop_map(Datum::Float),
        "[a-zA-Z0-9 '\\-]{0,40}".prop_map(Datum::Text),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Datum::Blob),
        (0u32..10, proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(t, b)| Datum::opaque(t, b)),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Datum>> {
    proptest::collection::vec(arb_datum(), 0..8)
}

/// [`arb_datum`] made NULL-dense, plus the values a copy could get subtly
/// wrong: `-0.0`, NaN, empty and multibyte text.
fn arb_image_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        Just(Datum::Null),
        Just(Datum::Float(-0.0)),
        Just(Datum::Float(f64::NAN)),
        Just(Datum::Text(String::new())),
        "[aé漢𝔸 ]{0,12}".prop_map(Datum::Text),
        arb_datum(),
    ]
}

/// One page's rows (one arity) plus a scan's decode prefix and mask.
fn arb_image_scan() -> impl Strategy<Value = (Vec<Vec<Datum>>, usize, Option<Vec<bool>>)> {
    (1usize..6).prop_flat_map(|arity| {
        (
            proptest::collection::vec(proptest::collection::vec(arb_image_datum(), arity), 1..40),
            0..arity + 2,
            prop_oneof![
                Just(None),
                proptest::collection::vec(any::<bool>(), 0..arity + 2).prop_map(Some)
            ],
        )
    })
}

/// One join-table row's keys: an INT and a FLOAT from a small domain, so
/// keys repeat, are NULL, and meet across types (`1` = `1.0`; `1.5` meets
/// no INT).
fn arb_join_keys() -> impl Strategy<Value = (Option<i64>, Option<f64>)> {
    (
        prop_oneof![Just(None), (0i64..4).prop_map(Some)],
        prop_oneof![Just(None), (0i64..4).prop_map(|i| Some(i as f64)), Just(Some(1.5))],
    )
}

/// A join table `name (id INT, ki INT, kf FLOAT, tag TEXT)` with one row
/// per key pair, ids from 1; returns its rows as the engine reads them.
fn join_table(d: &Database, name: &str, keys: &[(Option<i64>, Option<f64>)]) -> Vec<Vec<Datum>> {
    d.execute(&format!("CREATE TABLE {name} (id INT, ki INT, kf FLOAT, tag TEXT)")).unwrap();
    let rows: Vec<Vec<Datum>> = keys
        .iter()
        .enumerate()
        .map(|(i, (ki, kf))| {
            vec![
                Datum::Int(i as i64 + 1),
                ki.map_or(Datum::Null, Datum::Int),
                kf.map_or(Datum::Null, Datum::Float),
                Datum::Text(format!("{name}{}", i + 1)),
            ]
        })
        .collect();
    for r in &rows {
        let lit = |v: &Datum| match v {
            Datum::Null => "NULL".to_string(),
            Datum::Float(f) => format!("{f:.1}"),
            Datum::Text(t) => format!("'{t}'"),
            other => other.to_string(),
        };
        let values: Vec<String> = r.iter().map(lit).collect();
        d.execute(&format!("INSERT INTO {name} VALUES ({})", values.join(", "))).unwrap();
    }
    rows
}

fn sorted(mut rows: Vec<Vec<Datum>>) -> Vec<Vec<Datum>> {
    rows.sort();
    rows
}

proptest! {
    // --- tuple encoding -------------------------------------------------------

    #[test]
    fn row_roundtrip(row in arb_row()) {
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        // Representation-exact comparison (Debug) because Datum's Eq
        // intentionally unifies Int(3) and Float(3.0).
        prop_assert_eq!(format!("{back:?}"), format!("{row:?}"));
    }

    #[test]
    fn row_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_row(&bytes);
    }

    /// A page served from its column image yields exactly the rows the row
    /// codec decodes from the same page, for any prefix and mask, and
    /// reports the columns it served.
    #[test]
    fn image_rows_equal_row_decode(case in arb_image_scan()) {
        let (rows, prefix, mask) = case;
        let image = ColumnPage::build(rows.clone()).unwrap();
        let mut served_rows = Vec::new();
        let served = image
            .emit_rows(prefix, mask.as_deref(), |row| {
                served_rows.push(format!("{row:?}"));
                Ok(())
            })
            .unwrap();
        let mut decoded_rows = Vec::new();
        let mut scratch = Vec::new();
        for row in &rows {
            decode_row_cols_into(&mut scratch, &encode_row(row), prefix, mask.as_deref()).unwrap();
            decoded_rows.push(format!("{scratch:?}"));
        }
        prop_assert_eq!(served_rows, decoded_rows);
        let width = rows[0].len().min(prefix);
        let referenced = match mask.as_deref() {
            Some(m) => (0..width).filter(|&c| m.get(c) == Some(&true)).count(),
            None => width,
        };
        prop_assert_eq!(served, referenced);
    }

    // --- datum ordering ----------------------------------------------------------

    #[test]
    fn total_cmp_is_total_order(a in arb_datum(), b in arb_datum(), c in arb_datum()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Reflexivity.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        // Transitivity (sampled).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
    }

    #[test]
    fn eq_datums_hash_alike(a in arb_datum(), b in arb_datum()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |d: &Datum| {
            let mut s = DefaultHasher::new();
            d.hash(&mut s);
            s.finish()
        };
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    // --- pages ----------------------------------------------------------------------

    #[test]
    fn page_model(records in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..300), 1..30)
    ) {
        let mut page = Page::new();
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for rec in &records {
            match page.insert(rec) {
                Some(slot) => {
                    prop_assert_eq!(slot as usize, model.len());
                    model.push(Some(rec.clone()));
                }
                None => {
                    // Full page: record must genuinely not fit.
                    prop_assert!(rec.len() + 4 > page.free_space());
                    model.push(None);
                    break;
                }
            }
        }
        for (i, m) in model.iter().enumerate() {
            if let Some(rec) = m { prop_assert_eq!(page.get(i as u16), Some(rec.as_slice())) }
        }
    }

    // --- heap ------------------------------------------------------------------------

    #[test]
    fn heap_model(ops in proptest::collection::vec(
        (0u8..3, proptest::collection::vec(any::<u8>(), 0..2000)), 1..60)
    ) {
        let mut heap = HeapFile::default();
        let mut model: HashMap<Rid, Vec<u8>> = HashMap::new();
        let mut live: Vec<Rid> = Vec::new();
        for (op, payload) in ops {
            match op {
                0 => {
                    let rid = heap.insert(&payload).unwrap();
                    prop_assert!(!model.contains_key(&rid), "rid reuse");
                    model.insert(rid, payload);
                    live.push(rid);
                }
                1 if !live.is_empty() => {
                    let victim = live[payload.len() % live.len()];
                    prop_assert!(heap.delete(victim).unwrap());
                    model.remove(&victim);
                    live.retain(|r| *r != victim);
                }
                2 if !live.is_empty() => {
                    let target = live[payload.len() % live.len()];
                    let new_rid = heap.update(target, &payload).unwrap();
                    model.remove(&target);
                    live.retain(|r| *r != target);
                    model.insert(new_rid, payload);
                    live.push(new_rid);
                }
                _ => {}
            }
        }
        prop_assert_eq!(heap.len() as usize, model.len());
        for (rid, expected) in &model {
            let got = heap.get(*rid).unwrap();
            prop_assert_eq!(got.as_ref(), Some(expected));
        }
        let mut scanned: HashMap<Rid, Vec<u8>> = HashMap::new();
        for page_no in 0..heap.num_pages() {
            heap.page_visit_rows_rid(page_no, &mut |rid, bytes| {
                scanned.insert(rid, bytes.to_vec());
                Ok(())
            })
            .unwrap();
        }
        prop_assert_eq!(scanned, model);
    }

    // --- B-tree -----------------------------------------------------------------------

    #[test]
    fn btree_model(ops in proptest::collection::vec((any::<bool>(), -50i64..50, 0u32..100), 1..300)) {
        let mut tree = BTreeIndex::new(false);
        let mut model: HashMap<i64, Vec<Rid>> = HashMap::new();
        for (insert, key, ridn) in ops {
            let rid = Rid { page: ridn, slot: 0 };
            if insert {
                tree.insert(Datum::Int(key), rid).unwrap();
                model.entry(key).or_default().push(rid);
            } else {
                let existed = tree.remove(&Datum::Int(key), rid);
                let model_had = model.get_mut(&key).is_some_and(|v| {
                    if let Some(at) = v.iter().position(|r| *r == rid) {
                        v.swap_remove(at);
                        true
                    } else {
                        false
                    }
                });
                prop_assert_eq!(existed, model_had);
            }
        }
        let model_len: usize = model.values().map(Vec::len).sum();
        prop_assert_eq!(tree.len(), model_len);
        for (key, rids) in &model {
            let mut got = tree.get(&Datum::Int(*key));
            let mut expected = rids.clone();
            got.sort();
            expected.sort();
            prop_assert_eq!(got, expected);
        }
        // Full iteration is sorted by key.
        let all = tree.iter_all();
        for pair in all.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
    }

    /// The distinct-key count the planner reads is kept at write time; it
    /// must always equal a count over the leaves. A narrow key range makes
    /// keys empty out and come back, and removals name absent entries as
    /// often as present ones.
    #[test]
    fn btree_distinct_keys_is_maintained(
        unique in any::<bool>(),
        ops in proptest::collection::vec((0u8..3, -12i64..12, 0u32..6), 1..400),
    ) {
        let mut tree = BTreeIndex::new(unique);
        let mut live: Vec<(i64, Rid)> = Vec::new();
        for (op, key, ridn) in ops {
            let rid = Rid { page: ridn, slot: 0 };
            match op {
                // A unique index refuses a second rid; the count must not move.
                0 => {
                    if tree.insert(Datum::Int(key), rid).is_ok() {
                        live.push((key, rid));
                    }
                }
                // Remove an entry that exists, when there is one.
                1 if !live.is_empty() => {
                    let (k, r) = live.swap_remove(ridn as usize % live.len());
                    prop_assert!(tree.remove(&Datum::Int(k), r));
                }
                // Remove whatever (key, rid) was drawn, present or not.
                _ => {
                    let existed = tree.remove(&Datum::Int(key), rid);
                    if let Some(at) = live.iter().position(|e| *e == (key, rid)) {
                        prop_assert!(existed);
                        live.swap_remove(at);
                    } else {
                        prop_assert!(!existed);
                    }
                }
            }
            let mut keys: Vec<Datum> = tree.iter_all().into_iter().map(|(k, _)| k).collect();
            keys.dedup();
            prop_assert_eq!(tree.distinct_keys(), keys.len());
        }
    }

    #[test]
    fn btree_range_equals_filtered_scan(
        keys in proptest::collection::vec(-100i64..100, 0..200),
        lo in -100i64..100,
        span in 0i64..100,
    ) {
        let mut tree = BTreeIndex::new(false);
        for (i, k) in keys.iter().enumerate() {
            tree.insert(Datum::Int(*k), Rid { page: i as u32, slot: 0 }).unwrap();
        }
        let hi = lo + span;
        let from_range: Vec<i64> = tree
            .range(
                std::ops::Bound::Included(&Datum::Int(lo)),
                std::ops::Bound::Included(&Datum::Int(hi)),
            )
            .into_iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let mut expected: Vec<i64> =
            keys.iter().copied().filter(|k| (lo..=hi).contains(k)).collect();
        expected.sort_unstable();
        prop_assert_eq!(from_range, expected);
    }

    // --- LIKE -------------------------------------------------------------------------

    #[test]
    fn like_matches_reference_implementation(
        text in "[ab_%]{0,12}",
        pattern in "[ab_%]{0,8}",
    ) {
        fn reference(t: &[char], p: &[char]) -> bool {
            match (t.first(), p.first()) {
                (_, None) => t.is_empty(),
                (_, Some('%')) => {
                    (0..=t.len()).any(|skip| reference(&t[skip..], &p[1..]))
                }
                (Some(tc), Some(pc)) => {
                    (*pc == '_' || pc == tc) && reference(&t[1..], &p[1..])
                }
                (None, Some(_)) => false,
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        prop_assert_eq!(like_match(&text, &pattern, None).unwrap(), reference(&t, &p));
    }

    #[test]
    fn like_escape_matches_reference_implementation(
        text in "[ab_%#]{0,12}",
        pattern in "[ab_%#]{0,8}",
    ) {
        // Reference with '#' as the escape character: '#x' is literal x,
        // a trailing '#' is an error (reference returns None).
        fn compile(p: &[char]) -> Option<Vec<(char, bool)>> {
            let mut out = Vec::new();
            let mut i = 0;
            while i < p.len() {
                if p[i] == '#' {
                    if i + 1 >= p.len() {
                        return None;
                    }
                    out.push((p[i + 1], true));
                    i += 2;
                } else {
                    out.push((p[i], false));
                    i += 1;
                }
            }
            Some(out)
        }
        fn matches(t: &[char], p: &[(char, bool)]) -> bool {
            match (t.first(), p.first()) {
                (_, None) => t.is_empty(),
                (_, Some(('%', false))) => {
                    (0..=t.len()).any(|skip| matches(&t[skip..], &p[1..]))
                }
                (Some(tc), Some((pc, literal))) => {
                    ((!literal && *pc == '_') || pc == tc) && matches(&t[1..], &p[1..])
                }
                (None, Some(_)) => false,
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let got = like_match(&text, &pattern, Some('#'));
        match compile(&p) {
            None => prop_assert!(got.is_err()),
            Some(compiled) => prop_assert_eq!(got.unwrap(), matches(&t, &compiled)),
        }
    }

    // --- WAL ---------------------------------------------------------------------------

    #[test]
    fn wal_record_roundtrip(table in "[a-z]{1,10}", old in arb_row(), new in arb_row()) {
        for rec in [
            WalRecord::Insert { table: table.clone(), row: new.clone() },
            WalRecord::Delete { table: table.clone(), row: old.clone() },
            WalRecord::Update { table: table.clone(), old_row: old, new_row: new },
        ] {
            let enc = rec.encode();
            let dec = WalRecord::decode(&enc).unwrap();
            prop_assert_eq!(format!("{dec:?}"), format!("{rec:?}"));
        }
    }

    #[test]
    fn crc_detects_single_bit_flips(payload in proptest::collection::vec(any::<u8>(), 1..100),
                                    bit in 0usize..800) {
        let bit = bit % (payload.len() * 8);
        let mut corrupted = payload.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&payload), crc32(&corrupted));
    }

    // --- joins -----------------------------------------------------------------

    /// Inner and LEFT joins — hash joins on either build side and a
    /// nested-loop join — return the rows of a nested-loop reference, and
    /// every projection of a join (no column, one side, both sides, through
    /// a filter or a sort) is the projection of its `SELECT *` rows, in the
    /// same order: what the executor's column layouts must preserve.
    #[test]
    fn joins_match_a_nested_loop_reference_under_every_projection(
        l_keys in proptest::collection::vec(arb_join_keys(), 0..24),
        r_keys in proptest::collection::vec(arb_join_keys(), 0..24),
    ) {
        let d = Database::in_memory();
        let l = join_table(&d, "l", &l_keys);
        let r = join_table(&d, "r", &r_keys);
        for (on, lk, rk) in [
            ("l.ki = r.kf", 1, 2),
            ("l.kf = r.ki", 2, 1),
            ("l.ki = r.ki", 1, 1),
            ("l.kf <= r.kf AND r.kf <= l.kf", 2, 2),
        ] {
            for left_join in [false, true] {
                let from = format!("FROM l {} JOIN r ON {on}", if left_join { "LEFT" } else { "INNER" });
                let mut expect = Vec::new();
                for a in &l {
                    let matches: Vec<&Vec<Datum>> =
                        r.iter().filter(|b| a[lk].sql_eq(&b[rk]) == Some(true)).collect();
                    for b in &matches {
                        expect.push([&a[..], &b[..]].concat());
                    }
                    if left_join && matches.is_empty() {
                        expect.push([&a[..], &[Datum::Null, Datum::Null, Datum::Null, Datum::Null]].concat());
                    }
                }
                let star = d.execute(&format!("SELECT * {from}")).unwrap().rows;
                prop_assert_eq!(sorted(star.clone()), sorted(expect), "{}", from);
                let project = |cols: &[usize], rows: &[Vec<Datum>]| -> Vec<Vec<Datum>> {
                    rows.iter().map(|row| cols.iter().map(|&c| row[c].clone()).collect()).collect()
                };
                let run = |sql: String| d.execute(&sql).unwrap().rows;
                prop_assert_eq!(
                    run(format!("SELECT count(*) {from}")),
                    vec![vec![Datum::Int(star.len() as i64)]]
                );
                prop_assert_eq!(run(format!("SELECT l.tag {from}")), project(&[3], &star));
                prop_assert_eq!(run(format!("SELECT r.kf, r.id {from}")), project(&[6, 4], &star));
                prop_assert_eq!(
                    run(format!("SELECT r.tag, l.id, l.kf, r.ki {from}")),
                    project(&[7, 0, 2, 5], &star)
                );
                let crossing: Vec<Vec<Datum>> = star
                    .iter()
                    .filter(|row| matches!((&row[0], &row[4]), (Datum::Int(a), Datum::Int(b)) if a < b))
                    .cloned()
                    .collect();
                prop_assert_eq!(
                    run(format!("SELECT r.tag {from} WHERE l.id < r.id")),
                    project(&[7], &crossing)
                );
                // Ids are unique per table, so (r.id, l.id) orders the rows
                // totally; a padded r.id (NULL) sorts last.
                let mut by_ids = star.clone();
                by_ids.sort_by(|a, b| {
                    let r_id = |row: &Vec<Datum>| row[4].as_int().unwrap_or(i64::MAX);
                    r_id(a).cmp(&r_id(b)).then(a[0].total_cmp(&b[0]))
                });
                prop_assert_eq!(
                    run(format!("SELECT l.tag, r.tag {from} ORDER BY r.id, l.id")),
                    project(&[3, 7], &by_ids)
                );
            }
        }
    }
}
