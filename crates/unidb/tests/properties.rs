//! Property-based tests for the storage engine's invariants.

use proptest::prelude::*;
use std::collections::HashMap;
use unidb::datum::Datum;
use unidb::expr::eval::like_match;
use unidb::index::btree::BTreeIndex;
use unidb::storage::colpage::{CmpOp, ColPred, ColTest, ColumnPage};
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

/// [`arb_datum`] plus the numbers where INT and FLOAT meet as `f64`: INTs
/// near ±2^63 and 2^53, the FLOATs they round to or next to, and zeros.
fn arb_order_datum() -> impl Strategy<Value = Datum> {
    let two63 = 2f64.powi(63);
    prop_oneof![
        arb_datum(),
        (0i64..3000).prop_map(|k| Datum::Int(i64::MAX - k)),
        (0i64..3000).prop_map(|k| Datum::Int(i64::MIN + k)),
        (-4i64..4).prop_map(|k| Datum::Int((1 << 53) + k)),
        (0u64..3).prop_map(move |k| Datum::Float(f64::from_bits(two63.to_bits() - k))),
        (0u64..3).prop_map(move |k| Datum::Float(-f64::from_bits(two63.to_bits() - k))),
        prop_oneof![Just(9007199254740992.0), Just(9007199254740994.0), Just(0.0), Just(-0.0)]
            .prop_map(Datum::Float),
        Just(Datum::Int(0)),
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

/// One join-table row's keys: an INT and a FLOAT, mostly from a small
/// domain, so keys repeat, are NULL, and meet across types (`1` = `1.0`;
/// `1.5` meets no INT); and now and then a value where equality is subtle:
/// INT 2^53 and 2^53 + 1 are unequal but both equal FLOAT 2^53 (and hash
/// alike), the INT extremes, `-0.0` (unequal to `0.0` and to `0`), NaN
/// (equal to itself).
fn arb_join_keys() -> impl Strategy<Value = (Option<i64>, Option<f64>)> {
    let edge_ints =
        prop_oneof![Just(1i64 << 53), Just((1 << 53) + 1), Just(i64::MAX), Just(i64::MIN)];
    let edge_floats = prop_oneof![Just(-0.0), Just(0.0), Just((1u64 << 53) as f64), Just(f64::NAN)];
    (
        prop_oneof![
            Just(None),
            (0i64..4).prop_map(Some),
            (0i64..4).prop_map(Some),
            edge_ints.prop_map(Some)
        ],
        prop_oneof![
            Just(None),
            (0i64..4).prop_map(|i| Some(i as f64)),
            Just(Some(1.5)),
            edge_floats.prop_map(Some)
        ],
    )
}

/// `v` as a SQL expression that evaluates to exactly `v` (NaN through the
/// `nan()` function [`with_nan`] registers).
fn sql_literal(v: &Datum) -> String {
    match v {
        Datum::Null => "NULL".to_string(),
        Datum::Int(i64::MIN) => "(-9223372036854775807 - 1)".to_string(),
        Datum::Float(f) if f.is_nan() => "nan()".to_string(),
        Datum::Float(f) => format!("{f:?}"),
        Datum::Text(t) => format!("'{t}'"),
        other => other.to_string(),
    }
}

/// A database with a scalar `nan()`, since no SQL literal spells NaN.
fn with_nan() -> Database {
    let d = Database::in_memory();
    d.register_scalar("nan", std::sync::Arc::new(|_| Ok(Datum::Float(f64::NAN)))).unwrap();
    d
}

/// Insert `rows` into `name` through SQL, checking the engine reads back
/// exactly these values (representation and all).
fn insert_exactly(d: &Database, name: &str, rows: &[Vec<Datum>]) {
    for r in rows {
        let values: Vec<String> = r.iter().map(sql_literal).collect();
        d.execute(&format!("INSERT INTO {name} VALUES ({})", values.join(", "))).unwrap();
    }
    let back = d.execute(&format!("SELECT * FROM {name}")).unwrap().rows;
    assert_eq!(format!("{back:?}"), format!("{rows:?}"), "{name} holds other values");
}

/// A row of `g (ki INT, kf FLOAT, kt TEXT, v INT)`: keys from small,
/// NULL-rich domains where `Datum ==` is transitive — `0` meets `0.0` and
/// `1` meets `1.0`, while `-0.0` and NaN each meet only themselves. INT
/// 2^53 and 2^53 + 1 hash alike but differ (no FLOAT 2^53 joins them), so
/// a key table must compare keys, not only hashes.
fn arb_group_row() -> impl Strategy<Value = Vec<Datum>> {
    let ki = prop_oneof![
        Just(Datum::Null),
        (0i64..4).prop_map(Datum::Int),
        Just(Datum::Int(1 << 53)),
        Just(Datum::Int((1 << 53) + 1))
    ];
    let kf = prop_oneof![
        Just(Datum::Null),
        (0i64..3).prop_map(|i| Datum::Float(i as f64)),
        Just(Datum::Float(1.5)),
        Just(Datum::Float(-0.0)),
        Just(Datum::Float(f64::NAN))
    ];
    let kt = prop_oneof![Just(Datum::Null), "[ab]{0,1}".prop_map(Datum::Text)];
    let v = prop_oneof![Just(Datum::Null), (-5i64..6).prop_map(Datum::Int)];
    (ki, kf, kt, v).prop_map(|(ki, kf, kt, v)| vec![ki, kf, kt, v])
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
    insert_exactly(d, name, &rows);
    rows
}

/// A value for a kernel's column: NULL-rich, INT and FLOAT around the
/// edges a typed comparison could get wrong (`-0.0`, NaN, 2^53 + 1, the
/// extremes), and now and then a value of another type, which makes the
/// column fall back to decoded values.
fn arb_kernel_datum() -> impl Strategy<Value = Datum> {
    let ints =
        prop_oneof![-3i64..4, Just(1 << 53), Just((1 << 53) + 1), Just(i64::MAX), Just(i64::MIN)];
    let floats = prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(0.5),
        Just(-1.5),
        Just(3.0),
        Just((1u64 << 53) as f64),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(-1e300)
    ];
    (ints, floats, 0u8..20).prop_map(|(i, f, pick)| match pick {
        0..=5 => Datum::Null,
        6..=12 => Datum::Int(i),
        13..=18 => Datum::Float(f),
        _ => Datum::Text("x".into()),
    })
}

/// A kernel leaf over one of four columns: every comparison against INT,
/// FLOAT, NULL and TEXT literals, `IS [NOT] NULL` and `IN` lists.
fn arb_leaf() -> impl Strategy<Value = ColPred> {
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::NotEq),
        Just(CmpOp::Lt),
        Just(CmpOp::LtEq),
        Just(CmpOp::Gt),
        Just(CmpOp::GtEq)
    ];
    let list = proptest::collection::vec(arb_kernel_datum(), 0..4);
    let test =
        (0u8..8, op, arb_kernel_datum(), list).prop_map(|(pick, op, lit, list)| match pick {
            0 => ColTest::IsNull { negated: false },
            1 => ColTest::IsNull { negated: true },
            2 => ColTest::In(list),
            _ => ColTest::Cmp(op, lit),
        });
    (0usize..5, test).prop_map(|(col, test)| ColPred { col, test })
}

/// A page for the kernels: four columns, each all-INT, all-FLOAT or mixed
/// (with NULLs throughout), so images hold every column representation.
fn arb_kernel_page() -> impl Strategy<Value = Vec<Vec<Datum>>> {
    let column = |n: usize| {
        (0u8..3, proptest::collection::vec(arb_kernel_datum(), n)).prop_map(|(kind, values)| {
            values
                .into_iter()
                .map(|d| match (kind, d) {
                    (0, Datum::Float(_) | Datum::Text(_)) => Datum::Null,
                    (1, Datum::Int(_) | Datum::Text(_)) => Datum::Null,
                    (_, d) => d,
                })
                .collect::<Vec<_>>()
        })
    };
    (1usize..150).prop_flat_map(move |n| {
        (column(n), column(n), column(n), column(n)).prop_map(|(a, b, c, d)| {
            (0..a.len())
                .map(|r| vec![a[r].clone(), b[r].clone(), c[r].clone(), d[r].clone()])
                .collect()
        })
    })
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

    /// A page served from its column image yields exactly the values the
    /// row codec decodes from the same page, for any prefix and mask: every
    /// referenced column of every row, in slot order.
    #[test]
    fn image_rows_equal_row_decode(case in arb_image_scan()) {
        let (rows, prefix, mask) = case;
        let image = ColumnPage::build(rows.clone()).unwrap();
        let cols: Vec<usize> =
            (0..prefix).filter(|&c| mask.as_deref().is_none_or(|m| m.get(c) == Some(&true))).collect();
        let mut sel = Vec::new();
        image.select(&[], &mut sel);
        let mut served = Vec::new();
        image.append(&sel, &cols, &mut served);
        let mut decoded = Vec::new();
        let mut scratch = Vec::new();
        for row in &rows {
            decode_row_cols_into(&mut scratch, &encode_row(row), prefix, mask.as_deref()).unwrap();
            decoded.extend(cols.iter().map(|&c| scratch.get(c).cloned().unwrap_or(Datum::Null)));
        }
        prop_assert_eq!(format!("{served:?}"), format!("{decoded:?}"));
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
    fn order_by_cmp_is_total_order(
        a in arb_order_datum(), b in arb_order_datum(), c in arb_order_datum()
    ) {
        use std::cmp::Ordering;
        use unidb::exec::order_by_cmp;
        prop_assert_eq!(order_by_cmp(&a, &b), order_by_cmp(&b, &a).reverse());
        prop_assert_eq!(order_by_cmp(&a, &a), Ordering::Equal);
        if order_by_cmp(&a, &b) != Ordering::Greater && order_by_cmp(&b, &c) != Ordering::Greater {
            prop_assert_ne!(order_by_cmp(&a, &c), Ordering::Greater);
        }
        // It refines the value order: what total_cmp orders, it orders alike.
        if a.total_cmp(&b) != Ordering::Equal && !a.is_null() && !b.is_null() {
            prop_assert_eq!(order_by_cmp(&a, &b), a.total_cmp(&b));
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

    /// A B-tree range returns the keys a filter keeps, and so does a
    /// query whose two conjuncts on the indexed column make one probe:
    /// same rows as the unindexed twin, for NULL literals, empty
    /// intersections and equal bounds of mixed inclusivity alike.
    #[test]
    fn btree_range_equals_filtered_scan(
        keys in proptest::collection::vec(-100i64..101, 0..200),
        lo in -100i64..100,
        span in 0i64..100,
        pair in (0usize..7, -20i64..21, 0usize..7, -20i64..21),
        tie in any::<bool>(),
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

        // 20 stands for NULL, as a stored key and as a literal.
        let lit = |v: i64| if v == 20 { "NULL".to_string() } else { v.to_string() };
        let conjunct = |form: usize, v: i64| match form {
            0 => format!("k < {}", lit(v)),
            1 => format!("k <= {}", lit(v)),
            2 => format!("k > {}", lit(v)),
            3 => format!("k >= {}", lit(v)),
            4 => format!("{} < k", lit(v)),
            5 => format!("{} >= k", lit(v)),
            _ => format!("k BETWEEN {} AND {}", lit(v), lit(v.min(19) + span % 5)),
        };
        let (form_a, a, form_b, b) = pair;
        let b = if tie { a } else { b };
        let sql = format!(
            "SELECT k FROM t WHERE {} AND {} ORDER BY k",
            conjunct(form_a, a),
            conjunct(form_b, b)
        );
        let rows: Vec<String> = keys.iter().map(|k| format!("({})", lit(k % 21))).collect();
        let answers: Vec<Vec<Vec<Datum>>> = [false, true]
            .into_iter()
            .map(|indexed| {
                let db = Database::in_memory();
                db.execute("CREATE TABLE t (k INT)").unwrap();
                if !rows.is_empty() {
                    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();
                }
                if indexed {
                    db.execute("CREATE INDEX ON t (k)").unwrap();
                }
                db.execute(&sql).unwrap().rows
            })
            .collect();
        prop_assert_eq!(&answers[0], &answers[1], "{}", sql);
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
        let d = with_nan();
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

proptest! {
    /// GROUP BY over one or two keys — plain columns and computed ones over
    /// INT, FLOAT, TEXT and NULL — returns the groups of a reference
    /// grouping under `Datum ==`: in first-seen order, each keyed by its
    /// first-seen value, with count(*), count, sum, min, max and avg.
    #[test]
    fn group_by_matches_a_reference_grouping(
        rows in proptest::collection::vec(arb_group_row(), 0..40),
    ) {
        let d = with_nan();
        d.execute("CREATE TABLE g (ki INT, kf FLOAT, kt TEXT, v INT)").unwrap();
        insert_exactly(&d, "g", &rows);
        type KeyOf = fn(&Vec<Datum>) -> Datum;
        let (ki, kf, kt): (KeyOf, KeyOf, KeyOf) =
            (|r| r[0].clone(), |r| r[1].clone(), |r| r[2].clone());
        let either: KeyOf = |r| if r[0].is_null() { r[1].clone() } else { r[0].clone() };
        let parity: KeyOf = |r| r[0].as_int().map_or(Datum::Null, |i| Datum::Int(i % 2));
        let cases: [(&str, Vec<KeyOf>); 7] = [
            ("ki", vec![ki]),
            ("kf", vec![kf]),
            ("kt", vec![kt]),
            ("coalesce(ki, kf)", vec![either]),
            ("kt, ki", vec![kt, ki]),
            ("kf, kt", vec![kf, kt]),
            ("ki % 2, coalesce(ki, kf)", vec![parity, either]),
        ];
        for (group_by, key_of) in cases {
            let mut groups: Vec<(Vec<Datum>, Vec<i64>, usize)> = Vec::new();
            for r in &rows {
                let key: Vec<Datum> = key_of.iter().map(|k| k(r)).collect();
                let at = match groups.iter().position(|(k, _, _)| *k == key) {
                    Some(at) => at,
                    None => {
                        groups.push((key, Vec::new(), 0));
                        groups.len() - 1
                    }
                };
                groups[at].1.extend(r[3].as_int());
                groups[at].2 += 1;
            }
            let expect: Vec<Vec<Datum>> = groups
                .into_iter()
                .map(|(key, vs, n)| {
                    let sum: i64 = vs.iter().sum();
                    let some = |d: Option<Datum>| d.unwrap_or(Datum::Null);
                    let numbers = [
                        Datum::Int(n as i64),
                        Datum::Int(vs.len() as i64),
                        some((!vs.is_empty()).then_some(Datum::Int(sum))),
                        some(vs.iter().min().map(|&m| Datum::Int(m))),
                        some(vs.iter().max().map(|&m| Datum::Int(m))),
                        some((!vs.is_empty()).then(|| Datum::Float(sum as f64 / vs.len() as f64))),
                    ];
                    key.into_iter().chain(numbers).collect()
                })
                .collect();
            let got = d
                .execute(&format!(
                    "SELECT {group_by}, count(*), count(v), sum(v), min(v), max(v), avg(v) \
                     FROM g GROUP BY {group_by}"
                ))
                .unwrap()
                .rows;
            prop_assert_eq!(format!("{got:?}"), format!("{expect:?}"), "GROUP BY {}", group_by);
        }
    }
}

proptest! {
    // Cheap cases, and a kernel bug can hide in one operator × one column
    // type × one literal type: many cases.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The kernels select exactly the rows the per-row definition of their
    /// leaves accepts, in order, whatever representation each column took
    /// (a leaf on column 4 reads past the arity, i.e. NULL).
    #[test]
    fn image_kernels_select_what_per_row_tests_accept(
        rows in arb_kernel_page(),
        leaves in proptest::collection::vec(arb_leaf(), 1..4),
    ) {
        let image = ColumnPage::build(rows.clone()).unwrap();
        let mut sel = Vec::new();
        image.select(&leaves, &mut sel);
        let expected: Vec<u32> = (0..rows.len() as u32)
            .filter(|&r| {
                leaves.iter().all(|l| {
                    l.test.passes(rows[r as usize].get(l.col).unwrap_or(&Datum::Null))
                })
            })
            .collect();
        prop_assert_eq!(sel, expected, "{:?}", leaves);
        // Survivors' values come back as they went in, NULLs included.
        let mut out = Vec::new();
        image.append(&(0..rows.len() as u32).collect::<Vec<_>>(), &[0, 1, 2, 3], &mut out);
        prop_assert_eq!(format!("{out:?}"), format!("{:?}", rows.concat()));
    }
}
