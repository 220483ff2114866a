//! Golden tests for `EXPLAIN ANALYZE`.
//!
//! The acceptance bar: on a scan -> join -> TopN plan, the deterministic
//! counter rendering (`rows_out`, plus `pages_read` on scans) is
//! byte-identical from run to run. `time_us` varies run to run and
//! `batches` follows the executor's batching, so only the full rendering
//! shows them.

use unidb::exec::stats::OpStatsSnapshot;
use unidb::{Database, Datum};

/// Enough rows that a scan spans several morsels and a sort sorts
/// thousands of rows.
const BIG_ROWS: usize = 6000;

fn seeded() -> Database {
    let d = Database::in_memory();
    d.execute_script(
        "CREATE TABLE reads (id INT NOT NULL, chrom INT, score INT);
         CREATE TABLE chroms (chrom INT NOT NULL, name TEXT);",
    )
    .unwrap();
    for c in 0..4 {
        d.execute(&format!("INSERT INTO chroms VALUES ({c}, 'chr{c}')")).unwrap();
    }
    let mut batch = String::new();
    for i in 0..BIG_ROWS {
        if batch.is_empty() {
            batch.push_str("INSERT INTO reads VALUES ");
        } else {
            batch.push(',');
        }
        batch.push_str(&format!("({i}, {}, {})", i % 4, (i * 7919) % 100_000));
        if batch.len() > 60_000 {
            d.execute(&batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        d.execute(&batch).unwrap();
    }
    d
}

const QUERY: &str = "SELECT r.id, c.name FROM reads r JOIN chroms c ON r.chrom = c.chrom \
                     ORDER BY r.score DESC LIMIT 10";

fn analyze(d: &Database) -> (unidb::ResultSet, OpStatsSnapshot) {
    d.explain_analyze(QUERY).unwrap()
}

#[test]
fn counters_are_byte_identical_across_parallelism() {
    let d = seeded();
    let (rs1, s1) = analyze(&d);
    let (rs2, s2) = analyze(&d);

    assert_eq!(rs1.rows, rs2.rows, "results must not depend on the run");
    assert_eq!(
        s1.render_counters(),
        s2.render_counters(),
        "deterministic counters must match from run to run"
    );

    // The golden shape: TopN at the root fed by a hash join over two scans.
    let golden = s1.render_counters();
    assert!(golden.contains("TopN"), "plan should fuse sort+limit into TopN:\n{golden}");
    assert!(golden.contains("HashJoin"), "equi-join should hash:\n{golden}");
    assert_eq!(golden.matches("SeqScan").count(), 2, "two base scans:\n{golden}");

    // Root rows_out matches the result set, scans report real page counts.
    assert_eq!(s1.rows_out as usize, rs1.rows.len());
    fn scans(s: &OpStatsSnapshot, out: &mut Vec<u64>) {
        if s.is_scan {
            out.push(s.pages_read);
        }
        s.children.iter().for_each(|c| scans(c, out));
    }
    let mut pages = Vec::new();
    scans(&s1, &mut pages);
    assert_eq!(pages.len(), 2);
    assert!(pages.iter().any(|&p| p > 1), "big table spans multiple pages: {pages:?}");
}

#[test]
fn partition_counters_are_deterministic_and_stats_driven() {
    let d = seeded();
    let (_, s1) = analyze(&d);
    let golden = s1.render_counters();
    // Stats pick the 4-row chroms table as build side, hashed into one
    // chained table.
    assert!(golden.contains("build=right"), "small side should build:\n{golden}");
    assert!(golden.contains("partitions=1"), "the join builds one table:\n{golden}");
    assert!(golden.contains("build_rows=4"), "build side is 4-row chroms:\n{golden}");

    // Aggregation keeps one group table.
    let agg = "SELECT chrom, count(*), min(score) FROM reads GROUP BY chrom";
    let (r1, a1) = d.explain_analyze(agg).unwrap();
    assert_eq!(r1.rows.len(), 4, "one row per chrom");
    assert!(
        a1.render_counters().contains("partitions=1"),
        "aggregation keeps one group table:\n{}",
        a1.render_counters()
    );

    // A global aggregate folds into its single group, reports the same one
    // table, and still answers one row over zero rows.
    for (sql, expect) in [
        (
            "SELECT count(*), min(score) FROM reads",
            vec![Datum::Int(BIG_ROWS as i64), Datum::Int(0)],
        ),
        ("SELECT count(*), min(score) FROM reads WHERE id < 0", vec![Datum::Int(0), Datum::Null]),
    ] {
        let (r1, g1) = d.explain_analyze(sql).unwrap();
        assert_eq!(r1.rows, vec![expect], "{sql}");
        assert!(g1.render_counters().contains("partitions=1"), "{}", g1.render_counters());
    }
}

/// Grouped and global aggregates over a scan of several morsels: rows in
/// first-seen group order and `partitions=1`, whatever the key's shape.
#[test]
fn aggregates_fold_the_same_rows_at_every_width() {
    let d = seeded();
    d.execute("INSERT INTO reads VALUES (6000, NULL, 5), (6001, NULL, 7)").unwrap();
    let quarter = Datum::Int(BIG_ROWS as i64 / 4);
    let mut by_chrom = None;
    for sql in [
        "SELECT chrom, count(*), sum(score), min(id) FROM reads GROUP BY chrom",
        "SELECT id % 7, count(*), max(score) FROM reads GROUP BY id % 7",
        "SELECT chrom, id % 3, count(*), sum(id) FROM reads GROUP BY chrom, id % 3",
        "SELECT chrom, count(DISTINCT score % 10), count(chrom) FROM reads GROUP BY chrom",
        "SELECT count(*), sum(score), count(DISTINCT chrom), min(chrom) FROM reads",
        "SELECT count(*), sum(score) FROM reads WHERE id < 0",
    ] {
        let (r1, s1) = d.explain_analyze(sql).unwrap();
        assert!(s1.render_counters().contains("partitions=1"), "{sql}:\n{}", s1.render_counters());
        by_chrom.get_or_insert(r1.rows);
    }
    let keys: Vec<Datum> = by_chrom.unwrap().into_iter().map(|r| r[0].clone()).collect();
    assert_eq!(
        keys,
        [0, 1, 2, 3].map(Datum::Int).into_iter().chain([Datum::Null]).collect::<Vec<_>>()
    );
    let rows = d.execute("SELECT chrom, count(*) FROM reads GROUP BY chrom").unwrap().rows;
    assert!(rows[..4].iter().all(|r| r[1] == quarter), "{rows:?}");
    assert_eq!(rows[4], vec![Datum::Null, Datum::Int(2)]);
}

#[test]
fn explain_analyze_statement_reports_all_counters() {
    let d = seeded();
    let rs = d.execute(&format!("EXPLAIN ANALYZE {QUERY}")).unwrap();
    let text = rs.explain.expect("EXPLAIN ANALYZE returns an annotated plan");
    for needle in
        ["rows_out=", "batches=", "time_us=", "pages_read=", "pages_skipped=", "segments_decoded="]
    {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    // Plain EXPLAIN stays cost-free: no counters.
    let rs = d.execute(&format!("EXPLAIN {QUERY}")).unwrap();
    let text = rs.explain.unwrap();
    assert!(!text.contains("rows_out="), "plain EXPLAIN must not execute:\n{text}");
}

/// Satellite: the golden pruning contract. On a table whose filter
/// column is clustered (page-ordered), a selective predicate skips most
/// pages via zone maps, the skip counters render byte-identically from run
/// to run, and pruning never changes results.
#[test]
fn zone_map_pruning_skips_pages_and_stays_deterministic() {
    let d = seeded();
    // `id` increases in insert order, so per-page [min,max] ranges are
    // disjoint and a high cutoff refutes nearly every page.
    let cutoff = BIG_ROWS - BIG_ROWS / 100;
    let pruned = format!("SELECT id, score FROM reads WHERE id >= {cutoff}");

    let (r1, s1) = d.explain_analyze(&pruned).unwrap();
    let (r2, s2) = d.explain_analyze(&pruned).unwrap();
    assert_eq!(r1.rows, r2.rows, "pruned results must not depend on the run");
    let golden = s1.render_counters();
    assert_eq!(golden, s2.render_counters(), "skip counters must match from run to run");

    fn scan_of(s: &OpStatsSnapshot) -> Option<&OpStatsSnapshot> {
        if s.is_scan {
            return Some(s);
        }
        s.children.iter().find_map(scan_of)
    }
    let scan = scan_of(&s1).expect("plan has a scan");
    assert!(scan.pages_skipped > 0, "selective filter should skip pages:\n{golden}");
    assert!(
        scan.pages_skipped * 10 > scan.pages_read * 9,
        "clustered cutoff should refute ~99% of pages: skipped {} of {}",
        scan.pages_skipped,
        scan.pages_read,
    );
    assert!(scan.segments_decoded > 0, "visited pages decode referenced segments:\n{golden}");
    assert!(golden.contains("pages_skipped="), "rendering surfaces the counter:\n{golden}");

    // Correctness: pruning returns exactly what the unpruned scan finds.
    let mut expect: Vec<Vec<unidb::Datum>> = d
        .execute("SELECT id, score FROM reads")
        .unwrap()
        .rows
        .into_iter()
        .filter(|r| r[0].as_int().unwrap() >= cutoff as i64)
        .collect();
    let mut got = r1.rows.clone();
    let key = |r: &Vec<unidb::Datum>| r[0].as_int().unwrap();
    expect.sort_by_key(key);
    got.sort_by_key(key);
    assert_eq!(got, expect, "pruned scan must agree with the full scan");

    // An unselective predicate skips nothing — zones only refute.
    let (_, all) = d.explain_analyze("SELECT id FROM reads WHERE id >= 0").unwrap();
    let scan = scan_of(&all).expect("plan has a scan");
    assert_eq!(scan.pages_skipped, 0, "nothing to refute when every page matches");
}

/// Satellite: narrow projections decode only the referenced column
/// segments — a two-column projection over a three-column table touches
/// fewer segments than `SELECT *`.
#[test]
fn narrow_projection_decodes_fewer_segments() {
    let d = seeded();
    fn total_segments(s: &OpStatsSnapshot) -> u64 {
        s.segments_decoded + s.children.iter().map(total_segments).sum::<u64>()
    }
    let (_, narrow) = d.explain_analyze("SELECT id FROM reads").unwrap();
    let (_, wide) = d.explain_analyze("SELECT id, chrom, score FROM reads").unwrap();
    let (n, w) = (total_segments(&narrow), total_segments(&wide));
    assert!(n > 0 && w > 0, "both scans visit pages: narrow {n}, wide {w}");
    assert!(n * 2 < w, "1-column scan should decode under half of 3 columns: {n} vs {w}");
}

#[test]
fn explain_analyze_rejects_writes() {
    let d = seeded();
    let err = d.execute("EXPLAIN ANALYZE INSERT INTO chroms VALUES (9, 'x')").unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("EXPLAIN ANALYZE"), "unexpected error: {msg}");
    // Nothing was inserted.
    let rs = d.execute("SELECT count(*) FROM chroms").unwrap();
    assert_eq!(rs.rows[0][0].as_int().unwrap(), 4);
}

/// A SeqScan reads one `MORSEL_PAGES` range per batch, so its `batches`
/// counter is the number of ranges the table's pages make up.
#[test]
fn a_scan_emits_one_batch_per_morsel() {
    let d = Database::in_memory();
    d.execute("CREATE TABLE wide (id INT, pad TEXT)").unwrap();
    let pad = "x".repeat(200);
    for chunk in 0..12 {
        let values: Vec<String> =
            (0..500).map(|i| format!("({}, '{pad}')", chunk * 500 + i)).collect();
        d.execute(&format!("INSERT INTO wide VALUES {}", values.join(","))).unwrap();
    }
    for sql in ["SELECT id FROM wide WHERE id >= 0", "SELECT count(*) FROM wide"] {
        let (_, stats) = d.explain_analyze(sql).unwrap();
        fn scan(s: &OpStatsSnapshot) -> Option<&OpStatsSnapshot> {
            if s.is_scan {
                return Some(s);
            }
            s.children.iter().find_map(scan)
        }
        let scan = scan(&stats).expect("the plan scans");
        let morsels = scan.pages_read.div_ceil(u64::from(unidb::exec::MORSEL_PAGES));
        assert!(morsels >= 4, "{sql}: the table must span several morsels, got {morsels}");
        assert_eq!(scan.batches, morsels, "{sql}: {} pages", scan.pages_read);
    }
}

/// Rows of the column-pruning fixture's fact table.
const FACT_ROWS: i64 = 12_000;

/// `f` has its TEXT column in the middle, so a scan reading the two INT
/// columns must skip an interior field; `d` is a 4-row dimension whose
/// `fid` 99999 matches no fact row.
fn pruning_fixture() -> Database {
    let d = Database::in_memory();
    d.execute_script(
        "CREATE TABLE f (id INT NOT NULL, label TEXT, score INT);
         CREATE TABLE d (fid INT NOT NULL, note TEXT, weight INT);",
    )
    .unwrap();
    let values: Vec<String> =
        (0..FACT_ROWS).map(|i| format!("({i}, 'L{}', {})", i % 5, (i * 37) % 1000)).collect();
    for chunk in values.chunks(2000) {
        d.execute(&format!("INSERT INTO f VALUES {}", chunk.join(","))).unwrap();
    }
    d.execute("INSERT INTO d VALUES (0, 'n0', 1000), (1, 'n1', 1001), (2, 'n2', 1002), (99999, 'n3', 1003)")
        .unwrap();
    d
}

fn score(id: i64) -> i64 {
    (id * 37) % 1000
}

fn ints(rows: &[Vec<Datum>]) -> Vec<Vec<Option<i64>>> {
    rows.iter().map(|r| r.iter().map(|v| v.as_int()).collect()).collect()
}

/// Run `sql` and check each scan decoded exactly `per_page` segments on
/// every page it visited: `(table, segments per page)`.
fn check_decode(d: &Database, sql: &str, per_page: &[(&str, u64)]) -> Vec<Vec<Datum>> {
    let (r1, s1) = d.explain_analyze(sql).unwrap();
    let golden = s1.render_counters();
    fn scans<'s>(s: &'s OpStatsSnapshot, out: &mut Vec<&'s OpStatsSnapshot>) {
        if s.is_scan {
            out.push(s);
        }
        s.children.iter().for_each(|c| scans(c, out));
    }
    let mut found = Vec::new();
    scans(&s1, &mut found);
    assert_eq!(found.len(), per_page.len(), "{sql}: scans\n{golden}");
    for (scan, &(table, k)) in found.iter().zip(per_page) {
        let name = scan.label.split_whitespace().nth(1).unwrap();
        assert_eq!(name, format!("user.{table}"), "{sql}: scan order\n{golden}");
        let visited = scan.pages_read - scan.pages_skipped;
        assert!(visited > 0, "{sql}: {table} visits pages\n{golden}");
        assert_eq!(scan.segments_decoded, visited * k, "{sql}: {table} decodes {k}/page\n{golden}");
    }
    r1.rows
}

/// Every plan shape decodes only the columns some operator above its scan
/// reads: the per-page segment count is the size of that set, whatever
/// sits between the scan and the root.
#[test]
fn scans_decode_exactly_the_columns_the_plan_reads() {
    let d = pruning_fixture();
    let all: Vec<i64> = (0..FACT_ROWS).collect();
    let int = |v: i64| Some(v);

    // Aggregates: a global one reads `score` only, a grouped one `label` too.
    let rows = check_decode(&d, "SELECT sum(score), count(*) FROM f", &[("f", 1)]);
    assert_eq!(ints(&rows), vec![vec![int(all.iter().map(|&i| score(i)).sum()), int(FACT_ROWS)]]);
    let rows = check_decode(&d, "SELECT label, sum(score) FROM f GROUP BY label", &[("f", 2)]);
    let expect: Vec<Vec<Datum>> = (0..5)
        .map(|g| {
            let sum = all.iter().filter(|&&i| i % 5 == g).map(|&i| score(i)).sum();
            vec![Datum::Text(format!("L{g}")), Datum::Int(sum)]
        })
        .collect();
    assert_eq!(rows, expect);
    // A Filter over the aggregate (HAVING) reads the aggregate's output,
    // not the scan's: still the grouping column alone.
    let rows = check_decode(
        &d,
        "SELECT label, count(*) FROM f GROUP BY label HAVING count(*) > 0",
        &[("f", 1)],
    );
    assert_eq!(rows.len(), 5);

    // Top-N and Sort read their keys plus what the projection keeps.
    let mut by_score = all.clone();
    by_score.sort_by_key(|&i| (std::cmp::Reverse(score(i)), i));
    let top = check_decode(&d, "SELECT id FROM f ORDER BY score DESC, id LIMIT 5", &[("f", 2)]);
    assert_eq!(ints(&top), by_score[..5].iter().map(|&i| vec![int(i)]).collect::<Vec<_>>());
    let sorted = check_decode(&d, "SELECT id FROM f ORDER BY score DESC, id", &[("f", 2)]);
    assert_eq!(ints(&sorted), by_score.iter().map(|&i| vec![int(i)]).collect::<Vec<_>>());

    // A residual filter's column is decoded beside the projected one.
    let rows = check_decode(&d, "SELECT id FROM f WHERE score > 990", &[("f", 2)]);
    let expect: Vec<_> = all.iter().filter(|&&i| score(i) > 990).map(|&i| vec![int(i)]).collect();
    assert_eq!(ints(&rows), expect);
    // A Filter over a join reads a column from each side.
    let rows = check_decode(
        &d,
        "SELECT f.id FROM f JOIN d ON f.id = d.fid WHERE f.score + d.weight > 1010",
        &[("f", 2), ("d", 2)],
    );
    assert_eq!(ints(&rows), vec![vec![int(1)], vec![int(2)]]);

    // Hash joins, built on either side and LEFT: the fact side decodes its
    // key, the dimension side its key and `weight`.
    let matched = vec![vec![int(0), int(1000)], vec![int(1), int(1001)], vec![int(2), int(1002)]];
    let q = "SELECT f.id, d.weight FROM f JOIN d ON f.id = d.fid";
    assert_eq!(ints(&check_decode(&d, q, &[("f", 1), ("d", 2)])), matched);
    let q = "SELECT f.id, d.weight FROM d JOIN f ON d.fid = f.id";
    assert_eq!(ints(&check_decode(&d, q, &[("d", 2), ("f", 1)])), matched);
    let q = "SELECT f.id, d.weight FROM f LEFT JOIN d ON f.id = d.fid";
    let expect: Vec<_> = all.iter().map(|&i| vec![int(i), (i < 3).then_some(1000 + i)]).collect();
    assert_eq!(ints(&check_decode(&d, q, &[("f", 1), ("d", 2)])), expect);

    // A nested-loop join reads the `on` columns of each side.
    let q = "SELECT f.id, d.weight FROM f JOIN d ON f.id < d.fid";
    let rows = check_decode(&d, q, &[("f", 1), ("d", 2)]);
    let fids = [(0, 1000), (1, 1001), (2, 1002), (99999, 1003)];
    let expect: Vec<_> = all
        .iter()
        .flat_map(|&i| fids.iter().filter(move |(fid, _)| i < *fid).map(move |&(_, w)| (i, w)))
        .map(|(i, w)| vec![int(i), int(w)])
        .collect();
    assert_eq!(ints(&rows), expect);

    // DISTINCT reads every column, and so does `SELECT *`.
    let everything: Vec<Vec<Datum>> = all
        .iter()
        .map(|&i| vec![Datum::Int(i), Datum::Text(format!("L{}", i % 5)), Datum::Int(score(i))])
        .collect();
    assert_eq!(check_decode(&d, "SELECT DISTINCT * FROM f", &[("f", 3)]), everything);
    assert_eq!(check_decode(&d, "SELECT * FROM f", &[("f", 3)]), everything);
}

/// A join whose left scan decodes only its key prefix emits only the
/// columns read above it; the join's consumers still find the right side's
/// columns, because they read through the join's layout, not by binding
/// position.
#[test]
fn a_prefix_decoded_join_side_keeps_its_width() {
    let d = pruning_fixture();
    let expect = vec![
        vec![Datum::Int(1000), Datum::Int(0)],
        vec![Datum::Int(1001), Datum::Int(1)],
        vec![Datum::Int(1002), Datum::Int(2)],
    ];
    for sql in [
        "SELECT d.weight, f.id FROM f JOIN d ON f.id = d.fid",
        "SELECT d.weight, f.id FROM f JOIN d ON f.id = d.fid ORDER BY f.id",
        "SELECT d.weight, f.id FROM f JOIN d ON f.id <= d.fid AND d.fid <= f.id",
    ] {
        assert_eq!(check_decode(&d, sql, &[("f", 1), ("d", 2)]), expect, "{sql}");
    }
    let rows = check_decode(
        &d,
        "SELECT d.weight, f.id, d.note FROM f LEFT JOIN d ON f.id = d.fid WHERE f.id < 4",
        &[("f", 1), ("d", 3)],
    );
    let mut expect: Vec<Vec<Datum>> = (0..3)
        .map(|i| vec![Datum::Int(1000 + i), Datum::Int(i), Datum::Text(format!("n{i}"))])
        .collect();
    expect.push(vec![Datum::Null, Datum::Int(3), Datum::Null]);
    assert_eq!(rows, expect);
}
