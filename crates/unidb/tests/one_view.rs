//! One view of the engine: a statement plans and executes against the same
//! `ReadView` whichever entry it came in through, so an autocommit
//! statement, the same statement inside a transaction, and the same
//! statement prepared and executed return the same rows and do the same
//! deterministic work — and a scan inside a transaction prunes pages by zone
//! map even when the table has been written since its snapshot.

use unidb::Database;

/// Rows in the big table: enough pages that a parallel scan splits into
/// several morsels and a narrow range leaves most pages refutable.
const ROWS: i64 = 6000;

/// `reads(id, pos, grp, score)`: `id` and `pos` both follow insertion order
/// (so page zones on them are tight), only `id` and `score` are indexed.
/// `first` goes in ahead of the rest, i.e. onto page 0.
fn seeded(first: Option<&str>) -> Database {
    let db = Database::in_memory();
    db.execute_script(
        "CREATE TABLE reads (id INT NOT NULL, pos INT, grp INT, score INT);
         CREATE UNIQUE INDEX ON reads (id);
         CREATE INDEX ON reads (score);",
    )
    .unwrap();
    if let Some(row) = first {
        db.execute(&format!("INSERT INTO reads VALUES {row}")).unwrap();
    }
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(500) {
        let values: Vec<String> =
            chunk.iter().map(|i| format!("({i}, {i}, {}, {})", i % 7, (i * 7919) % 1000)).collect();
        db.execute(&format!("INSERT INTO reads VALUES {}", values.join(","))).unwrap();
    }
    db
}

/// `EXPLAIN ANALYZE` text with the run-to-run counters (`batches`,
/// `time_us`) removed: what `OpStatsSnapshot::render_counters` prints.
fn deterministic(explain: &str) -> String {
    let mut out = String::new();
    for line in explain.lines() {
        for (i, word) in line.split(' ').enumerate() {
            if word.starts_with("batches=") || word.starts_with("time_us=") {
                // The last counter of a node carries its closing parenthesis.
                out.push_str(if word.ends_with(')') { ")" } else { "" });
            } else {
                out.push_str(if i > 0 { " " } else { "" });
                out.push_str(word);
            }
        }
        out.push('\n');
    }
    out
}

fn sorted(rows: &[Vec<unidb::Datum>]) -> Vec<String> {
    let mut rows: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort_unstable();
    rows
}

#[test]
fn every_entry_runs_the_same_statement() {
    let db = seeded(None);
    // (statement, its access path, whether zone maps must skip pages)
    let statements = [
        ("SELECT id, score FROM reads WHERE pos BETWEEN 1000 AND 1100", "SeqScan", true),
        ("SELECT id, score FROM reads WHERE id = 4242", "IndexEqScan", false),
        ("SELECT id, pos FROM reads WHERE id BETWEEN 100 AND 140", "IndexRangeScan", false),
        ("SELECT grp, count(*), min(score) FROM reads GROUP BY grp", "SeqScan", false),
    ];
    for (sql, access, prunes) in statements {
        let mut at_width = Vec::new();
        for width in [1, 4] {
            db.set_parallelism(width);
            let (auto, stats) = db.explain_analyze(sql).unwrap();
            let counters = stats.render_counters();
            assert!(counters.contains(access), "{sql}: expected {access} in\n{counters}");
            if prunes {
                assert!(
                    !counters.contains("pages_skipped=0 "),
                    "{sql}: nothing pruned\n{counters}"
                );
            }
            assert_eq!(db.execute(sql).unwrap().rows, auto.rows, "{sql}: execute");
            let text = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap().explain.unwrap();
            assert_eq!(deterministic(&text), counters, "{sql}: autocommit EXPLAIN ANALYZE");

            let txn = db.txn_begin();
            assert_eq!(db.txn_execute(txn, sql).unwrap().rows, auto.rows, "{sql}: in a txn");
            let text = db.txn_execute(txn, &format!("EXPLAIN ANALYZE {sql}")).unwrap();
            assert_eq!(deterministic(&text.explain.unwrap()), counters, "{sql}: txn counters");
            db.txn_commit(txn).unwrap();

            let prepared = db.prepare(sql).unwrap();
            assert!(prepared.access_label().starts_with(access), "{sql}: prepared path");
            assert_eq!(db.execute_prepared(&prepared).unwrap().rows, auto.rows, "{sql}: prepared");
            at_width.push((sorted(&auto.rows), counters));
        }
        assert_eq!(at_width[0], at_width[1], "{sql}: parallelism 1 vs 4");
    }
}

/// A range scan inside a transaction, on a table made dirty both by commits
/// after the snapshot and by the transaction's own writes, skips the pages
/// whose zones refute the range and still returns exactly what the snapshot
/// plus the write-set hold — including a row whose prior image lies inside
/// the range while the page it lives on has since been refuted.
#[test]
fn a_dirty_table_is_zone_pruned_and_still_exact() {
    // Row -1 lives on page 0; once it moves, nothing there is near 3000.
    let db = seeded(Some("(-1, 3000, 0, 0)"));
    let range = "SELECT id, pos FROM reads WHERE pos BETWEEN 2990 AND 3010";
    let mut want: Vec<(i64, i64)> = (2990..=3010).map(|i| (i, i)).chain([(-1, 3000)]).collect();
    want.sort_unstable();

    let txn = db.txn_begin();
    let read = |sql: &str| {
        let mut out: Vec<(i64, i64)> = db
            .txn_execute(txn, sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        out.sort_unstable();
        out
    };
    assert_eq!(read(range), want);

    // Commits after the snapshot: none of them may show.
    db.execute("UPDATE reads SET pos = 1 WHERE id = -1").unwrap();
    db.execute("DELETE FROM reads WHERE id = 2995").unwrap();
    db.execute("UPDATE reads SET pos = 2 WHERE id = 3002").unwrap();
    db.execute("INSERT INTO reads VALUES (99999, 3005, 0, 0)").unwrap();
    assert_eq!(read(range), want, "the snapshot does not move");

    // Own writes: all of them must.
    db.txn_execute(txn, "UPDATE reads SET pos = 3001 WHERE id = 10").unwrap();
    db.txn_execute(txn, "DELETE FROM reads WHERE id = 2999").unwrap();
    db.txn_execute(txn, "INSERT INTO reads VALUES (77777, 3003, 0, 0)").unwrap();
    want.retain(|(id, _)| *id != 2999);
    want.extend([(10, 3001), (77777, 3003)]);
    want.sort_unstable();

    let mut counters = Vec::new();
    for width in [1, 4] {
        db.set_parallelism(width);
        assert_eq!(read(range), want, "parallelism {width}");
        let text = db.txn_execute(txn, &format!("EXPLAIN ANALYZE {range}")).unwrap();
        let text = deterministic(&text.explain.unwrap());
        assert!(text.contains("SeqScan"), "{text}");
        let skipped: u64 = text
            .split("pages_skipped=")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("a scan reports pages_skipped");
        assert!(skipped > 0, "a dirty table must still be zone-pruned:\n{text}");
        counters.push(text);
    }
    assert_eq!(counters[0], counters[1], "counters at parallelism 1 vs 4");
    db.txn_rollback(txn).unwrap();
}
