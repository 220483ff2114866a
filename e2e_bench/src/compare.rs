//! `--compare A.json B.json`: one row per workload × end-to-end metric with
//! both medians, the ratio with its base, the bound and a verdict, and
//! under each row the layer metrics the interaction table says feed it.

use crate::json::Json;
use crate::metrics::{feeding, END_TO_END, WORKLOADS};
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: the comparison
    /// cannot tell a change from noise.
    Unresolved,
}

pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// B ÷ A.
    pub ratio: f64,
    pub bound: f64,
    /// Widest interquartile distance ÷ median of the two captures.
    pub spread: f64,
    pub verdict: Verdict,
}

fn stat(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let median = m.get("median")?.as_f64()?;
    let iqr = m.get("q3")?.as_f64()? - m.get("q1")?.as_f64()?;
    Some((median, if median != 0.0 { iqr / median.abs() } else { 0.0 }))
}

pub fn rows(a: &Json, b: &Json) -> Vec<Row> {
    let mut out = Vec::new();
    for w in WORKLOADS {
        for m in END_TO_END {
            let (Some((ma, sa)), Some((mb, sb))) =
                (stat(a, w.name, m.name), stat(b, w.name, m.name))
            else {
                continue;
            };
            let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
            let worse_by = if m.better == "lower" { ratio - 1.0 } else { 1.0 - ratio };
            let spread = sa.max(sb);
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            out.push(Row {
                workload: w.name,
                metric: m.name,
                a: ma,
                b: mb,
                ratio,
                bound: m.bound,
                spread,
                verdict,
            });
        }
    }
    out
}

fn layer(doc: &Json, workload: &str, name: &str) -> Option<f64> {
    doc.get("workloads")?.get(workload)?.get("per_layer")?.get(name)?.as_f64()
}

fn header(doc: &Json, file: &str) -> String {
    let text = |k: &str| doc.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let calib = doc.get("calib_ms").and_then(|c| c.get("before")).and_then(Json::as_f64);
    format!(
        "{file}: captured {} commit {} seed {} reps {} nproc {} smoke {} calib_ms {:.1}",
        text("captured"),
        text("commit").chars().take(12).collect::<String>(),
        num("seed"),
        num("reps"),
        num("nproc"),
        matches!(doc.get("smoke"), Some(Json::Bool(true))),
        calib.unwrap_or(f64::NAN)
    )
}

pub fn run(file_a: &str, file_b: &str) -> Result<ExitCode, String> {
    let load = |file: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{file}: {e}"))
    };
    let (a, b) = (load(file_a)?, load(file_b)?);
    println!("A = {}", header(&a, file_a));
    println!("B = {}", header(&b, file_b));
    let rows = rows(&a, &b);
    if rows.is_empty() {
        return Err("the two documents share no workload and metric".into());
    }
    let mut bad = 0;
    for row in &rows {
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        };
        bad += u32::from(row.verdict != Verdict::Ok);
        println!(
            "{:<17} {:<17} A={:<13.4} B={:<13.4} B/A={:<7.4} bound={:<5} spread={:<6.3} {verdict}",
            row.workload, row.metric, row.a, row.b, row.ratio, row.bound, row.spread
        );
        for name in feeding(row.metric, row.workload) {
            if let (Some(la), Some(lb)) =
                (layer(&a, row.workload, name), layer(&b, row.workload, name))
            {
                let ratio = if la != 0.0 { format!("{:.4}", lb / la) } else { "-".into() };
                println!("    {name:<42} A={la:<13.4} B={lb:<13.4} B/A={ratio}");
            }
        }
    }
    println!("{} rows, {bad} not ok", rows.len());
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(throughput: (f64, f64, f64), p50: (f64, f64, f64)) -> Json {
        let stat = |(median, q1, q3): (f64, f64, f64)| {
            Json::obj(vec![
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
            ])
        };
        Json::obj(vec![(
            "workloads",
            Json::obj(vec![(
                "oltp_point",
                Json::obj(vec![(
                    "end_to_end",
                    Json::obj(vec![
                        ("throughput_ops_s", stat(throughput)),
                        ("latency_p50_us", stat(p50)),
                    ]),
                )]),
            )]),
        )])
    }

    /// Documents survive being written and read back, and the verdicts
    /// follow the rule: spread first, then the bound, in the metric's
    /// own direction.
    #[test]
    fn verdicts_through_a_json_round_trip() {
        let a = doc((1000.0, 990.0, 1010.0), (100.0, 99.0, 101.0));
        // Throughput 30% lower (worse), latency 30% lower (better).
        let b = doc((700.0, 695.0, 705.0), (70.0, 69.0, 71.0));
        let reread = |d: &Json| Json::parse(&d.pretty()).expect("parses back");
        let rows = rows(&reread(&a), &reread(&b));
        assert_eq!(rows.len(), 2);
        let by = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap();
        assert_eq!(by("throughput_ops_s").verdict, Verdict::Worse);
        assert!((by("throughput_ops_s").ratio - 0.7).abs() < 1e-12);
        assert_eq!(by("latency_p50_us").verdict, Verdict::Ok);

        // The same medians with a wide spread cannot be resolved.
        let noisy = doc((700.0, 550.0, 850.0), (70.0, 69.0, 71.0));
        let rows = super::rows(&a, &noisy);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        // A capture compared with itself is ok everywhere.
        assert!(super::rows(&a, &a).iter().all(|r| r.verdict == Verdict::Ok));
    }
}
