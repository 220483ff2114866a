//! The arithmetic every reported number goes through: exact percentiles
//! with the ten-samples-beyond rule, slice-median throughput, quartile
//! spread, and self time by differencing nested calls.

/// Median of unsorted values; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Exact nearest-rank percentile `p` (0 < p < 1) of sorted samples. A
/// percentile is reported only if at least [`MIN_BEYOND`] samples lie beyond
/// it; with fewer, the highest rank that still has that many beyond it is
/// reported instead. Returns the value and the percentile it actually is.
pub fn percentile_capped(sorted: &[u32], p: f64) -> Option<(u32, f64)> {
    let n = sorted.len();
    let rank = nearest_rank(n, p)?;
    if n - rank >= MIN_BEYOND {
        Some((sorted[rank - 1], p))
    } else if n > MIN_BEYOND {
        let rank = n - MIN_BEYOND;
        Some((sorted[rank - 1], rank as f64 / n as f64))
    } else {
        None
    }
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..1.0).contains(&p) || p <= 0.0 {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

/// Completion times (seconds since the window opened) of every operation,
/// in completion order, cut into `slices` equal parts by operation index.
/// Returns operations per second of each slice.
pub fn slice_rates(end_times: &[f64], slices: usize) -> Vec<f64> {
    let n = end_times.len();
    if n < slices || slices == 0 {
        return Vec::new();
    }
    let mut rates = Vec::with_capacity(slices);
    let mut prev_idx = 0;
    let mut prev_t = 0.0;
    for s in 1..=slices {
        let idx = n * s / slices;
        let t = end_times[idx - 1];
        let dt = t - prev_t;
        rates.push(if dt > 0.0 { (idx - prev_idx) as f64 / dt } else { 0.0 });
        prev_idx = idx;
        prev_t = t;
    }
    rates
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// Standard error of the median of `values`, from their interquartile
/// distance (σ ≈ IQR / 1.349, SE ≈ 1.2533 σ / √n). Infinite below two
/// values: one sample says nothing about its own noise.
pub fn median_se(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => 1.2533 * (q3 - q1) / 1.349 / (values.len() as f64).sqrt(),
        None => f64::INFINITY,
    }
}

/// One recorded span. `parent` indexes into the same slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children. A negative value means the children were measured longer than
/// the call that contains them; it is returned as measured, never clamped,
/// so the caller can count and report it.
pub fn self_times_ns(spans: &[Span]) -> Vec<i64> {
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns() as i64;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<u32> = (1..=200).collect();
        // p95 of 200 samples is rank 190: exactly ten lie beyond.
        assert_eq!(percentile_capped(&samples, 0.95), Some((190, 0.95)));
        assert_eq!(percentile_capped(&samples, 0.5), Some((100, 0.5)));
        // p99 is rank 198, only two beyond: rank 190 is the highest reportable.
        assert_eq!(percentile_capped(&samples, 0.99), Some((190, 0.95)));
        // One sample fewer and p95 itself is out of reach.
        let (v, p) = percentile_capped(&samples[..199], 0.95).unwrap();
        assert_eq!(v, 189);
        assert!(p < 0.95);
        assert_eq!(percentile_capped(&samples[..10], 0.5), None);
        assert_eq!(percentile_capped(&[], 0.5), None);
    }

    #[test]
    fn slice_median_ignores_one_slow_slice() {
        // 100 ops: 10 ms apart, except one 2 s stall inside the third slice.
        let mut t = 0.0;
        let mut ends = Vec::new();
        for i in 0..100 {
            t += if i == 50 { 2.0 } else { 0.01 };
            ends.push(t);
        }
        let rates = slice_rates(&ends, 5);
        assert_eq!(rates.len(), 5);
        assert!((median(&rates) - 100.0).abs() < 1e-6, "{rates:?}");
        assert!(rates[2] < 10.0);
        assert!(slice_rates(&ends[..3], 5).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) -> [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        // IQR 5.5, n 10: 1.2533 * (5.5 / 1.349) / sqrt(10).
        assert!((median_se(&v) - 1.61587).abs() < 1e-4);
        assert!(median_se(&[5.0]).is_infinite());
    }

    #[test]
    fn self_time_is_duration_minus_children_and_may_go_negative() {
        let span = |name: &str, parent, start_ns, end_ns| Span {
            name: name.into(),
            request: 1,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("tcp", None, 0, 100),
            span("service", Some(0), 10, 70),
            span("parse", Some(1), 12, 20),
            span("execute", Some(1), 20, 65),
            // A child measured longer than its parent.
            span("outer", None, 200, 210),
            span("inner", Some(4), 200, 225),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 7, 8, 45, -15, 25]);
    }
}
