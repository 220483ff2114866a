//! What the harness reads from the operating system: process CPU time,
//! peak resident set, file sizes, a calibration loop, and capture hygiene.

use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Kernel clock ticks per second. `/proc/self/stat` counts in these; Linux
/// has reported 100 on every mainstream architecture for two decades and
/// std offers no `sysconf`, so the constant is stated rather than queried.
const CLK_TCK: f64 = 100.0;

/// Process user + system CPU time in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks: f64 = fields.by_ref().take(2).filter_map(|f| f.parse::<f64>().ok()).sum();
    ticks * 1000.0 / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum::<u64>()
        })
        .unwrap_or(0)
}

/// Environment knobs that change the program under test. The harness
/// removes them so no ambient setting reaches the server or the engine.
pub const SCRUBBED_ENV_PREFIXES: &[&str] = &["GENALG_", "LOADGEN_"];
pub const SCRUBBED_ENV_NAMES: &[&str] = &["UNIDB_PARALLELISM"];

/// Remove every scrubbed variable; returns the names that were set. Must
/// run before any thread is spawned.
pub fn scrub_env() -> Vec<String> {
    let doomed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            SCRUBBED_ENV_PREFIXES.iter().any(|p| k.starts_with(p))
                || SCRUBBED_ENV_NAMES.contains(&k.as_str())
        })
        .collect();
    for name in &doomed {
        std::env::remove_var(name);
    }
    doomed
}

/// Where the benchmark writes: `$CARGO_TARGET_DIR/e2e`, or `target/e2e`
/// under the working directory. Both are git-ignored build output.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join("e2e")
}

/// A fixed pure-Rust reference loop (xorshift over a 1 MiB table), timed in
/// milliseconds. Captures taken on a faster or slower box, or in a noisy
/// window, differ in this figure by the same factor as in their timings.
pub fn calib_ms() -> f64 {
    const WORDS: usize = 1 << 17;
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..8_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&table);
    start.elapsed().as_secs_f64() * 1e3
}

/// The commit of the working directory's checkout, read from `.git`
/// without running git; `"unknown"` outside a repository.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
    }
}

/// Current UTC time as `YYYY-MM-DDTHH:MM:SSZ`.
pub fn utc_now() -> String {
    let secs = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Civil-from-days (Howard Hinnant's algorithm), valid for the Unix era.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3600,
        rem % 3600 / 60,
        rem % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Burn a little CPU so utime is non-zero even on a fresh process.
        let _ = calib_ms();
        assert!(cpu_ms() > 0.0);
        assert!(peak_rss_mib() > 1.0);
        assert!(utc_now().starts_with("20"));
    }
}
