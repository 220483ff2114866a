//! Incident flight recorder: self-contained diagnostic bundles written to
//! disk when something crosses a line.
//!
//! A bundle is a plain-text report of named sections (trace-ring tail,
//! slow queries, metric history, hottest fingerprints, plan-audit tail —
//! whatever the caller assembles), rendered with `== section ==` headers
//! so a human can read it raw and a test can assert sections exist. The
//! server writes one on worker panics and conflict storms (from the
//! sampler tick), so a failing run ships its own diagnosis.
//!
//! [`IncidentRecorder`] adds rate limiting: a storm of triggers produces
//! one bundle per interval, not thousands of identical files.

use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Where incident bundles land: `GENALG_INCIDENT_DIR` if set, else
/// `target/incidents` relative to the working directory.
pub fn incident_dir() -> PathBuf {
    match std::env::var("GENALG_INCIDENT_DIR") {
        Ok(dir) if !dir.trim().is_empty() => PathBuf::from(dir.trim()),
        _ => PathBuf::from("target/incidents"),
    }
}

/// One self-contained incident report: a reason plus ordered sections.
#[derive(Debug, Clone)]
pub struct IncidentBundle {
    /// Why this bundle exists (e.g. `slo_violation`, `worker_panic`).
    pub reason: String,
    sections: Vec<(String, String)>,
}

impl IncidentBundle {
    /// An empty bundle for `reason`.
    pub fn new(reason: impl Into<String>) -> Self {
        IncidentBundle { reason: reason.into(), sections: Vec::new() }
    }

    /// Append a section. An empty body renders as `(none)` so the bundle
    /// always shows which sections were *collected*, not just non-empty.
    pub fn section(&mut self, title: impl Into<String>, body: impl Into<String>) -> &mut Self {
        self.sections.push((title.into(), body.into()));
        self
    }

    /// Section titles, in order.
    pub fn section_titles(&self) -> Vec<&str> {
        self.sections.iter().map(|(t, _)| t.as_str()).collect()
    }

    /// The full plain-text report.
    pub fn render(&self) -> String {
        let mut out = format!("incident: {}\n", self.reason);
        for (title, body) in &self.sections {
            out.push_str(&format!("\n== {title} ==\n"));
            let body = body.trim_end();
            if body.is_empty() {
                out.push_str("(none)\n");
            } else {
                out.push_str(body);
                out.push('\n');
            }
        }
        out
    }

    /// Write the rendered bundle to `dir` as
    /// `incident-<hint>-<epoch_secs>-<seq>.txt`, creating the directory.
    /// The global sequence number keeps same-second bundles distinct.
    pub fn write_to(&self, dir: &Path, hint: &str) -> std::io::Result<PathBuf> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)?;
        let secs = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let hint: String = hint
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let path = dir.join(format!("incident-{hint}-{secs}-{seq}.txt"));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

/// Rate-limited bundle writer for automatic triggers.
#[derive(Debug)]
pub struct IncidentRecorder {
    dir: PathBuf,
    min_interval: Duration,
    last_write: Mutex<Option<Instant>>,
    written: AtomicU64,
    suppressed: AtomicU64,
}

impl IncidentRecorder {
    /// A recorder writing to `dir`, at most one bundle per `min_interval`.
    pub fn new(dir: PathBuf, min_interval: Duration) -> Self {
        IncidentRecorder {
            dir,
            min_interval,
            last_write: Mutex::new(None),
            written: AtomicU64::new(0),
            suppressed: AtomicU64::new(0),
        }
    }

    /// The directory bundles land in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write `bundle` unless one was written within the rate-limit window
    /// (then it is counted as suppressed). Returns the path written, if
    /// any; I/O failures are swallowed into `None` — the flight recorder
    /// must never take the server down with it.
    pub fn record(&self, bundle: &IncidentBundle, hint: &str) -> Option<PathBuf> {
        {
            let mut last = self.last_write.lock();
            if let Some(at) = *last {
                if at.elapsed() < self.min_interval {
                    self.suppressed.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
            *last = Some(Instant::now());
        }
        match bundle.write_to(&self.dir, hint) {
            Ok(path) => {
                self.written.fetch_add(1, Ordering::Relaxed);
                Some(path)
            }
            Err(_) => None,
        }
    }

    /// Bundles written since creation.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Triggers swallowed by the rate limit.
    pub fn suppressed(&self) -> u64 {
        self.suppressed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_carries_reason_and_sections_in_order() {
        let mut b = IncidentBundle::new("slo_violation");
        b.section("fingerprints", "fp1 12 calls");
        b.section("history", "");
        b.section("plan changes", "seq 1: a -> b");
        let text = b.render();
        assert!(text.starts_with("incident: slo_violation\n"));
        let fp = text.find("== fingerprints ==").unwrap();
        let hist = text.find("== history ==").unwrap();
        let plans = text.find("== plan changes ==").unwrap();
        assert!(fp < hist && hist < plans, "sections out of order:\n{text}");
        // Empty sections still show up, marked as collected-but-empty.
        assert!(text.contains("== history ==\n(none)\n"), "{text}");
        assert_eq!(b.section_titles(), vec!["fingerprints", "history", "plan changes"]);
    }

    #[test]
    fn write_to_creates_distinct_sanitized_files() {
        let dir = std::env::temp_dir().join(format!("genalg-obs-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = IncidentBundle::new("test");
        let p1 = b.write_to(&dir, "point_lookups").unwrap();
        let p2 = b.write_to(&dir, "weird/../name with spaces").unwrap();
        assert_ne!(p1, p2);
        let n2 = p2.file_name().unwrap().to_str().unwrap();
        assert!(!n2.contains('/') && !n2.contains(' '), "unsanitized name: {n2}");
        assert!(std::fs::read_to_string(&p1).unwrap().starts_with("incident: test"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_rate_limits() {
        let dir = std::env::temp_dir().join(format!("genalg-obs-rl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = IncidentRecorder::new(dir.clone(), Duration::from_secs(3600));
        let b = IncidentBundle::new("storm");
        assert!(rec.record(&b, "storm").is_some());
        assert!(rec.record(&b, "storm").is_none(), "second write inside the window");
        assert_eq!(rec.written(), 1);
        assert_eq!(rec.suppressed(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incident_dir_honours_env_override() {
        // Read-only check of the default (the env var is process-global;
        // tests must not set it and race other tests).
        if std::env::var("GENALG_INCIDENT_DIR").is_err() {
            assert_eq!(incident_dir(), PathBuf::from("target/incidents"));
        }
    }
}
