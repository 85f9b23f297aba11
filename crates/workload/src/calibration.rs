//! On-disk rank-proxy calibration store.
//!
//! The cheap priority-space rank proxy (`removed_priority - min_hint`)
//! is only *proportional* to the true dequeue rank; history-audited
//! runs compute both, and their ratio — the backend quality report's
//! `rank_proxy_calibration` scalar — maps proxy units onto rank units.
//!
//! This module persists those ratios under a run's export directory as
//! `calibration.jsonl`, keyed by `(backend, policy, skew)` — the three
//! dimensions that change the proxy's scale (the structure, the rank
//! envelope, and the priority distribution). Later **non-history** runs
//! with the same key look the factor up and report a corrected-rank
//! estimate (`rank_corrected_mean`) next to the raw proxy, so cheap
//! sweeps get rank-scaled numbers without paying for history recording.
//!
//! The file is append-only; the freshest matching line wins on lookup,
//! so re-running a calibration scenario transparently refreshes the
//! factor. Unparseable lines are skipped (the store is advisory:
//! corruption degrades to "no calibration", never to a failed run).

use std::io::Write;
use std::path::Path;

use dlz_core::json::{parse, JsonObject, JsonValue};

/// File name of the calibration store inside an export directory.
pub const CALIBRATION_FILE: &str = "calibration.jsonl";

/// The lookup key: the dimensions a calibration factor is valid for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalibrationKey {
    /// Backend label (e.g. `multiqueue-heap(m=32,strict,sub=lockfree)`).
    pub backend: String,
    /// Choice-policy label (e.g. `two-choice`, `sticky(s=16)`).
    pub policy: String,
    /// Priority-distribution label (e.g. `monotonic`, `uniform(1048576)`).
    pub skew: String,
}

impl CalibrationKey {
    /// Builds a key from the run's backend label and scenario.
    pub fn new(backend: &str, policy: &str, skew: &str) -> Self {
        CalibrationKey {
            backend: backend.to_string(),
            policy: policy.to_string(),
            skew: skew.to_string(),
        }
    }
}

/// Appends one calibration observation to `<dir>/calibration.jsonl`.
///
/// Creates the directory and file on first use. Returns a description
/// of the failure (callers degrade it to a warning — the measurement is
/// already in hand).
pub fn record(dir: &Path, key: &CalibrationKey, calibration: f64) -> Result<(), String> {
    if !calibration.is_finite() {
        return Ok(()); // nothing worth persisting
    }
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("create calibration dir {}: {e}", dir.display()))?;
    let path = dir.join(CALIBRATION_FILE);
    let mut obj = JsonObject::new();
    obj.str("backend", &key.backend)
        .str("policy", &key.policy)
        .str("skew", &key.skew)
        .f64("calibration", calibration);
    let mut line = obj.finish();
    line.push('\n');
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open calibration store {}: {e}", path.display()))?;
    f.write_all(line.as_bytes())
        .map_err(|e| format!("append calibration store {}: {e}", path.display()))
}

/// Looks up the freshest calibration factor for `key` in
/// `<dir>/calibration.jsonl`. `None` when the store is missing or holds
/// no matching (parseable, finite) line.
pub fn lookup(dir: &Path, key: &CalibrationKey) -> Option<f64> {
    let text = std::fs::read_to_string(dir.join(CALIBRATION_FILE)).ok()?;
    let mut found = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = parse(line) else { continue };
        let field = |k: &str| -> Option<String> {
            v.get(k).and_then(JsonValue::as_str).map(str::to_string)
        };
        if field("backend").as_deref() == Some(key.backend.as_str())
            && field("policy").as_deref() == Some(key.policy.as_str())
            && field("skew").as_deref() == Some(key.skew.as_str())
        {
            if let Some(c) = v.get("calibration").and_then(JsonValue::as_f64) {
                if c.is_finite() {
                    found = Some(c); // last match wins: freshest entry
                }
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dlz-cal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_then_lookup_roundtrips_and_last_wins() {
        let dir = tmp("roundtrip");
        let key = CalibrationKey::new("multiqueue-heap(m=8,strict)", "two-choice", "monotonic");
        assert_eq!(lookup(&dir, &key), None, "empty store");
        record(&dir, &key, 1.5).expect("record");
        assert_eq!(lookup(&dir, &key), Some(1.5));
        // A refreshed observation supersedes the old one.
        record(&dir, &key, 2.25).expect("record");
        assert_eq!(lookup(&dir, &key), Some(2.25));
        // Other keys do not collide.
        let other = CalibrationKey::new("multiqueue-heap(m=8,strict)", "sticky(s=16)", "monotonic");
        assert_eq!(lookup(&dir, &other), None);
        record(&dir, &other, 0.5).expect("record");
        assert_eq!(lookup(&dir, &other), Some(0.5));
        assert_eq!(lookup(&dir, &key), Some(2.25), "old key unaffected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_lines_degrade_to_no_calibration() {
        let dir = tmp("corrupt");
        let key = CalibrationKey::new("b", "p", "s");
        record(&dir, &key, 3.0).expect("record");
        let path = dir.join(CALIBRATION_FILE);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{not json\n");
        std::fs::write(&path, text).expect("write");
        // The good line still resolves; the bad one is skipped.
        assert_eq!(lookup(&dir, &key), Some(3.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_factors_are_not_persisted() {
        let dir = tmp("nonfinite");
        let key = CalibrationKey::new("b", "p", "s");
        record(&dir, &key, f64::NAN).expect("silently skipped");
        assert_eq!(lookup(&dir, &key), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
