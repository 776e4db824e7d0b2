//! The content-addressed result cache.
//!
//! Completed cells are stored under `results/cache/<hash>.json`, keyed by
//! [`Scenario::content_hash`](crate::scenario::Scenario::content_hash).
//! A cached [`CellResult`] carries everything a harness needs to
//! reproduce the cell's contribution to merged sweep output *and* its
//! metrics sidecar byte-for-byte: the FCT summary, figure-specific
//! derived scalars/strings, and the full `RunReport` JSON artifact text.
//!
//! Entries are themselves deterministic (sorted keys, shortest
//! round-trip floats, no timestamps), so a warm cache produces artifacts
//! byte-identical to a cold run. Unreadable or stale-format entries are
//! treated as misses, never as errors.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;

use conga_analysis::fct::FctSummary;
use conga_trace::json::{parse, write_json_f64, write_json_string, Value};

/// Everything a finished cell contributes to its figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellResult {
    /// The paper-format FCT summary (zeroed for non-FCT cells).
    pub summary: FctSummary,
    /// Figure-specific derived scalars (imbalance percentiles, goodput
    /// percentages, throughput phases, ...), keyed by stable names.
    pub values: BTreeMap<String, f64>,
    /// Figure-specific derived strings (e.g. a reconvergence time that
    /// may be `"never"`).
    pub text: BTreeMap<String, String>,
    /// The cell's full telemetry artifact, exactly as `conga-telemetry`'s
    /// `RunReport::to_json` rendered it — re-written verbatim as the
    /// metrics sidecar on a cache hit.
    pub report_json: String,
}

impl CellResult {
    /// Read a derived scalar, defaulting to 0.0.
    pub fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Serialize to the deterministic cache-entry JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.report_json.len());
        out.push_str("{\n  \"summary\": {");
        let s = &self.summary;
        let _ = write!(out, "\"n\": {}, ", s.n);
        let _ = write!(out, "\"incomplete\": {}, ", s.incomplete);
        // Empty size buckets (`None`) and non-finite floats both serialize
        // as JSON null; `parse` maps null back to `None` for the bucket
        // fields and NaN elsewhere.
        for (k, v) in [
            ("avg_s", Some(s.avg_s)),
            ("avg_norm_optimal", Some(s.avg_norm_optimal)),
            ("mean_slowdown", Some(s.mean_slowdown)),
            ("small_avg_s", s.small_avg_s),
            ("large_avg_s", s.large_avg_s),
            ("p50_s", Some(s.p50_s)),
            ("p95_s", Some(s.p95_s)),
            ("p99_s", Some(s.p99_s)),
        ] {
            let _ = write!(out, "\"{k}\": ");
            match v {
                Some(v) => write_json_f64(&mut out, v),
                None => out.push_str("null"),
            }
            if k != "p99_s" {
                out.push_str(", ");
            }
        }
        out.push_str("},\n  \"values\": {");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, k);
            out.push_str(": ");
            write_json_f64(&mut out, *v);
        }
        out.push_str("},\n  \"text\": {");
        for (i, (k, v)) in self.text.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, k);
            out.push_str(": ");
            write_json_string(&mut out, v);
        }
        out.push_str("},\n  \"report_json\": ");
        write_json_string(&mut out, &self.report_json);
        out.push_str("\n}\n");
        out
    }

    /// Parse a cache entry written by [`Self::to_json`].
    pub fn parse(text: &str) -> Result<CellResult, String> {
        let doc = parse(text)?;
        let s = doc.get("summary").ok_or("missing summary")?;
        let f = |k: &str| -> Result<f64, String> {
            match s.get(k) {
                Some(Value::Null) => Ok(f64::NAN),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| format!("summary.{k} not a number")),
                None => Err(format!("missing summary.{k}")),
            }
        };
        // Bucket means: null means "no flows in this bucket" (None), not
        // NaN — the distinction survives a cache round-trip.
        let opt = |k: &str| -> Result<Option<f64>, String> {
            match s.get(k) {
                Some(Value::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("summary.{k} not a number")),
                None => Err(format!("missing summary.{k}")),
            }
        };
        let summary = FctSummary {
            n: s.get("n")
                .and_then(Value::as_u64)
                .ok_or("missing summary.n")? as usize,
            avg_s: f("avg_s")?,
            avg_norm_optimal: f("avg_norm_optimal")?,
            mean_slowdown: f("mean_slowdown")?,
            small_avg_s: opt("small_avg_s")?,
            large_avg_s: opt("large_avg_s")?,
            p50_s: f("p50_s")?,
            p95_s: f("p95_s")?,
            p99_s: f("p99_s")?,
            incomplete: s
                .get("incomplete")
                .and_then(Value::as_u64)
                .ok_or("missing summary.incomplete")? as usize,
        };
        let mut values = BTreeMap::new();
        if let Some(Value::Obj(fields)) = doc.get("values") {
            for (k, v) in fields {
                let v = match v {
                    Value::Null => f64::NAN,
                    v => v
                        .as_f64()
                        .ok_or_else(|| format!("values.{k} not a number"))?,
                };
                values.insert(k.clone(), v);
            }
        }
        let mut text_map = BTreeMap::new();
        if let Some(Value::Obj(fields)) = doc.get("text") {
            for (k, v) in fields {
                let v = v.as_str().ok_or_else(|| format!("text.{k} not a string"))?;
                text_map.insert(k.clone(), v.to_string());
            }
        }
        let report_json = doc
            .get("report_json")
            .and_then(Value::as_str)
            .ok_or("missing report_json")?
            .to_string();
        Ok(CellResult {
            summary,
            values,
            text: text_map,
            report_json,
        })
    }
}

/// A content-addressed cache directory (or a disabled stand-in).
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// The repository-standard location, `results/cache`.
    pub fn standard() -> Self {
        Self::at("results/cache")
    }

    /// A cache rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: Some(dir.into()),
        }
    }

    /// A cache that never hits and never stores (`--no-cache`).
    pub fn disabled() -> Self {
        ResultCache { dir: None }
    }

    /// Is this cache live?
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The entry path for a scenario hash, if enabled.
    pub fn path_for(&self, hash: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{hash}.json")))
    }

    /// Look a hash up. Missing, unreadable, or unparsable entries are
    /// misses.
    pub fn lookup(&self, hash: &str) -> Option<CellResult> {
        let path = self.path_for(hash)?;
        let text = std::fs::read_to_string(path).ok()?;
        CellResult::parse(&text).ok()
    }

    /// Store a finished cell under its hash. No-op when disabled.
    ///
    /// The write goes through a worker-unique temp file and an atomic
    /// rename, so a concurrent reader can never observe a torn entry.
    pub fn store(&self, hash: &str, result: &CellResult) -> io::Result<()> {
        let Some(path) = self.path_for(hash) else {
            return Ok(());
        };
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension(format!("tmp.{:?}", std::thread::current().id()));
        std::fs::write(&tmp, result.to_json())?;
        std::fs::rename(&tmp, &path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellResult {
        let mut r = CellResult {
            summary: FctSummary {
                n: 80,
                avg_s: 0.01234,
                avg_norm_optimal: 1.5,
                mean_slowdown: 2.25,
                small_avg_s: Some(0.001),
                large_avg_s: None,
                p50_s: 0.009,
                p95_s: 0.04,
                p99_s: 0.11,
                incomplete: 1,
            },
            ..CellResult::default()
        };
        r.values.insert("p50".into(), 42.5);
        r.values.insert("p95".into(), 97.0);
        r.text.insert("reconverge".into(), "never".into());
        r.report_json = "{\n  \"meta\": {\"scheme\": \"CONGA\"}\n}\n".into();
        r
    }

    #[test]
    fn round_trips_through_json_byte_identically() {
        let r = sample();
        let j1 = r.to_json();
        let back = CellResult::parse(&j1).expect("parse");
        assert_eq!(back.summary.n, 80);
        assert_eq!(back.summary.avg_s, 0.01234);
        assert_eq!(back.summary.small_avg_s, Some(0.001));
        assert_eq!(back.summary.large_avg_s, None, "empty bucket survives");
        assert_eq!(back.summary.p95_s, 0.04);
        assert_eq!(back.summary.p99_s, 0.11);
        assert_eq!(back.values, r.values);
        assert_eq!(back.text, r.text);
        assert_eq!(back.report_json, r.report_json);
        // Re-serializing the parsed value reproduces the entry exactly.
        assert_eq!(back.to_json(), j1);
    }

    #[test]
    fn cache_store_lookup_and_miss() {
        let dir = std::env::temp_dir().join("conga-fleet-cache-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::at(&dir);
        assert!(cache.lookup("deadbeefdeadbeef").is_none());
        let r = sample();
        cache.store("deadbeefdeadbeef", &r).unwrap();
        let hit = cache.lookup("deadbeefdeadbeef").expect("hit");
        assert_eq!(hit.values, r.values);
        assert_eq!(hit.report_json, r.report_json);
        // Corrupt entries read as misses.
        std::fs::write(dir.join("feedfacefeedface.json"), "{not json").unwrap();
        assert!(cache.lookup("feedfacefeedface").is_none());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(cache.lookup("deadbeefdeadbeef").is_none());
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ResultCache::disabled();
        assert!(!cache.is_enabled());
        cache.store("aaaa", &sample()).unwrap();
        assert!(cache.lookup("aaaa").is_none());
    }
}
