//! The fleet manifest: what ran, what was cached, and how long each cell
//! took.
//!
//! Timings are wall-clock and therefore the one deliberately
//! non-deterministic artifact the fleet produces; everything else in the
//! manifest (cell order, labels, hashes, hit/miss flags) is a pure
//! function of the sweep specification. CI uses the `cached` flags to
//! assert a warm re-run was 100 % hits; `wall_us` and `total_wall_us`
//! are the only wall-clock-bearing keys (`tests/fleet.rs` pins that).

use std::fmt::Write as _;
use std::sync::Mutex;

use conga_trace::json::write_json_string;

/// One cell's orchestration record.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// The figure the cell belongs to.
    pub figure: String,
    /// The cell's display label.
    pub label: String,
    /// The scenario content hash.
    pub hash: String,
    /// Served from the result cache?
    pub cached: bool,
    /// Did the cell body panic? Failed cells contribute an empty result
    /// and are never cached; the batch keeps running.
    pub failed: bool,
    /// Wall-clock microseconds spent executing (0 for cache hits).
    pub wall_us: u64,
}

/// Process-global collector: every [`run`](crate::exec) batch appends its
/// records here, and the owning binary drains them into one manifest at
/// exit. A `Mutex<Vec>` because worker threads report concurrently.
static RECORDS: Mutex<Vec<CellRecord>> = Mutex::new(Vec::new());

/// Append one cell record to the process-global collector. Tolerates a
/// poisoned lock: a panicking cell elsewhere must not lose the batch's
/// records.
pub fn record(rec: CellRecord) {
    RECORDS.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
}

/// Drain every collected record (in collection order).
pub fn drain() -> Vec<CellRecord> {
    std::mem::take(&mut RECORDS.lock().unwrap_or_else(|e| e.into_inner()))
}

/// A complete manifest for one suite invocation.
#[derive(Debug, Clone)]
pub struct FleetManifest {
    /// Suite name (`"fig09_enterprise"`, `"fleet_all"`, ...).
    pub suite: String,
    /// Worker count the suite ran with.
    pub jobs: usize,
    /// Per-cell records, in sweep order.
    pub cells: Vec<CellRecord>,
    /// Total wall-clock of the invocation, microseconds.
    pub total_wall_us: u64,
}

impl FleetManifest {
    /// Cache hits among the cells.
    pub fn hits(&self) -> usize {
        self.cells.iter().filter(|c| c.cached).count()
    }

    /// Cells actually executed (misses).
    pub fn misses(&self) -> usize {
        self.cells.len() - self.hits()
    }

    /// Cells whose body panicked.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| c.failed).count()
    }

    /// Serialize as JSON (stable key order; timings are wall-clock and
    /// vary run to run by design).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 128 * self.cells.len());
        out.push_str("{\n  \"suite\": ");
        write_json_string(&mut out, &self.suite);
        out.push_str(",\n");
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"cells_total\": {},", self.cells.len());
        let _ = writeln!(out, "  \"cache_hits\": {},", self.hits());
        let _ = writeln!(out, "  \"cells_run\": {},", self.misses());
        let _ = writeln!(out, "  \"cells_failed\": {},", self.failures());
        let _ = writeln!(out, "  \"total_wall_us\": {},", self.total_wall_us);
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"figure\": ");
            write_json_string(&mut out, &c.figure);
            out.push_str(", \"label\": ");
            write_json_string(&mut out, &c.label);
            let _ = write!(
                out,
                ", \"hash\": \"{}\", \"cached\": {}, \"failed\": {}, \"wall_us\": {}}}",
                c.hash, c.cached, c.failed, c.wall_us
            );
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_counts_and_serializes() {
        let m = FleetManifest {
            suite: "test".into(),
            jobs: 2,
            cells: vec![
                CellRecord {
                    figure: "f".into(),
                    label: "a".into(),
                    hash: "1111".into(),
                    cached: true,
                    failed: false,
                    wall_us: 0,
                },
                CellRecord {
                    figure: "f".into(),
                    label: "b \"quoted\\".into(),
                    hash: "2222".into(),
                    cached: false,
                    failed: true,
                    wall_us: 1234,
                },
            ],
            total_wall_us: 5000,
        };
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 1);
        let j = m.to_json();
        assert!(j.contains("\"cache_hits\": 1"));
        assert!(j.contains("\"cells_run\": 1"));
        assert!(j.contains("\"cells_failed\": 1"));
        assert_eq!(m.failures(), 1);
        assert!(j.contains("\"hash\": \"2222\""));
        // Must be valid JSON by the workspace's own parser.
        let doc = conga_trace::json::parse(&j).expect("manifest parses");
        let cells = doc.get("cells").and_then(|c| c.as_arr()).expect("cells");
        assert_eq!(cells.len(), 2);
        // Names are escaped, not interpolated.
        assert_eq!(
            cells[1].get("label").and_then(|l| l.as_str()),
            Some("b \"quoted\\")
        );
    }

    #[test]
    fn global_collector_drains_in_order() {
        drain();
        record(CellRecord {
            figure: "f".into(),
            label: "x".into(),
            hash: "h1".into(),
            cached: false,
            failed: false,
            wall_us: 10,
        });
        record(CellRecord {
            figure: "f".into(),
            label: "y".into(),
            hash: "h2".into(),
            cached: true,
            failed: false,
            wall_us: 0,
        });
        let got = drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].label, "x");
        assert_eq!(got[1].label, "y");
        assert!(drain().is_empty());
    }
}
