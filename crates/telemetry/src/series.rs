//! Fixed-interval time-series gauges with bounded-memory downsampling.
//!
//! A [`SeriesRegistry`] holds named series sampled on *simulated-time*
//! window boundaries (queue depth, utilization, DRE estimates, flowlet
//! occupancy, active flows, ...). Each series is a dense array of
//! buckets starting at window 0; a bucket at resolution `level` spans
//! `2^level` base windows and stores the **sum** of the recorded values
//! plus the **count** of base windows actually recorded, so its exported
//! value is the mean over the windows that were sampled.
//!
//! # Bounded memory
//!
//! When a series would exceed its bucket capacity, adjacent bucket pairs
//! are merged and the level is incremented — resolution halves, memory
//! stays bounded, and the long-run mean of every merged bucket is exact
//! (sums and window counts add).
//!
//! # Shard-domain merge
//!
//! A sharded run samples each series in the domain(s) that own the
//! underlying state; replicas record zeros or nothing at all.
//! [`SeriesRegistry::merge_domain`] aligns resolutions and then adds
//! bucket sums while taking the **max** of the window counts: two
//! domains that sampled the same window each contributed a *partial*
//! value of one observation, so the merged value is the sum of the
//! partials over one window — exactly the monolithic engine's reading.
//! A window sampled by only one domain keeps `max(1, 0) = 1`.
//!
//! # Determinism contract
//!
//! Series are keyed in a [`BTreeMap`], values derive only from simulated
//! state, timestamps are integer simulated nanoseconds, and the
//! [`SeriesRegistry::to_jsonl`] / [`SeriesRegistry::to_csv`] exporters
//! iterate in sorted-name order — same seed ⇒ byte-identical artifacts
//! for any `--jobs`/`--shards`/cache state. No wall-clock value can
//! reach these exporters: this crate reads no clock (the fleet manifest
//! is the one quarantined home for wall-clock).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use conga_sim::{SimDuration, SimTime};
use conga_trace::json::write_json_f64;

/// Default bucket capacity per series before resolution halves.
pub const DEFAULT_SERIES_CAPACITY: usize = 512;

/// Schema tag stamped into every JSONL export; bump on layout changes.
pub const SERIES_SCHEMA: &str = "conga-series/v1";

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    /// Sum of recorded window values.
    sum: f64,
    /// Base windows actually recorded into this bucket.
    windows: u64,
}

/// One named series: dense buckets from window 0 at resolution `level`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Series {
    /// Each bucket spans `2^level` base windows.
    level: u32,
    buckets: Vec<Bucket>,
}

impl Series {
    /// Halve resolution: merge adjacent bucket pairs.
    fn downsample(&mut self) {
        let n = self.buckets.len().div_ceil(2);
        let mut merged = Vec::with_capacity(n);
        for pair in self.buckets.chunks(2) {
            let mut b = pair[0];
            if let Some(second) = pair.get(1) {
                b.sum += second.sum;
                b.windows += second.windows;
            }
            merged.push(b);
        }
        self.buckets = merged;
        self.level += 1;
    }

    /// Raise this series to at least `level`, downsampling as needed.
    fn raise_to(&mut self, level: u32) {
        while self.level < level {
            self.downsample();
        }
    }

    fn record(&mut self, base_window: u64, value: f64, cap: usize) {
        let mut idx = (base_window >> self.level) as usize;
        while idx >= cap {
            self.downsample();
            idx = (base_window >> self.level) as usize;
        }
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, Bucket::default());
        }
        self.buckets[idx].sum += value;
        self.buckets[idx].windows += 1;
    }
}

/// A registry of windowed time series (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRegistry {
    /// Base window length in simulated nanoseconds (0 = disabled).
    window_ns: u64,
    cap: usize,
    series: BTreeMap<String, Series>,
}

impl SeriesRegistry {
    /// A disabled registry (window 0): `record` is a no-op.
    pub fn disabled() -> Self {
        SeriesRegistry::default()
    }

    /// A registry sampling on `window` boundaries with the default
    /// bucket capacity.
    pub fn new(window: SimDuration) -> Self {
        Self::with_capacity(window, DEFAULT_SERIES_CAPACITY)
    }

    /// A registry with an explicit per-series bucket capacity (≥ 2).
    pub fn with_capacity(window: SimDuration, cap: usize) -> Self {
        SeriesRegistry {
            window_ns: window.as_nanos(),
            cap: cap.max(2),
            series: BTreeMap::new(),
        }
    }

    /// Is sampling enabled?
    pub fn enabled(&self) -> bool {
        self.window_ns > 0
    }

    /// The base window length in nanoseconds (0 when disabled).
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// True if no series holds any data.
    pub fn is_empty(&self) -> bool {
        self.series.values().all(|s| s.buckets.is_empty())
    }

    /// The base window index containing simulated time `now`.
    pub fn window_index(&self, now: SimTime) -> u64 {
        debug_assert!(self.window_ns > 0, "window_index on a disabled registry");
        now.as_nanos() / self.window_ns.max(1)
    }

    /// Record one observation of `name` for the base window containing
    /// `now`. No-op when the registry is disabled.
    pub fn record(&mut self, name: &str, now: SimTime, value: f64) {
        if self.window_ns == 0 {
            return;
        }
        let w = now.as_nanos() / self.window_ns;
        let cap = self.cap;
        self.series
            .entry(name.to_owned())
            .or_default()
            .record(w, value, cap);
    }

    /// Sorted series names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// The points of one series: `(window start ns, window span ns,
    /// value)` for every bucket that holds at least one recorded window,
    /// in time order. The value is the mean over the recorded windows.
    pub fn points(&self, name: &str) -> Vec<(u64, u64, f64)> {
        let Some(s) = self.series.get(name) else {
            return Vec::new();
        };
        let span = self.window_ns << s.level;
        s.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| b.windows > 0)
            .map(|(i, b)| (i as u64 * span, span, b.sum / b.windows as f64))
            .collect()
    }

    /// Merge a shard domain's partial registry into this one (see module
    /// docs: sums add, window counts take the max). An empty/disabled
    /// incoming registry is a no-op; merging into a disabled registry
    /// adopts the incoming window.
    pub fn merge_domain(&mut self, other: &SeriesRegistry) {
        if other.window_ns == 0 {
            return;
        }
        if self.window_ns == 0 {
            self.window_ns = other.window_ns;
            self.cap = other.cap;
        }
        debug_assert_eq!(
            self.window_ns, other.window_ns,
            "merging series with different base windows"
        );
        for (name, theirs) in &other.series {
            let mine = self.series.entry(name.clone()).or_default();
            let mut theirs = theirs.clone();
            let level = mine.level.max(theirs.level);
            mine.raise_to(level);
            theirs.raise_to(level);
            if theirs.buckets.len() > mine.buckets.len() {
                mine.buckets.resize(theirs.buckets.len(), Bucket::default());
            }
            for (m, t) in mine.buckets.iter_mut().zip(&theirs.buckets) {
                m.sum += t.sum;
                m.windows = m.windows.max(t.windows);
            }
            while mine.buckets.len() > self.cap {
                mine.downsample();
            }
        }
    }

    /// Derive a new series from existing ones: for every bucket index
    /// where **all** inputs hold data (inputs are first aligned to their
    /// common coarsest resolution), call `f` with the input values in
    /// the order given; `Some(v)` records `v`, `None` skips the window.
    /// Inputs missing entirely make this a no-op.
    pub fn derive(&mut self, out_name: &str, inputs: &[String], f: impl Fn(&[f64]) -> Option<f64>) {
        if inputs.is_empty() || !inputs.iter().all(|n| self.series.contains_key(n)) {
            return;
        }
        let level = inputs
            .iter()
            .map(|n| self.series[n].level)
            .max()
            .unwrap_or(0);
        let aligned: Vec<Series> = inputs
            .iter()
            .map(|n| {
                let mut s = self.series[n].clone();
                s.raise_to(level);
                s
            })
            .collect();
        let len = aligned.iter().map(|s| s.buckets.len()).min().unwrap_or(0);
        let mut out = Series {
            level,
            buckets: Vec::with_capacity(len),
        };
        let mut vals = vec![0.0f64; aligned.len()];
        for i in 0..len {
            let mut complete = true;
            for (v, s) in vals.iter_mut().zip(&aligned) {
                let b = &s.buckets[i];
                if b.windows == 0 {
                    complete = false;
                    break;
                }
                *v = b.sum / b.windows as f64;
            }
            let bucket = if complete {
                match f(&vals) {
                    Some(v) => Bucket { sum: v, windows: 1 },
                    None => Bucket::default(),
                }
            } else {
                Bucket::default()
            };
            out.buckets.push(bucket);
        }
        self.series.insert(out_name.to_owned(), out);
    }

    /// The mean of a series' exported points (`None` for an empty or
    /// missing series).
    pub fn mean(&self, name: &str) -> Option<f64> {
        let pts = self.points(name);
        if pts.is_empty() {
            return None;
        }
        Some(pts.iter().map(|(_, _, v)| v).sum::<f64>() / pts.len() as f64)
    }

    /// Deterministic JSONL export: a header line with the schema tag and
    /// base window, then one line per point in sorted-name, time order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.series.len() * 64);
        let _ = writeln!(
            out,
            "{{\"schema\": \"{SERIES_SCHEMA}\", \"window_ns\": {}}}",
            self.window_ns
        );
        for name in self.series.keys() {
            for (t, span, v) in self.points(name) {
                let _ = write!(
                    out,
                    "{{\"series\": \"{name}\", \"t_ns\": {t}, \"span_ns\": {span}, \"value\": "
                );
                write_json_f64(&mut out, v);
                out.push_str("}\n");
            }
        }
        out
    }

    /// Deterministic CSV export (`series,t_ns,span_ns,value` header).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,t_ns,span_ns,value\n");
        for name in self.series.keys() {
            for (t, span, v) in self.points(name) {
                let _ = write!(out, "{name},{t},{span},");
                write_json_f64(&mut out, v);
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000_000)
    }

    #[test]
    fn empty_registry_exports_header_only() {
        let r = SeriesRegistry::new(SimDuration::from_millis(10));
        assert!(r.is_empty());
        let j = r.to_jsonl();
        assert_eq!(j.lines().count(), 1, "header only");
        assert!(j.contains(SERIES_SCHEMA));
        assert_eq!(r.to_csv(), "series,t_ns,span_ns,value\n");
        assert_eq!(r.mean("nope"), None);
    }

    #[test]
    fn disabled_registry_ignores_records() {
        let mut r = SeriesRegistry::disabled();
        r.record("x", ms(10), 1.0);
        assert!(r.is_empty());
        assert!(!r.enabled());
    }

    #[test]
    fn single_window_run_round_trips() {
        let mut r = SeriesRegistry::new(SimDuration::from_millis(10));
        r.record("q", ms(10), 42.0);
        let pts = r.points("q");
        assert_eq!(pts, vec![(10_000_000, 10_000_000, 42.0)]);
        assert_eq!(r.mean("q"), Some(42.0));
        assert!(r.to_jsonl().contains("\"t_ns\": 10000000"));
    }

    #[test]
    fn unsampled_windows_are_skipped_not_zero() {
        let mut r = SeriesRegistry::new(SimDuration::from_millis(10));
        r.record("q", ms(10), 1.0);
        r.record("q", ms(40), 3.0);
        let pts = r.points("q");
        assert_eq!(pts.len(), 2, "gap windows emit nothing");
        assert_eq!(pts[1].0, 40_000_000);
    }

    #[test]
    fn downsample_at_capacity_round_trips_means() {
        let mut r = SeriesRegistry::with_capacity(SimDuration::from_millis(1), 4);
        // 8 windows of value = window index; capacity 4 forces level 1.
        for w in 0..8u64 {
            r.record("v", SimTime::from_nanos(w * 1_000_000), w as f64);
        }
        let pts = r.points("v");
        assert_eq!(pts.len(), 4);
        for (i, &(t, span, v)) in pts.iter().enumerate() {
            assert_eq!(span, 2_000_000, "level 1 = 2 base windows");
            assert_eq!(t, i as u64 * 2_000_000);
            // Mean of the two merged windows: (2i + 2i+1)/2.
            assert_eq!(v, (2 * i) as f64 + 0.5);
        }
        // A second downsample keeps the overall mean exact.
        for w in 8..16u64 {
            r.record("v", SimTime::from_nanos(w * 1_000_000), w as f64);
        }
        let total: f64 = r
            .points("v")
            .iter()
            .map(|(_, _, v)| v * 4.0) // level 2: 4 windows per bucket
            .sum();
        assert_eq!(total, (0..16).sum::<u64>() as f64);
    }

    #[test]
    fn merge_sums_partials_and_takes_max_windows() {
        let w = SimDuration::from_millis(10);
        let mut a = SeriesRegistry::new(w);
        let mut b = SeriesRegistry::new(w);
        // Both domains sampled window 1 with partial values.
        a.record("flows", ms(10), 2.0);
        b.record("flows", ms(10), 3.0);
        // Window 2 sampled by only one domain.
        b.record("flows", ms(20), 7.0);
        // A series only domain A has.
        a.record("dre", ms(10), 0.5);
        a.merge_domain(&b);
        assert_eq!(
            a.points("flows"),
            vec![(10_000_000, 10_000_000, 5.0), (20_000_000, 10_000_000, 7.0)]
        );
        assert_eq!(a.points("dre"), vec![(10_000_000, 10_000_000, 0.5)]);
    }

    #[test]
    fn merge_into_disabled_adopts_window() {
        let mut a = SeriesRegistry::disabled();
        let mut b = SeriesRegistry::new(SimDuration::from_millis(10));
        b.record("x", ms(10), 1.0);
        a.merge_domain(&b);
        assert_eq!(a.window_ns(), 10_000_000);
        assert_eq!(a.points("x").len(), 1);
        // Merging an empty/disabled registry is a no-op.
        let before = a.clone();
        a.merge_domain(&SeriesRegistry::disabled());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_aligns_mismatched_levels() {
        let w = SimDuration::from_millis(1);
        let mut a = SeriesRegistry::with_capacity(w, 4);
        let mut b = SeriesRegistry::with_capacity(w, 4);
        for wdx in 0..8u64 {
            a.record("v", SimTime::from_nanos(wdx * 1_000_000), 1.0); // level 1
        }
        b.record("v", SimTime::from_nanos(0), 10.0); // level 0
        a.merge_domain(&b);
        let pts = a.points("v");
        assert_eq!(pts[0].1, 2_000_000, "merged at the coarser level");
        // Bucket 0: a contributed 1+1 over 2 windows, b contributed 10
        // over 1 window -> (2 + 10) / max(2, 1).
        assert_eq!(pts[0].2, 6.0);
    }

    #[test]
    fn derive_computes_imbalance_per_window() {
        let w = SimDuration::from_millis(10);
        let mut r = SeriesRegistry::new(w);
        for (i, utils) in [[0.5, 0.5], [0.8, 0.2]].iter().enumerate() {
            let t = ms(10 * (i as u64 + 1));
            r.record("u0", t, utils[0]);
            r.record("u1", t, utils[1]);
        }
        r.derive("imb", &["u0".into(), "u1".into()], |v| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            (mean > 0.0).then(|| (max - mean) / mean)
        });
        let pts = r.points("imb");
        assert_eq!(pts.len(), 2);
        assert!((pts[0].2 - 0.0).abs() < 1e-12);
        assert!((pts[1].2 - 0.6).abs() < 1e-12, "(0.8-0.5)/0.5");
        // Missing inputs: no-op.
        r.derive("nope", &["u0".into(), "missing".into()], |_| Some(1.0));
        assert!(r.points("nope").is_empty());
    }

    #[test]
    fn exports_are_deterministic_and_sorted() {
        let w = SimDuration::from_millis(10);
        let mut r = SeriesRegistry::new(w);
        r.record("z.last", ms(10), 1.0);
        r.record("a.first", ms(10), 2.5);
        let j = r.to_jsonl();
        assert_eq!(j, r.clone().to_jsonl());
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        let csv = r.to_csv();
        assert!(csv.contains("a.first,10000000,10000000,2.5"));
        assert!(csv.contains("z.last,10000000,10000000,1.0"));
    }
}
