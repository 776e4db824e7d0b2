//! Run-level telemetry for the CONGA reproduction.
//!
//! Every experiment and regression test reads its metrics from one place: a
//! [`MetricsRegistry`] of monotonic counters, gauges, and time-series
//! samplers keyed by stable string names, aggregated per run into a
//! [`RunReport`] that serializes deterministically to JSON.
//!
//! # Determinism contract
//!
//! A report produced from a simulation run is a pure function of
//! `(code, seed, configuration)`:
//!
//! * map keys are stored in [`BTreeMap`]s and serialized in sorted order;
//! * timestamps are integer simulation nanoseconds — never wall-clock;
//! * floating-point values are serialized with Rust's shortest-round-trip
//!   formatting, which is deterministic for a given build;
//! * no HashMap iteration order, thread scheduling, or host entropy can
//!   reach the artifact.
//!
//! Two runs with identical seeds therefore yield **byte-identical** JSON,
//! which is what `tests/telemetry.rs` asserts for every fabric policy.

#![warn(missing_docs)]

pub mod series;

pub use series::{SeriesRegistry, SERIES_SCHEMA};

use std::collections::BTreeMap;
use std::fmt::Write as _;

use conga_sim::SimTime;
use conga_trace::json::{write_json_f64, write_json_string};

/// A registry of named metrics: monotonic counters, gauges, and time-series.
///
/// Names are free-form dotted paths (`"engine.delivered_pkts"`,
/// `"port.0007.drops"`). Per-index names should be zero-padded so the sorted
/// serialization order matches numeric order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named monotonic counter (creating it at zero).
    pub fn inc(&mut self, name: &str, delta: u64) {
        self.update_counter(name, |c| *c += delta);
    }

    /// Set the named counter to an absolute value. Intended for exporting a
    /// counter that the instrumented component already accumulates itself.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.update_counter(name, |c| *c = value);
    }

    /// Apply `f` to the named counter, created at zero if missing: one map
    /// lookup when it exists, and a name allocated only when it does not.
    fn update_counter(&mut self, name: &str, f: impl FnOnce(&mut u64)) {
        match self.counters.get_mut(name) {
            Some(c) => f(c),
            None => {
                let mut c = 0;
                f(&mut c);
                self.counters.insert(name.to_owned(), c);
            }
        }
    }

    /// Read a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterate `(name, value)` over all counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Set the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Read a gauge, if it has been set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Append a `(sim-time, value)` sample to the named time series.
    ///
    /// Samples must be appended in non-decreasing time order by the caller;
    /// the registry stores them verbatim.
    pub fn sample(&mut self, name: &str, at: SimTime, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_default()
            .push((at.as_nanos(), value));
    }

    /// Read a time series (empty if never sampled).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        self.series.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate `(name, samples)` over all time series in sorted name order.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[(u64, f64)])> {
        self.series.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Absorb a per-shard registry into this one: counters add, **gauges
    /// add**, series concatenate.
    ///
    /// This is the merge rule for combining partial views of *one* run.
    /// Shard-local gauges are partial sums (a shard's
    /// `engine.inflight_pkts` can even be negative when it delivered more
    /// packets than it injected), so gauges must sum — not overwrite — to
    /// reconstruct the whole-run value.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.update_counter(k, |c| *c += v);
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.series {
            self.series
                .entry(k.clone())
                .or_default()
                .extend_from_slice(v);
        }
    }

    /// True if no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.series.is_empty()
    }
}

/// The canonical name of a per-policy dataplane metric:
/// `dataplane.<policy>.<metric>`. Policy-agnostic dataplane counters
/// (`dataplane.flowlet_new`, ...) keep their short names; anything a single
/// policy owns should be namespaced through this helper so the tournament
/// report can enumerate them without colliding across policies.
pub fn policy_series(policy: &str, metric: &str) -> String {
    format!("dataplane.{policy}.{metric}")
}

/// A complete, per-run telemetry artifact: free-form metadata plus the
/// aggregated [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    meta: BTreeMap<String, String>,
    /// The aggregated metrics for the run.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Create an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a metadata key (scheme name, seed, load level, ...).
    ///
    /// Values must be derived from the run configuration, never from the
    /// environment, or the determinism contract breaks.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.insert(key.to_owned(), value.into());
    }

    /// Read back a metadata value.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.get(key).map(String::as_str)
    }

    /// Serialize the report to deterministic JSON (sorted keys, integer
    /// nanosecond timestamps, `\n`-terminated).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"meta\": {");
        write_string_map(&mut out, &self.meta);
        out.push_str("},\n  \"counters\": {");
        write_u64_map(&mut out, &self.metrics.counters);
        out.push_str("},\n  \"gauges\": {");
        write_i64_map(&mut out, &self.metrics.gauges);
        out.push_str("},\n  \"series\": {");
        write_series_map(&mut out, &self.metrics.series);
        out.push_str("}\n}\n");
        out
    }
}

fn write_string_map(out: &mut String, map: &BTreeMap<String, String>) {
    let mut first = true;
    for (k, v) in map {
        sep(out, &mut first);
        write_json_string(out, k);
        out.push_str(": ");
        write_json_string(out, v);
    }
    close(out, first);
}

fn write_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    let mut first = true;
    for (k, v) in map {
        sep(out, &mut first);
        write_json_string(out, k);
        let _ = write!(out, ": {v}");
    }
    close(out, first);
}

fn write_i64_map(out: &mut String, map: &BTreeMap<String, i64>) {
    let mut first = true;
    for (k, v) in map {
        sep(out, &mut first);
        write_json_string(out, k);
        let _ = write!(out, ": {v}");
    }
    close(out, first);
}

fn write_series_map(out: &mut String, map: &BTreeMap<String, Vec<(u64, f64)>>) {
    let mut first = true;
    for (k, samples) in map {
        sep(out, &mut first);
        write_json_string(out, k);
        out.push_str(": [");
        for (i, (t, v)) in samples.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "[{t}, ");
            write_json_f64(out, *v);
            out.push(']');
        }
        out.push(']');
    }
    close(out, first);
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
    out.push_str("\n    ");
}

fn close(out: &mut String, was_empty: bool) {
    if !was_empty {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_zero_when_missing() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.counter("x"), 0);
        reg.inc("x", 3);
        reg.inc("x", 4);
        assert_eq!(reg.counter("x"), 7);
        reg.set_counter("x", 2);
        assert_eq!(reg.counter("x"), 2);
    }

    #[test]
    fn absorb_adds_counters_sums_gauges_and_appends_series() {
        let mut a = MetricsRegistry::new();
        a.inc("c", 1);
        a.set_gauge("g", -3);
        a.sample("s", SimTime::from_nanos(5), 1.0);
        let mut b = MetricsRegistry::new();
        b.inc("c", 2);
        b.inc("d", 9);
        b.set_gauge("g", 5);
        b.set_gauge("h", 7);
        b.sample("s", SimTime::from_nanos(6), 2.0);
        a.absorb(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("d"), 9);
        assert_eq!(a.gauge("g"), Some(2), "absorb sums partial gauges");
        assert_eq!(a.gauge("h"), Some(7));
        assert_eq!(a.series("s"), &[(5, 1.0), (6, 2.0)]);
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let mut r = RunReport::new();
        r.set_meta("scheme", "conga");
        r.set_meta("seed", "42");
        r.metrics.inc("b.second", 2);
        r.metrics.inc("a.first", 1);
        r.metrics.set_gauge("inflight", 0);
        r.metrics.sample("q", SimTime::from_nanos(10), 1.5);
        r.metrics.sample("q", SimTime::from_nanos(20), 2.0);
        let j1 = r.to_json();
        let j2 = r.clone().to_json();
        assert_eq!(j1, j2);
        // Sorted keys: a.first before b.second.
        let a = j1.find("a.first").unwrap();
        let b = j1.find("b.second").unwrap();
        assert!(a < b);
        assert!(j1.contains("[10, 1.5]"));
        assert!(j1.contains("[20, 2.0]") || j1.contains("[20, 2]"));
        assert!(j1.ends_with("}\n"));
    }

    #[test]
    fn policy_series_namespaces_under_dataplane() {
        assert_eq!(
            policy_series("letflow", "random_decisions"),
            "dataplane.letflow.random_decisions"
        );
        let mut reg = MetricsRegistry::new();
        reg.set_counter(&policy_series("latency", "probes"), 3);
        assert_eq!(reg.counter("dataplane.latency.probes"), 3);
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = RunReport::new();
        r.set_meta("weird", "a\"b\\c\nd");
        let j = r.to_json();
        assert!(j.contains(r#""a\"b\\c\nd""#));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let r = RunReport::new();
        assert_eq!(r.to_json(), RunReport::new().to_json());
        assert!(r.metrics.is_empty());
    }
}
