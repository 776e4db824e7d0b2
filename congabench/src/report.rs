//! What a run reports and how it is written: the metric tables that
//! `BENCHMARK.json` mirrors, the per-run record with its machine stamp,
//! the text a person reads, the one-line JSON the acceptance driver reads,
//! and the detailed JSON `--compare` reads back.

use std::fmt::Write as _;

use conga_trace::json::{parse, Value};

use crate::machine::Stamp;
use crate::measure::Samples;

/// Schema tag of the detailed JSON document.
pub const SCHEMA: &str = "congabench/v1";

/// The end-to-end metrics, measured with tracing off: name and unit.
/// Direction and regression bound of each live in `BENCHMARK.json` alone
/// (`--compare` reads them there; the README says why they are what they
/// are).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("delivered_pkts_per_s", "pkt/s"),
    ("peak_rss_mb", "MB"),
    ("sim_fct_norm_optimal", "ratio"),
];

/// The per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("incomplete_flow_frac", "ratio"),
    ("sim.queue_hot_ns.calendar", "ns"),
    ("sim.queue_hot_ns.heap", "ns"),
    ("sim.queue_churn_ns.calendar", "ns"),
    ("sim.queue_churn_ns.heap", "ns"),
    ("net.events_per_delivered_pkt", "ratio"),
    ("net.ns_per_event", "ns"),
    ("net.port_cycle_ns", "ns"),
    ("net.forward_ns_per_pkt.ecmp", "ns"),
    ("net.forward_ns_per_pkt.conga", "ns"),
    ("net.queue_drops", "count"),
    ("net.ecn_marked_pkts", "count"),
    ("net.windowed_over_monolithic", "ratio"),
    ("net.shard_speedup_w2", "ratio"),
    ("net.shard_busy_frac", "ratio"),
    ("net.shard_vol_ctx_switches", "count"),
    ("net.register_rss_mb", "MB"),
    ("core.leaf_ingress_ns.ecmp", "ns"),
    ("core.leaf_ingress_ns.conga_flow", "ns"),
    ("core.leaf_ingress_ns.conga", "ns"),
    ("core.leaf_ingress_ns.local", "ns"),
    ("core.leaf_ingress_ns.spray", "ns"),
    ("core.leaf_ingress_ns.weighted", "ns"),
    ("core.leaf_ingress_ns.letflow", "ns"),
    ("core.leaf_ingress_ns.latency_aware", "ns"),
    ("core.on_fabric_tx_ns.conga", "ns"),
    ("core.leaf_egress_ns.conga", "ns"),
    ("core.dre_on_send_ns", "ns"),
    ("core.flowlet_lookup_hit_ns", "ns"),
    ("core.flowlet_lookup_new_ns", "ns"),
    ("core.flowlet_new_per_pkt", "ratio"),
    ("transport.ack_cycle_ns.aimd", "ns"),
    ("transport.ack_cycle_ns.dctcp", "ns"),
    ("transport.ack_cycle_ns.cubic", "ns"),
    ("transport.ack_cycle_ns.bbr", "ns"),
    ("transport.rx_in_order_ns", "ns"),
    ("transport.rx_reorder_ns", "ns"),
    ("transport.retx_frac", "ratio"),
    ("transport.rto_timeouts", "count"),
    ("transport.fast_retx", "count"),
    ("transport.rx_ooo_segments", "count"),
    ("transport.preregister_ns_per_flow", "ns"),
    ("workloads.plan_ns_per_flow", "ns"),
    ("workloads.dist_sample_ns", "ns"),
    ("analysis.summarize_ns_per_sample", "ns"),
    ("analysis.sketch_add_ns", "ns"),
    ("analysis.acc_add_ns", "ns"),
    ("analysis.sketch_merge_us", "us"),
    ("analysis.sketch_quantile_us", "us"),
    ("telemetry.export_metrics_us", "us"),
    ("telemetry.report_to_json_us", "us"),
    ("telemetry.series_record_ns", "ns"),
    ("telemetry.series_to_jsonl_us", "us"),
    ("telemetry.series_on_wall_ratio", "ratio"),
    ("trace.emit_ns.disabled", "ns"),
    ("trace.emit_ns.ring", "ns"),
    ("trace.emit_ns.unbounded", "ns"),
    ("trace.export_jsonl_ns_per_event", "ns"),
    ("trace.ring_on_wall_ratio", "ratio"),
    ("fleet.scenario_hash_us", "us"),
    ("fleet.cache_store_us", "us"),
    ("fleet.cache_lookup_us", "us"),
    ("fleet.warm_pass_ms", "ms"),
    ("span.setup_topology_s", "s"),
    ("span.setup_arrivals_s", "s"),
    ("span.setup_register_s", "s"),
    ("span.simulate_s", "s"),
    ("span.drain_s", "s"),
    ("span.summarize_s", "s"),
    ("span.export_s", "s"),
    ("span.unattributed_s", "s"),
    ("span.trace_overhead_frac", "ratio"),
];

/// The unit a named metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map_or_else(|| panic!("{name} is in neither metric table"), |m| m.1)
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: String,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// Every sample taken (one for counts and simulated statistics).
    pub samples: Samples,
}

/// The outcome of one correctness check.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// `Err` carries what was found instead.
    pub outcome: Result<(), String>,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Machine, compiler, commit.
    pub stamp: Stamp,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the run was asked to measure for.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Whether the workload ran at smoke size.
    pub smoke: bool,
    /// Worker threads a repetition used.
    pub workers: usize,
    /// FNV-1a/64 of a repetition's `RunReport` JSON: equal on two commits
    /// iff no simulated statistic moved.
    pub report_fnv64: u64,
    /// Flows attempted over all repetitions.
    pub attempted: u64,
    /// Flows that did not complete.
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// The correctness checks.
    pub checks: Vec<Check>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits measured (`null` if not finite).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl RunRecord {
    /// True when every check passed and no flow failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.outcome.is_ok())
    }

    /// A metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The text a person reads: the stamp, every metric with its unit as
    /// median, quartiles and sample count, then the checks.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "congabench workload={} seed={} seconds={} traced={} smoke={} workers={} nproc={} commit={} rustc=\"{}\"",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.workers,
            self.stamp.nproc,
            self.stamp.commit,
            self.stamp.rustc
        );
        let _ = writeln!(
            out,
            "{:<38}{:>16} {:<6}{:>16}{:>16}{:>4}",
            "metric", "median", "unit", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let (q1, q3) = m.samples.quartiles();
            let _ = writeln!(
                out,
                "{:<38}{:>16.6} {:<6}{:>16.6}{:>16.6}{:>4}",
                m.name,
                m.samples.median(),
                m.unit,
                q1,
                q3,
                m.samples.n()
            );
        }
        let _ = writeln!(
            out,
            "(timings are medians over n samples; n is too small for a tail percentile)"
        );
        let _ = writeln!(out, "report_fnv64 {:016x}", self.report_fnv64);
        let _ = writeln!(
            out,
            "flows attempted {} failed {}",
            self.attempted, self.failed
        );
        for c in &self.checks {
            match &c.outcome {
                Ok(()) => {
                    let _ = writeln!(out, "check {:<28} ok", c.name);
                }
                Err(e) => {
                    let _ = writeln!(out, "check {:<28} FAILED: {e}", c.name);
                }
            }
        }
        out
    }

    /// The single line the acceptance driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics` — the end-to-end metrics
    /// for an untraced run, the per-layer ones for a traced run, each as
    /// its median.
    pub fn contract_line(&self) -> String {
        let names: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.samples.median()),
                json_str(m.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// The detailed JSON object of this run (one element of a document's
    /// `runs` array).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}, \"workers\": {}, ",
            json_str(&self.workload),
            self.seed,
            json_num(self.seconds),
            self.traced,
            self.smoke,
            self.workers
        );
        let _ = write!(
            out,
            "\"nproc\": {}, \"rustc\": {}, \"commit\": {}, ",
            self.stamp.nproc,
            json_str(&self.stamp.rustc),
            json_str(&self.stamp.commit)
        );
        let _ = write!(
            out,
            "\"report_fnv64\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"correct\": {}, ",
            self.report_fnv64,
            self.attempted,
            self.failed,
            self.correct()
        );
        out.push_str("\"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let (q1, q3) = m.samples.quartiles();
            let _ = write!(
                out,
                "{{\"name\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_num(m.samples.median()),
                json_num(q1),
                json_num(q3),
                m.samples.n()
            );
        }
        out.push_str("], \"checks\": [");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": {}, \"ok\": {}}}",
                json_str(c.name),
                c.outcome.is_ok()
            );
        }
        out.push_str("]}");
        out
    }
}

/// Wrap run objects (as rendered by [`RunRecord::to_json`]) in a document.
pub fn document(runs: &[String]) -> String {
    format!(
        "{{\"schema\": \"{SCHEMA}\", \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    )
}

/// A metric as read back from a document: what `--compare` needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadMetric {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// One run read back from a document.
#[derive(Clone, Debug, PartialEq)]
pub struct ReadRun {
    /// Workload name.
    pub workload: String,
    /// Traced run?
    pub traced: bool,
    /// The report hash, as hex.
    pub report_fnv64: String,
    /// Metrics by name, in document order.
    pub metrics: Vec<(String, ReadMetric)>,
}

/// Read the runs of a document written by [`document`].
pub fn read_document(text: &str) -> Result<Vec<ReadRun>, String> {
    let doc = parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} document"));
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or("missing \"runs\" array")?;
    runs.iter()
        .map(|r| {
            let str_of = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("run without \"{k}\""))
            };
            let metrics = r
                .get("metrics")
                .and_then(Value::as_arr)
                .ok_or("run without \"metrics\"")?
                .iter()
                .map(|m| {
                    let num = |k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let name = m
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or("metric without \"name\"")?;
                    Ok((
                        name.to_string(),
                        ReadMetric {
                            median: num("median"),
                            q1: num("q1"),
                            q3: num("q3"),
                        },
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(ReadRun {
                workload: str_of("workload")?,
                traced: r.get("traced").and_then(Value::as_bool).unwrap_or(false),
                report_fnv64: str_of("report_fnv64")?,
                metrics,
            })
        })
        .collect()
}

/// The bounds of `BENCHMARK.json`: `(name, lower-is-better, bound)` per
/// end-to-end metric.
pub fn read_bounds(benchmark_json: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let doc = parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json without \"end_to_end\"")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), better == "lower", bound))
        })
        .collect()
}

/// Verdict on one workload × end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's or B's own spread is wider than the bound: the runs cannot
    /// resolve a change of that size.
    Unresolved,
}

/// Judge B against A for one metric.
pub fn verdict(a: &ReadMetric, b: &ReadMetric, lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |m: &ReadMetric| {
        if m.median == 0.0 {
            0.0
        } else {
            (m.q3 - m.q1) / m.median.abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let worsening = if lower_is_better {
        (b.median - a.median) / a.median.abs()
    } else {
        (a.median - b.median) / a.median.abs()
    };
    // `!(x <= bound)` so that a NaN median is never "ok".
    if worsening <= bound {
        Verdict::Ok
    } else {
        Verdict::Worse
    }
}

/// Compare document B against document A under the bounds: one line per
/// workload × end-to-end metric, then the exact comparisons (report hash,
/// counts). Returns the table and whether every row is `ok` and every
/// exact comparison equal.
pub fn compare(a: &[ReadRun], b: &[ReadRun], bounds: &[(String, bool, f64)]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<20}{:<24}{:>14}{:>9}{:>14}{:>9}{:>9}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "bound%"
    );
    for ra in a.iter().filter(|r| !r.traced) {
        let Some(rb) = b.iter().find(|r| !r.traced && r.workload == ra.workload) else {
            let _ = writeln!(out, "{:<20}missing from B", ra.workload);
            all_ok = false;
            continue;
        };
        for (name, lower, bound) in bounds {
            let find = |r: &ReadRun| {
                r.metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, m)| m.clone())
            };
            let (Some(ma), Some(mb)) = (find(ra), find(rb)) else {
                let _ = writeln!(out, "{:<20}{:<24}missing", ra.workload, name);
                all_ok = false;
                continue;
            };
            let v = verdict(&ma, &mb, *lower, *bound);
            all_ok &= v == Verdict::Ok;
            let iqr =
                |m: &ReadMetric| 100.0 * (m.q3 - m.q1) / m.median.abs().max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "{:<20}{:<24}{:>14.6}{:>9.2}{:>14.6}{:>9.2}{:>9.1}  {}",
                ra.workload,
                name,
                ma.median,
                iqr(&ma),
                mb.median,
                iqr(&mb),
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    // Exact comparisons: what a deterministic simulator repeats.
    for ra in a {
        let Some(rb) = b
            .iter()
            .find(|r| r.traced == ra.traced && r.workload == ra.workload)
        else {
            continue;
        };
        let same = ra.report_fnv64 == rb.report_fnv64;
        all_ok &= same;
        let _ = writeln!(
            out,
            "{:<20}{:<24}{} {} {}",
            ra.workload,
            if ra.traced {
                "report_fnv64 (traced)"
            } else {
                "report_fnv64"
            },
            ra.report_fnv64,
            if same { "==" } else { "!=" },
            rb.report_fnv64
        );
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(median: f64, q1: f64, q3: f64) -> ReadMetric {
        ReadMetric { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: +5 % is ok under 10 %, +15 % is worse.
        assert_eq!(
            verdict(&m(1.0, 1.0, 1.0), &m(1.05, 1.05, 1.05), true, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&m(1.0, 1.0, 1.0), &m(1.15, 1.15, 1.15), true, 0.1),
            Verdict::Worse
        );
        // Higher is better: a 15 % drop is worse, a rise is ok.
        assert_eq!(
            verdict(&m(100.0, 100.0, 100.0), &m(85.0, 85.0, 85.0), false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m(100.0, 100.0, 100.0), &m(130.0, 130.0, 130.0), false, 0.1),
            Verdict::Ok
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            verdict(&m(1.0, 0.9, 1.1), &m(1.0, 1.0, 1.0), true, 0.1),
            Verdict::Unresolved
        );
        // NaN is never ok.
        assert_eq!(
            verdict(&m(1.0, 1.0, 1.0), &m(f64::NAN, 1.0, 1.0), true, 0.1),
            Verdict::Worse
        );
    }

    #[test]
    fn a_name_is_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert_eq!(unit_of("wall_s"), "s");
        assert_eq!(unit_of("fleet.warm_pass_ms"), "ms");
    }

    #[test]
    fn record_round_trips_through_the_document() {
        let rec = RunRecord {
            stamp: Stamp {
                nproc: 2,
                rustc: "rustc 1.0 \"x\"".into(),
                commit: "abc".into(),
            },
            workload: "testbed_mice".into(),
            seed: 3,
            seconds: 1.5,
            traced: false,
            smoke: true,
            workers: 1,
            report_fnv64: 0xDEAD_BEEF,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric {
                name: "wall_s".into(),
                unit: "s",
                samples: Samples(vec![1.0, 2.0, 4.0]),
            }],
            checks: vec![Check {
                name: "conservation",
                outcome: Ok(()),
            }],
        };
        assert!(rec.correct());
        let runs = read_document(&document(&[rec.to_json()])).expect("parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "testbed_mice");
        assert_eq!(runs[0].report_fnv64, "00000000deadbeef");
        assert_eq!(runs[0].metrics[0], ("wall_s".to_string(), m(2.0, 1.0, 4.0)));
        let line = rec.contract_line();
        let v = parse(&line).expect("contract line is JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        let wall = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
