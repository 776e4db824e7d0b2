//! Per-policy artifact contracts over [`FabricPolicy::zoo`].
//!
//! `tests/golden/fig11_dynamic.*` pins CONGA only. Here every shipped
//! policy runs one small cell that crosses every step of the shared leaf
//! pipeline — flowlet hits, new flowlets, a cached port that stops being
//! a candidate (link (1,1,0) dies at 2 ms and returns at 5 ms), LBTag
//! stamping, DRE updates, feedback — sampled and flow-traced, at `shards`
//! 1 and 2:
//!
//! 1. **Fingerprints** — FNV-1a/64 and length of the `RunReport` JSON,
//!    the trace JSONL and the series JSONL are committed in
//!    `tests/golden/policy_fingerprints.txt`, one line per policy per
//!    artifact, and both shard counts must reproduce that line. A
//!    dataplane refactor is correct iff this file does not move.
//!    Regenerate deliberately with
//!    `UPDATE_GOLDEN=1 cargo test -q --test policy_zoo`.
//! 2. **The observer spine** — every channel a policy owns is non-empty:
//!    flowlet counters and occupancy series for the flowlet policies, DRE
//!    series for the DRE policies, the namespaced `dataplane.<policy>.*`
//!    counters, CONGA's `decision` trace events. A policy cannot silently
//!    drop out of counters, series or traces.

use conga::core::FabricPolicy;
use conga::experiments::{run_fct_with_policy, FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga::fleet::scenario::fnv1a64;
use conga::net::{LeafId, Link, NodeId, SpineId};
use conga::sim::SimTime;
use conga::telemetry::MetricsRegistry;
use conga::trace::TraceConfig;
use conga::workloads::FlowSizeDist;
use std::sync::OnceLock;

const GOLDEN: &str = "tests/golden/policy_fingerprints.txt";

fn cell(shards: usize) -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga, // transport = plain TCP; the policy is overridden per case
        FlowSizeDist::enterprise(),
        0.8,
    );
    cfg.n_flows = 30;
    cfg.seed = 3;
    cfg.sample_uplinks = true;
    let link = Link::new(NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)), 0);
    cfg.faults = vec![
        LinkFaultSpec::fail(SimTime::from_millis(2), link),
        LinkFaultSpec::recover(SimTime::from_millis(5), link),
    ];
    cfg.trace = Some(TraceConfig {
        flows: Some((0..60).step_by(3).collect()),
        ring: None,
    });
    cfg.shards = shards;
    cfg
}

/// What one run of the cell leaves behind. The trace JSONL runs to tens of
/// megabytes, so only what the tests read of it is kept.
struct Artifacts {
    metrics: MetricsRegistry,
    series: String,
    /// `(artifact, FNV-1a/64, length)` of the report, trace and series.
    fingerprints: [(&'static str, u64, usize); 3],
    trace_has_decisions: bool,
}

fn run(mk: fn() -> FabricPolicy, shards: usize) -> Artifacts {
    let out = run_fct_with_policy(&cell(shards), mk());
    let trace = out
        .trace
        .as_ref()
        .and_then(|t| t.export_jsonl())
        .expect("tracing was requested");
    let series = out.series.to_jsonl();
    let fp = |kind, text: &str| (kind, fnv1a64(text.as_bytes()), text.len());
    Artifacts {
        fingerprints: [
            fp("report", &out.report.to_json()),
            fp("trace", &trace),
            fp("series", &series),
        ],
        trace_has_decisions: trace.contains("\"ev\":\"decision\""),
        metrics: out.report.metrics,
        series,
    }
}

/// Every zoo policy at `shards` 1 and 2, run once and shared by both tests.
fn runs() -> &'static [(&'static str, [Artifacts; 2])] {
    static RUNS: OnceLock<Vec<(&'static str, [Artifacts; 2])>> = OnceLock::new();
    RUNS.get_or_init(|| {
        FabricPolicy::zoo()
            .into_iter()
            .map(|(name, mk)| (name, [run(mk, 1), run(mk, 2)]))
            .collect()
    })
}

/// The golden-file rendering of every policy's artifacts at one shard count
/// (`idx` 0 = `shards` 1, 1 = `shards` 2).
fn fingerprints(idx: usize) -> String {
    let mut out = String::new();
    for (name, by_shards) in runs() {
        for (kind, fnv, len) in by_shards[idx].fingerprints {
            out += &format!("{name} {kind} {fnv:016x} {len}\n");
        }
    }
    out
}

#[test]
fn artifact_fingerprints_match_golden_at_shards_1_and_2() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, fingerprints(0)).expect("write golden fingerprints");
        eprintln!("blessed {GOLDEN}");
    }
    let want = std::fs::read_to_string(GOLDEN).expect("golden fingerprints committed");
    for (idx, shards) in [1, 2].into_iter().enumerate() {
        let got = fingerprints(idx);
        let moved = got.lines().zip(want.lines()).find(|(g, w)| g != w);
        assert!(
            got == want,
            "shards {shards}: artifacts diverged from {GOLDEN}, first at {moved:?} \
             (UPDATE_GOLDEN=1 to re-bless after a deliberate behaviour change)"
        );
    }
}

#[test]
fn every_policy_fills_every_channel_it_owns() {
    for (name, [a, sharded]) in runs() {
        let counter = |key: &str| a.metrics.counter(key);
        let has_series = |prefix: &str| a.series.contains(&format!("\"{prefix}"));
        let flowlets = !matches!(*name, "ecmp" | "spray" | "weighted");
        let dres = matches!(*name, "conga" | "conga_flow" | "local" | "incremental");

        assert_eq!(
            counter("dataplane.flowlet_new") > 0 && counter("dataplane.flowlet_hits") > 0,
            flowlets,
            "{name}: flowlet counters"
        );
        assert_eq!(
            has_series("dataplane.flowlets.leaf"),
            flowlets,
            "{name}: flowlet occupancy series"
        );
        assert_eq!(has_series("dataplane.dre."), dres, "{name}: DRE series");
        let own: &[&str] = match *name {
            "letflow" => &["dataplane.letflow.random_decisions"],
            "latency_aware" => &[
                "dataplane.latency.samples",
                "dataplane.latency.warmup_decisions",
            ],
            "conga" | "conga_flow" | "incremental" => &[
                "dataplane.dre_updates",
                "dataplane.from_leaf_records",
                "dataplane.feedback_piggybacked",
            ],
            _ => &[],
        };
        for key in own {
            assert!(counter(key) > 0, "{name}: counter {key} is empty");
        }
        assert_eq!(
            a.trace_has_decisions,
            matches!(*name, "conga" | "conga_flow" | "incremental"),
            "{name}: decision provenance in the trace"
        );
        assert_eq!(
            a.fingerprints, sharded.fingerprints,
            "{name}: an artifact moved at shards 2"
        );
    }
}
