//! End-to-end contracts of the structured event-tracing subsystem:
//!
//! 1. **Determinism through fault transitions** — tracing is part of the
//!    `(code, seed, config)` → artifact contract: a same-seed fail/recover
//!    run produces byte-identical JSONL *and* Chrome traces, per policy.
//! 2. **Blackhole provenance** — with every flow sampled and no ring
//!    bound, each packet counted in `net.blackholed_packets` has exactly
//!    one `blackhole` trace event.
//! 3. **Validity** — generated traces pass the `trace_explain` validator
//!    (monotone seq/time, complete per-type schemas, decisions whose
//!    chosen uplink is among the candidates), and the explainer
//!    reconstructs a decision chain for a sampled flow.
//! 4. **Tracing is an observer** — enabling it must not change the
//!    execution: the telemetry report with tracing on equals the report
//!    with tracing off.
//! 5. **Recorder modes** — a disabled handle exports nothing; flow
//!    sampling keeps only the requested flows (plus global fault events);
//!    ring mode bounds the buffer and counts evictions.
//!
//! The cells here are deliberately tiny (the full fault matrix already
//! runs in `tests/faults.rs`); what matters is that the fault fires while
//! traffic is in flight so blackholes land in the trace.

use conga::core::FabricPolicy;
use conga::experiments::{run_fct_with_policy, FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga::net::{LeafId, Link, NodeId, SpineId};
use conga::sim::SimTime;
use conga::trace::{explain, TraceConfig, TraceHandle};
use conga::workloads::FlowSizeDist;

/// A tiny fail/recover cell: 16 flows per direction at 80 % load, link
/// (1,1,0) dies at 2 ms — while the first large flows are still
/// transmitting — and returns at 5 ms. Seed 3 is chosen so the CONGA
/// policy itself has packets in flight on the dying link (most seeds let
/// it steer clear and blackhole nothing).
fn traced_cell(spec: TraceConfig) -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga, // transport = plain TCP; the policy is overridden per case
        FlowSizeDist::enterprise(),
        0.8,
    );
    cfg.n_flows = 16;
    cfg.seed = 3;
    let link = Link::new(NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)), 0);
    cfg.faults = vec![
        LinkFaultSpec::fail(SimTime::from_millis(2), link),
        LinkFaultSpec::recover(SimTime::from_millis(5), link),
    ];
    cfg.trace = Some(spec);
    cfg
}

fn exports(cfg: &FctRun, mk: fn() -> FabricPolicy) -> (String, String, u64) {
    let out = run_fct_with_policy(cfg, mk());
    let t = out.trace.expect("tracing was requested");
    (
        t.export_jsonl().expect("enabled handle"),
        t.export_chrome().expect("enabled handle"),
        out.report.metrics.counter("net.blackholed_packets"),
    )
}

/// The expensive checks in one pass per policy: same-seed byte-identical
/// JSONL and Chrome artifacts through the fail/recover cycle, one
/// `blackhole` event per counted blackholed packet, all four fault
/// transitions recorded, and a validator-clean trace. The fault schedule
/// must blackhole something somewhere in the matrix, or the provenance
/// check would be vacuous.
#[test]
fn traces_are_deterministic_and_account_for_blackholes() {
    let cfg = traced_cell(TraceConfig::all()); // all flows, unbounded
    let mut total_blackholed = 0;
    for (name, mk) in FabricPolicy::zoo() {
        let (jsonl_a, chrome_a, counted) = exports(&cfg, mk);
        let (jsonl_b, chrome_b, _) = exports(&cfg, mk);
        assert!(!jsonl_a.is_empty(), "policy {name}: empty trace");
        assert_eq!(
            jsonl_a, jsonl_b,
            "policy {name}: JSONL diverged across same-seed fault runs"
        );
        assert_eq!(
            chrome_a, chrome_b,
            "policy {name}: Chrome trace diverged across same-seed fault runs"
        );

        let blackhole_events = jsonl_a
            .lines()
            .filter(|l| l.contains("\"ev\":\"blackhole\""))
            .count() as u64;
        assert_eq!(
            blackhole_events, counted,
            "policy {name}: blackhole events disagree with net.blackholed_packets"
        );
        total_blackholed += counted;
        let fault_events = jsonl_a
            .lines()
            .filter(|l| l.contains("\"ev\":\"fault\""))
            .count();
        assert_eq!(
            fault_events,
            4, // 2 simplex channels × (fail + recover)
            "policy {name}: wrong number of fault transition events"
        );

        let summary = explain::validate(&jsonl_a)
            .unwrap_or_else(|e| panic!("policy {name}: invalid trace: {e}"));
        assert!(summary.events > 0);
        // Structural parse of the full Chrome document once is enough —
        // byte-equality above already ties every policy to it.
        if name == "conga" {
            let chrome_doc = conga::trace::json::parse(&chrome_a).expect("chrome trace must parse");
            assert!(chrome_doc.get("traceEvents").is_some());
        }
    }
    assert!(
        total_blackholed > 0,
        "fault schedule never caught a packet — retune the cell"
    );
}

/// The explainer reconstructs a causal chain — flowlet commits and
/// decisions with their candidate vectors — for a flow the CONGA policy
/// actually routed.
#[test]
fn explainer_reconstructs_a_decision_chain() {
    let cfg = traced_cell(TraceConfig::all());
    let (jsonl, _, _) = exports(&cfg, FabricPolicy::conga);
    let summary = explain::validate(&jsonl).expect("trace must validate");
    assert!(
        summary.by_type.contains_key("decision"),
        "CONGA run recorded no decisions"
    );
    assert!(summary.by_type.contains_key("fault"));
    let flow = jsonl
        .lines()
        .find(|l| l.contains("\"ev\":\"decision\""))
        .and_then(|l| conga::trace::json::parse(l).ok())
        .and_then(|v| v.get("flow").and_then(|f| f.as_u64()))
        .expect("a decision event names its flow");
    let text = explain::explain_flow(&jsonl, flow);
    assert!(
        text.contains("DECISION") && text.contains("<= chosen"),
        "explainer lost the decision chain:\n{text}"
    );
}

/// Tracing is a pure observer: the telemetry report of a traced run is
/// byte-identical to the untraced run's.
#[test]
fn tracing_does_not_perturb_the_run() {
    let traced = traced_cell(TraceConfig::all());
    let mut untraced = traced.clone();
    untraced.trace = None;
    let a = run_fct_with_policy(&traced, FabricPolicy::conga())
        .report
        .to_json();
    let b = run_fct_with_policy(&untraced, FabricPolicy::conga())
        .report
        .to_json();
    assert_eq!(a, b, "enabling tracing changed the execution");
}

/// Recorder modes: a disabled handle records nothing and exports `None`;
/// flow sampling admits only the requested flows plus global fault events;
/// a ring bound caps the buffer and counts what it evicted.
#[test]
fn recorder_modes_behave() {
    let disabled = TraceHandle::disabled();
    assert!(!disabled.enabled());
    assert!(disabled.export_jsonl().is_none());
    assert!(disabled.export_chrome().is_none());

    // Flow sampling: flows 0 and 1 only.
    let cfg = traced_cell(TraceConfig {
        flows: Some([0, 1].into()),
        ring: None,
    });
    let (jsonl, _, _) = exports(&cfg, FabricPolicy::conga);
    for line in jsonl.lines() {
        let v = conga::trace::json::parse(line).expect("valid line");
        if let Some(f) = v.get("flow").and_then(|f| f.as_u64()) {
            assert!(f <= 1, "unsampled flow {f} leaked into the trace");
        } else {
            assert_eq!(
                v.get("ev").and_then(|e| e.as_str()),
                Some("fault"),
                "only fault events may omit a flow id"
            );
        }
    }

    // Ring mode: the buffer is bounded, evictions are counted, and the
    // trailing window still validates.
    let ring = traced_cell(TraceConfig::all().with_ring(256));
    let out = run_fct_with_policy(&ring, FabricPolicy::conga());
    let t = out.trace.expect("tracing was requested");
    assert!(t.len() <= 256);
    assert!(t.dropped() > 0, "cell too small to exercise the ring");
    let jsonl = t.export_jsonl().expect("enabled handle");
    explain::validate(&jsonl).expect("ring-mode trace must validate");
}
