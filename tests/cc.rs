//! Differential battery for the pluggable congestion-control subsystem.
//!
//! Three contracts are pinned here:
//!
//! 1. **Shard invariance per controller** — every controller (DCTCP with
//!    its ECN marking path, CUBIC, BBR with event-queue pacing) produces
//!    byte-identical reports and time-series at `--shards 1/2/4`, exactly
//!    like the AIMD baseline (`tests/shards.rs`). ECN marks happen on
//!    enqueue in the owning domain and pacing timers live in per-subflow
//!    sender state, so nothing about either may depend on the worker
//!    count.
//! 2. **Conservation under marking** — CE-marked packets are ordinary
//!    deliveries: a DCTCP run that marks aggressively still completes
//!    every flow.
//! 3. **The AIMD default is a no-op** — reports from the default
//!    controller carry no `cc.*` or ECN keys, so pre-subsystem goldens
//!    (`tests/hotpath.rs`) stay byte-identical without re-blessing.
//! 4. **Every controller fills the channels it owns** — counters and
//!    series, through a loss and its recovery.

use conga::experiments::{run_fct, FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga::net::{LeafId, Link, NodeId, SpineId};
use conga::sim::SimTime;
use conga::transport::CcKind;
use conga::workloads::FlowSizeDist;

/// A quick-scale FCT cell on the paper baseline with the controller under
/// test. A low ECN threshold makes marking common enough to exercise the
/// echo path in every run that enables it.
fn cc_cell(cc: CcKind, shards: usize) -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.5,
    );
    cfg.n_flows = 40;
    cfg.seed = 17;
    cfg.cc = cc;
    cfg.sample_uplinks = true;
    cfg.shards = shards;
    cfg
}

/// Report + merged series, rendered to comparable text.
fn artifacts(cfg: &FctRun) -> [String; 3] {
    let out = run_fct(cfg);
    [
        out.report.to_json(),
        out.series.to_jsonl(),
        out.series.to_csv(),
    ]
}

/// Every non-default controller is shard-count invariant: byte-identical
/// report JSON and series exports at `--shards 1/2/4`.
#[test]
fn controllers_are_shard_count_invariant() {
    for cc in [CcKind::Dctcp, CcKind::Cubic, CcKind::Bbr] {
        let base = artifacts(&cc_cell(cc, 1));
        for shards in [2, 4] {
            let got = artifacts(&cc_cell(cc, shards));
            for (i, kind) in ["report", "series jsonl", "series csv"].iter().enumerate() {
                assert!(
                    got[i] == base[i],
                    "{}: {kind} diverged between --shards 1 and --shards {shards}",
                    cc.name()
                );
            }
        }
    }
}

/// Same seed, same bytes: a controller's run is reproducible end to end
/// (the trait dispatch layer introduces no hidden state).
#[test]
fn controller_runs_are_deterministic() {
    for cc in [CcKind::Dctcp, CcKind::Cubic, CcKind::Bbr] {
        let a = artifacts(&cc_cell(cc, 1));
        let b = artifacts(&cc_cell(cc, 1));
        assert!(a == b, "{}: repeated run diverged", cc.name());
    }
}

/// The controllers genuinely differ: swapping `--cc` must change the
/// dynamics (otherwise the plumbing silently fell back to one
/// implementation).
#[test]
fn controllers_produce_distinct_reports() {
    let reports: Vec<String> = [CcKind::Aimd, CcKind::Dctcp, CcKind::Cubic, CcKind::Bbr]
        .into_iter()
        .map(|cc| artifacts(&cc_cell(cc, 1))[0].clone())
        .collect();
    for i in 0..reports.len() {
        for j in (i + 1)..reports.len() {
            assert!(reports[i] != reports[j], "controllers {i} and {j} tied");
        }
    }
}

/// DCTCP with an aggressive marking threshold: packets are marked, every
/// marked packet is still delivered (flows complete), and the mark
/// counters are conserved (`marked <= seen`).
#[test]
fn ecn_marked_packets_are_delivered_not_dropped() {
    let mut cfg = cc_cell(CcKind::Dctcp, 1);
    cfg.ecn_threshold_pkts = Some(5);
    cfg.load = 0.6;
    let out = run_fct(&cfg);
    let marked = out.report.metrics.counter("net.ecn_marked_pkts");
    let seen = out.report.metrics.counter("net.ecn_seen_pkts");
    assert!(marked > 0, "a 5-packet threshold at 60% load must mark");
    assert!(
        marked <= seen,
        "marked ({marked}) must not exceed enqueued ({seen})"
    );
    assert_eq!(
        out.summary.incomplete, 0,
        "CE-marked packets must be delivered, not lost"
    );
    // The per-window marking series rides the report's series registry.
    assert!(out.series.to_jsonl().contains("ecn.marked_pkts"));
    assert!(out.report.meta("ecn_threshold_pkts") == Some("5"));
}

/// The default configuration is a behavioral and observational no-op:
/// an AIMD run's artifacts contain no `cc.*` counters or series, no ECN
/// counters, and no new meta keys — which is what keeps the pre-refactor
/// goldens in `tests/hotpath.rs` valid without re-blessing.
#[test]
fn aimd_default_artifacts_carry_no_cc_keys() {
    let [report, jsonl, csv] = artifacts(&cc_cell(CcKind::Aimd, 1));
    for text in [&report, &jsonl, &csv] {
        assert!(
            !text.contains("cc."),
            "cc.* keys leaked into AIMD artifacts"
        );
        assert!(!text.contains("ecn"), "ECN keys leaked into AIMD artifacts");
    }
    // RTO accounting stays on the historical flat names for AIMD.
    assert!(report.contains("transport.rto_timeouts"));
    assert!(report.contains("transport.fast_retx"));
}

/// A fault-free, lightly loaded DCTCP run must fire no RTOs — and
/// therefore export no `cc.dctcp.rto_fired` counter at all (the
/// namespaced RTO counters only appear when nonzero, so their absence is
/// the assertion that timeout recovery stayed off the clean path).
#[test]
fn fault_free_runs_export_no_rto_series() {
    let mut cfg = cc_cell(CcKind::Dctcp, 1);
    cfg.load = 0.2;
    let out = run_fct(&cfg);
    assert_eq!(out.timeouts, 0, "fault-free light load must not RTO");
    assert!(
        !out.report.to_json().contains("cc.dctcp.rto_fired"),
        "zero-valued RTO counters must not be exported"
    );
    assert_eq!(out.report.metrics.counter("cc.dctcp.rto_fired"), 0);
}

/// One table row per controller: `cc_cell(cc, 1)` with a Leaf1–Spine1
/// link failed at 4 ms and recovered at 9 ms, so every controller repairs
/// a loss. Each must fill the transport counters; each non-default
/// controller fills its own `cc.<name>.*` series and loss counters, and
/// AIMD keeps the flat names and exports no `cc.` key at all.
#[test]
fn every_controller_fills_the_channels_it_owns() {
    let link = Link::new(NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)), 0);
    for cc in CcKind::ALL {
        let mut cfg = cc_cell(cc, 1);
        cfg.faults = vec![
            LinkFaultSpec::fail(SimTime::from_millis(4), link),
            LinkFaultSpec::recover(SimTime::from_millis(9), link),
        ];
        let out = run_fct(&cfg);
        let (m, name) = (&out.report.metrics, cc.name());
        for counter in ["transport.flows_started", "transport.subflows"] {
            assert!(m.counter(counter) > 0, "{name}: {counter} is empty");
        }
        assert_eq!(out.summary.incomplete, 0, "{name}: a flow was stranded");
        let has_series = |s: &str| !out.series.points(s).is_empty();
        if cc == CcKind::Aimd {
            let losses = m.counter("transport.rto_timeouts") + m.counter("transport.fast_retx");
            assert!(losses > 0, "aimd: no loss was repaired");
            let json = out.report.to_json() + &out.series.to_jsonl();
            assert!(!json.contains("cc."), "aimd: a cc. key was exported");
            continue;
        }
        for s in ["cwnd_bytes", "subflows"] {
            assert!(
                has_series(&format!("cc.{name}.{s}")),
                "{name}: no {s} series"
            );
        }
        let losses =
            m.counter(&format!("cc.{name}.rto_fired")) + m.counter(&format!("cc.{name}.fast_retx"));
        assert!(losses > 0, "{name}: no loss was repaired");
        let own = match cc {
            CcKind::Dctcp => Some("cc.dctcp.alpha_sum"),
            CcKind::Bbr => Some("cc.bbr.pacing_rate_bps"),
            _ => None,
        };
        if let Some(s) = own {
            assert!(has_series(s), "{name}: no {s} series");
        }
    }
}
