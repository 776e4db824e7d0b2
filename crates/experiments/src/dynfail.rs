//! The dynamic-failure experiment: fail a leaf–spine link *mid-run*,
//! recover it later, and measure how fast each scheme's delivered
//! throughput reconverges.
//!
//! This differs from the static Figure 11 harness (`fleet fig11_static`),
//! where the link is absent from the start: here the run begins on the
//! healthy baseline fabric, the failure fires through the engine's runtime
//! fault-injection path (blackholing queued and in-flight packets, forcing
//! the FIB to reconverge), and the link later comes back. The interesting
//! outputs are the throughput timeline around the transitions, the
//! time-to-reconverge, and whether any flow is permanently stranded.

use crate::figures::TraceArgs;
use crate::fleet::{cell, FleetCell};
use crate::runner::{
    build_testbed, leaf_capacity, setup_fct, stamp_cc, FctRun, LinkFaultSpec, Scheme, TestbedOpts,
};
use conga_fleet::Scenario;
use conga_net::{LeafId, Link, NodeId, SpineId};
use conga_sim::{SimDuration, SimTime};
use conga_telemetry::RunReport;
use conga_workloads::FlowSizeDist;

/// Specification for one dynamic-failure run: an FCT cell on the
/// *healthy* fabric plus the fault window and the throughput sampling.
#[derive(Clone, Debug)]
pub struct DynFailSpec {
    /// The cell's fabric (do not pre-fail a link), scheme, workload, load,
    /// seed and execution knobs. Its `n_flows` and `faults` are not read:
    /// the run derives them from the fields below.
    pub fct: FctRun,
    /// When the link fails.
    pub fail_at: SimTime,
    /// When the link recovers.
    pub recover_at: SimTime,
    /// The link to fail.
    pub link: Link,
    /// End of the offered-load window; arrivals are sized to span it.
    pub window: SimTime,
    /// Throughput-sampling slice width.
    pub slice: SimDuration,
}

impl DynFailSpec {
    /// The paper-shaped default: baseline testbed at 60 % load, fail the
    /// Leaf1–Spine1 link at 50 % of the window (leaving the first half as
    /// open-loop warm-up) and bring it back at 75 %.
    pub fn paper(scheme: Scheme, quick: bool, seed: u64) -> Self {
        let topo = if quick {
            TestbedOpts::paper_baseline().quick()
        } else {
            TestbedOpts::paper_baseline()
        };
        let window = if quick {
            SimTime::from_millis(160)
        } else {
            SimTime::from_millis(400)
        };
        let at = |f: f64| SimTime::from_nanos((window.as_nanos() as f64 * f) as u64);
        let mut fct = FctRun::new(topo, scheme, FlowSizeDist::enterprise(), 0.6);
        fct.seed = seed;
        DynFailSpec {
            fct,
            fail_at: at(0.50),
            recover_at: at(0.75),
            link: Link::new(NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)), 0),
            window,
            slice: SimDuration::from_millis(10),
        }
    }

    /// The FCT cell this run executes: `fct` with enough flows to span the
    /// window and the fail/recover schedule of `link`.
    pub(crate) fn fct_run(&self) -> FctRun {
        let mut cfg = self.fct.clone();
        // The offered flow rate per direction is load·capacity / (8·mean
        // size); the plan covers the window with margin.
        let capacity = leaf_capacity(&build_testbed(cfg.topo)) as f64;
        let rate = cfg.load * capacity / (8.0 * cfg.dist.mean());
        cfg.n_flows = (rate * self.window.as_secs_f64() * 1.3).ceil() as usize;
        cfg.faults = vec![
            LinkFaultSpec::fail(self.fail_at, self.link),
            LinkFaultSpec::recover(self.recover_at, self.link),
        ];
        cfg
    }

    /// The hashable [`Scenario`] of this cell: the FCT cell it executes,
    /// keyed by [`FctRun`]'s own rule (the fault window and `link` reach
    /// it as that cell's `faults`), plus the two sampling lines.
    pub fn scenario(&self, figure: &str, label: &str) -> Scenario {
        let DynFailSpec {
            fct: _,
            fail_at: _,
            recover_at: _,
            link: _,
            window,
            slice,
        } = self;
        let spec = format!(
            "{}window={}ns\nslice={}ns\n",
            self.fct_run().spec(),
            window.as_nanos(),
            slice.as_nanos(),
        );
        Scenario::new("dynfail", figure, label, spec)
    }
}

/// Build the fleet cell for one dynamic-failure run: executes
/// [`run_dynamic_failure`] on a worker and returns the phase throughputs /
/// reconvergence verdict as derived values, so a cache hit can reproduce
/// the figure row without re-simulating.
pub fn dynfail_cell(
    figure: &str,
    label: &str,
    spec: DynFailSpec,
    tracing: Option<TraceArgs>,
) -> FleetCell {
    cell(spec.scenario(figure, label), tracing, move |r| {
        let out = run_dynamic_failure(&spec);
        r.values.insert("pre_bps".into(), out.pre_bps);
        r.values.insert("during_bps".into(), out.during_bps);
        r.values.insert("post_bps".into(), out.post_bps);
        r.values.insert("blackholed".into(), out.blackholed as f64);
        r.values.insert("stranded".into(), out.stranded as f64);
        r.values.insert(
            "post_recovery_blackholed".into(),
            out.post_recovery_blackholed as f64,
        );
        r.text.insert(
            "reconverge_ms".into(),
            match out.reconverge {
                Some(d) => format!("{:.0}", d.as_secs_f64() * 1e3),
                None => "never".to_string(),
            },
        );
        (out.report, out.trace)
    })
}

/// What a dynamic-failure run produced.
#[derive(Clone, Debug)]
pub struct DynFailOutcome {
    /// Mean delivered throughput (bps) over the second half of the
    /// pre-failure phase (the first half is open-loop warm-up: long flows
    /// are still ramping, so delivered throughput climbs toward the offered
    /// rate for roughly a large-flow service time).
    pub pre_bps: f64,
    /// Mean delivered throughput (bps) over the failure window.
    pub during_bps: f64,
    /// Mean delivered throughput (bps) after recovery, to the window end.
    pub post_bps: f64,
    /// Time from the failure until delivered throughput first sustains
    /// ≥ 85 % of the pre-failure mean over a 4-slice moving window.
    /// `None` if the run never reconverged within the window.
    pub reconverge: Option<SimDuration>,
    /// Flows with no receive-side completion by the end of the run.
    pub stranded: usize,
    /// Total packets lost to the dead link.
    pub blackholed: u64,
    /// Packets blackholed *after* the recovery transition — must be zero:
    /// once the link is back, nothing may keep falling into it.
    pub post_recovery_blackholed: u64,
    /// The deterministic telemetry artifact; `run.delivered_bytes_per_slice`
    /// holds the payload bytes delivered in each slice of the window.
    pub report: RunReport,
    /// The trace recorder handle, if tracing was requested.
    pub trace: Option<conga_trace::TraceHandle>,
}

/// Run one dynamic-failure cell to completion (or a generous drain bound).
pub fn run_dynamic_failure(spec: &DynFailSpec) -> DynFailOutcome {
    let cfg = spec.fct_run();
    assert!(cfg.topo.fail.is_none(), "start from the healthy fabric");
    assert!(spec.fail_at < spec.recover_at && spec.recover_at < spec.window);
    let (_, mut run, span_ns) = setup_fct(&cfg, cfg.scheme.policy());
    assert!(
        SimTime::from_nanos(span_ns) >= spec.recover_at + spec.slice * 2,
        "arrival span {span_ns}ns too short to cover the fault schedule"
    );

    // Slice-by-slice over the offered-load window, recording the cumulative
    // delivered-payload and blackhole counters at each boundary.
    let n_slices = (spec.window.as_nanos() / spec.slice.as_nanos()) as usize;
    let mut cum_delivered = Vec::with_capacity(n_slices + 1);
    let mut blackholed_at_recovery = None;
    cum_delivered.push(run.stat(|s| s.delivered_payload));
    for i in 1..=n_slices {
        let t = SimTime::from_nanos(spec.slice.as_nanos() * i as u64);
        run.net.run_until(t);
        cum_delivered.push(run.stat(|s| s.delivered_payload));
        if blackholed_at_recovery.is_none() && t >= spec.recover_at {
            blackholed_at_recovery = Some(run.stat(|s| s.blackholed));
        }
    }
    // Drain: let every flow finish (blackholed segments need RTOs).
    let total_flows = cfg.n_flows * 2;
    let drain_bound = SimTime::from_nanos(span_ns) + SimDuration::from_secs(8);
    run.run_until_received(total_flows, drain_bound, |_| {});

    let per_slice: Vec<u64> = cum_delivered.windows(2).map(|w| w[1] - w[0]).collect();
    let slice_s = spec.slice.as_secs_f64();
    let slice_end = |i: usize| SimTime::from_nanos(spec.slice.as_nanos() * (i as u64 + 1));
    let mean_bps = |r: std::ops::Range<usize>| -> f64 {
        let n = r.len().max(1) as f64;
        per_slice[r].iter().map(|&b| b as f64 * 8.0).sum::<f64>() / (n * slice_s)
    };
    // Phase boundaries in slice indices (slices fully inside each phase).
    let pre_end = per_slice
        .iter()
        .enumerate()
        .take_while(|&(i, _)| slice_end(i) <= spec.fail_at)
        .count();
    let during_end = per_slice
        .iter()
        .enumerate()
        .take_while(|&(i, _)| slice_end(i) <= spec.recover_at)
        .count();
    // Baseline over the *second half* of the pre-fail phase: the first half
    // is warm-up (see `DynFailOutcome::pre_bps`).
    let pre_bps = mean_bps(pre_end / 2..pre_end);
    let during_bps = mean_bps(pre_end..during_end);
    let post_bps = mean_bps(during_end..per_slice.len());

    // Reconvergence: the first time after the failure that a 4-slice moving
    // window of delivered throughput sustains ≥ 85 % of the pre-fail mean.
    // (Per-slice byte counts of a heavy-tailed open-loop workload are noisy;
    // the moving window keeps the detector from triggering on one lucky
    // slice or missing recovery because of one unlucky one.)
    const WIN: usize = 4;
    const THRESH: f64 = 0.85;
    let mut reconverge = None;
    if pre_bps > 0.0 {
        for i in pre_end..per_slice.len().saturating_sub(WIN - 1) {
            let w_bps = mean_bps(i..i + WIN);
            if w_bps >= THRESH * pre_bps {
                reconverge = Some(slice_end(i + WIN - 1).saturating_since(spec.fail_at));
                break;
            }
        }
    }

    let stranded = total_flows - run.completed_rx();
    let blackholed = run.stat(|s| s.blackholed);
    let post_recovery_blackholed =
        blackholed - blackholed_at_recovery.expect("window covers the recovery");

    let mut report = RunReport::new();
    report.set_meta("figure", "fig11_dynamic_failure");
    report.set_meta("scheme", cfg.scheme.name());
    report.set_meta(
        "policy",
        conga_net::Dataplane::name(&run.net.domain(0).dataplane),
    );
    report.set_meta("seed", cfg.seed.to_string());
    report.set_meta("load", format!("{}", cfg.load));
    report.set_meta("n_flows", cfg.n_flows.to_string());
    stamp_cc(&mut report, cfg.cc, cfg.ecn_marking());
    report.set_meta(
        "fault_schedule",
        format!(
            "fail@{}ns,recover@{}ns:{}",
            spec.fail_at.as_nanos(),
            spec.recover_at.as_nanos(),
            spec.link,
        ),
    );
    report.set_meta("pre_bps", format!("{pre_bps:.0}"));
    report.set_meta("during_bps", format!("{during_bps:.0}"));
    report.set_meta("post_bps", format!("{post_bps:.0}"));
    report.set_meta(
        "reconverge_ns",
        match reconverge {
            Some(d) => d.as_nanos().to_string(),
            None => "never".to_string(),
        },
    );
    report.set_meta("stranded_flows", stranded.to_string());
    report.set_meta(
        "post_recovery_blackholed",
        post_recovery_blackholed.to_string(),
    );
    report.set_meta("end_time_ns", run.net.now().as_nanos().to_string());
    run.net.export_metrics(&mut report.metrics);
    for (i, &b) in per_slice.iter().enumerate() {
        report
            .metrics
            .sample("run.delivered_bytes_per_slice", slice_end(i), b as f64);
    }

    DynFailOutcome {
        pre_bps,
        during_bps,
        post_bps,
        reconverge,
        stranded,
        blackholed,
        post_recovery_blackholed,
        report,
        trace: run.merged_trace(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::{assert_key_coverage, Edit};
    use conga_sim::QueueKind;
    use conga_trace::TraceConfig;
    use conga_transport::CcKind;

    #[test]
    fn every_simulation_reaching_field_of_a_dynfail_cell_reaches_the_hash() {
        let base = || DynFailSpec::paper(Scheme::Ecmp, true, 1);
        let hash = |spec: DynFailSpec| spec.scenario("figX", "a").content_hash();
        // `fct` as one field (its own fields: the FCT cell's table), then
        // the dynfail fields in their order. `n_flows` and `faults` of
        // `fct` are derived from them, so setting those moves nothing.
        let reaching: &[Edit<DynFailSpec>] = &[
            ("fct", |s| s.fct.load = 0.3),
            ("fail_at", |s| s.fail_at = SimTime::from_millis(70)),
            ("recover_at", |s| s.recover_at = SimTime::from_millis(130)),
            ("link.a", |s| s.link.a = NodeId::Leaf(LeafId(0))),
            ("link.b", |s| s.link.b = NodeId::Spine(SpineId(0))),
            ("link.parallel", |s| s.link.parallel = 1),
            ("window", |s| s.window = SimTime::from_millis(200)),
            ("slice", |s| s.slice = SimDuration::from_millis(5)),
        ];
        let inert: &[Edit<DynFailSpec>] = &[
            ("fct.n_flows", |s| s.fct.n_flows = 7),
            ("fct.faults", |s| s.fct.faults.clear()),
            ("fct.queue", |s| s.fct.queue = QueueKind::Heap),
            ("fct.shards", |s| s.fct.shards = 4),
            ("fct.trace", |s| s.fct.trace = Some(TraceConfig::all())),
        ];
        assert_key_coverage(base, hash, reaching, inert);
    }

    #[test]
    fn reports_stamp_the_controller_they_ran() {
        // A short, light cell: the meta keys do not depend on its size.
        let run = |cc| {
            let mut spec = DynFailSpec::paper(Scheme::Ecmp, true, 1);
            spec.fct.cc = cc;
            spec.fct.load = 0.1;
            spec.window = SimTime::from_millis(20);
            spec.fail_at = SimTime::from_millis(10);
            spec.recover_at = SimTime::from_millis(15);
            spec.slice = SimDuration::from_millis(2);
            run_dynamic_failure(&spec).report
        };
        let dctcp = run(CcKind::Dctcp);
        assert_eq!(dctcp.meta("cc"), Some("dctcp"));
        assert_eq!(dctcp.meta("ecn_threshold_pkts"), Some("65"));
        let aimd = run(CcKind::Aimd);
        assert_eq!(aimd.meta("cc"), None);
        assert_eq!(aimd.meta("ecn_threshold_pkts"), None);
    }
}
