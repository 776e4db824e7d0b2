//! End-to-end contracts of the runtime fault-injection subsystem:
//!
//! 1. **Determinism through transitions** — a fail-at-T / recover-at-T′
//!    schedule leaves the run a pure function of `(code, seed, config)`:
//!    same-seed runs produce byte-identical telemetry JSON, for every
//!    fabric policy.
//! 2. **Conservation with blackholes** — packets lost to a dead link are
//!    counted, never silently dropped: at quiescence
//!    `injected == delivered + queue_drops + unroutable + blackholed`,
//!    with `blackholed > 0` when the failure catches traffic.
//! 3. **No stranded flows** — transports retransmit across the blackhole
//!    window and the reconverged FIB routes around the failure, so every
//!    flow still completes (with or without recovery).
//! 4. **RTO recovery across a partition** — a leaf fully cut off for less
//!    than the retransmission timeout resumes and finishes its flows once
//!    the links return.
//! 5. **One schedule at every tier** — leaf–spine and spine–core links
//!    fail and recover through the same `LinkFaultSpec` list.

use conga::core::FabricPolicy;
use conga::experiments::{run_fct_with_policy, FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga::net::{CoreId, HostId, LeafId, LeafSpineBuilder, Link, Network, NodeId, SpineId};
use conga::sim::SimTime;
use conga::telemetry::MetricsRegistry;
use conga::transport::{FlowSpec, TcpConfig, TransportKind, TransportLayer};
use conga::workloads::FlowSizeDist;

/// Link `p` between leaf `l` and spine `s`.
fn leaf_spine(l: u32, s: u32, p: u32) -> Link {
    Link::new(NodeId::Leaf(LeafId(l)), NodeId::Spine(SpineId(s)), p)
}

/// Link `p` between spine `s` and core `c`.
fn spine_core(s: u32, c: u32, p: u32) -> Link {
    Link::new(NodeId::Spine(SpineId(s)), NodeId::Core(CoreId(c)), p)
}

/// A small FCT cell whose arrival span (~20 ms at this load) comfortably
/// covers a fail-at-5 ms / recover-at-12 ms schedule.
fn faulted_cell() -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga, // transport = plain TCP; the policy is overridden per case
        FlowSizeDist::enterprise(),
        0.5,
    );
    cfg.n_flows = 40;
    cfg.seed = 7;
    cfg.faults = vec![
        LinkFaultSpec::fail(SimTime::from_millis(5), leaf_spine(1, 1, 0)),
        LinkFaultSpec::recover(SimTime::from_millis(12), leaf_spine(1, 1, 0)),
    ];
    cfg
}

/// Same seed, same fault schedule → byte-identical telemetry, for every
/// policy. The schedule must also be visible in the report metadata.
#[test]
fn same_seed_fault_runs_are_byte_identical_for_every_policy() {
    let cfg = faulted_cell();
    for (name, mk) in FabricPolicy::zoo() {
        let a = run_fct_with_policy(&cfg, mk()).report.to_json();
        let b = run_fct_with_policy(&cfg, mk()).report.to_json();
        assert_eq!(
            a, b,
            "policy {name}: reports diverged across same-seed fault runs"
        );
        assert!(
            a.contains("fail@5000000ns") && a.contains("recover@12000000ns"),
            "policy {name}: fault schedule missing from report meta"
        );
        assert!(
            a.contains("net.fault_transitions"),
            "policy {name}: fault transitions not exported"
        );
    }
}

/// The fault schedule must actually change the execution (guards against
/// the determinism test passing because faults never fire).
#[test]
fn fault_schedule_changes_the_run() {
    let faulted = faulted_cell();
    let mut clean = faulted_cell();
    clean.faults.clear();
    let a = run_fct_with_policy(&faulted, FabricPolicy::conga())
        .report
        .to_json();
    let b = run_fct_with_policy(&clean, FabricPolicy::conga())
        .report
        .to_json();
    assert_ne!(a, b, "fault schedule is not reaching the run");
}

/// Conservation through a fail/recover cycle, proven from the exported
/// counters: every injected packet is delivered, queue-dropped, unroutable,
/// or blackholed — and the failure really blackholes something.
#[test]
fn fault_runs_conserve_packets_including_blackholes() {
    for (name, mk) in FabricPolicy::zoo() {
        let out = run_fct_with_policy(&faulted_cell(), mk());
        let reg = &out.report.metrics;
        let injected = reg.counter("engine.injected_pkts");
        let delivered = reg.counter("engine.delivered_pkts");
        let dropped = reg.counter("engine.queue_drops");
        let unroutable = reg.counter("engine.unroutable_pkts");
        let blackholed = reg.counter("net.blackholed_packets");
        assert!(injected > 0, "policy {name}: nothing ran");
        assert_eq!(
            injected,
            delivered + dropped + unroutable + blackholed,
            "policy {name}: conservation violated through fail/recover"
        );
        assert_eq!(
            reg.counter("net.fault_transitions"),
            4, // 2 simplex channels × (fail + recover)
            "policy {name}: wrong number of applied transitions"
        );
        // The per-port blackhole account must agree with the engine total.
        let port_bh: u64 = reg
            .counters()
            .filter(|(k, _)| k.starts_with("port.") && k.ends_with(".blackholed"))
            .map(|(_, v)| v)
            .sum();
        assert!(
            port_bh <= blackholed,
            "policy {name}: port blackholes exceed engine total"
        );
    }
}

/// No flow is permanently stranded by a mid-run failure: with recovery —
/// and even without it — every flow completes, because the FIB reconverges
/// onto the surviving links and the transport retransmits whatever the
/// dead link swallowed. The failure must be real (blackholes observed).
#[test]
fn no_flow_stranded_across_failure() {
    for recovery in [true, false] {
        let mut cfg = faulted_cell();
        cfg.n_flows = 60;
        cfg.load = 0.7;
        // Two overlapping outages on different links: busier uplinks and
        // several transition instants make it (deterministically) certain
        // that some packets are caught on or queued for a dead link.
        cfg.faults = vec![
            LinkFaultSpec::fail(SimTime::from_millis(4), leaf_spine(1, 1, 0)),
            LinkFaultSpec::fail(SimTime::from_millis(6), leaf_spine(0, 0, 0)),
            LinkFaultSpec::recover(SimTime::from_millis(9), leaf_spine(1, 1, 0)),
            LinkFaultSpec::recover(SimTime::from_millis(11), leaf_spine(0, 0, 0)),
        ];
        if !recovery {
            cfg.faults.truncate(2); // both failures become permanent
        }
        let out = run_fct_with_policy(&cfg, FabricPolicy::conga());
        assert_eq!(
            out.summary.incomplete, 0,
            "recovery={recovery}: flows stranded by the fault"
        );
        assert!(
            out.report.metrics.counter("net.blackholed_packets") > 0,
            "recovery={recovery}: schedule failed to blackhole anything — retune the cell"
        );
        assert_eq!(
            out.report.metrics.gauge("engine.inflight_pkts"),
            Some(0),
            "recovery={recovery}: packets left in flight at quiescence"
        );
    }
}

/// Mid-run fail/recover on a **cross-shard** channel. At `--shards 4` the
/// two-leaf testbed runs one domain per leaf (host → its leaf, spine s →
/// domain s mod leaves), and the Leaf0–Spine1 link is owned by domain 0 on
/// transmit and domain 1 on arrival, so its fault transitions and
/// blackholes exercise the replicated fault schedule and the
/// ownership-gated accounting across the barrier. Contract:
/// byte-identical artifacts at `--shards 1` vs `--shards 4`, a real
/// outage (blackholes observed), and zero packets blackholed after the
/// recovery transition.
#[test]
fn cross_shard_link_fault_is_shard_count_invariant() {
    use conga::experiments::{run_dynamic_failure, DynFailSpec};
    use conga::sim::SimDuration;

    let mk = |shards: usize| {
        let mut spec = DynFailSpec::paper(Scheme::Conga, true, 9);
        spec.window = SimTime::from_millis(40);
        spec.fail_at = SimTime::from_millis(16);
        spec.recover_at = SimTime::from_millis(28);
        spec.slice = SimDuration::from_millis(4);
        spec.link = leaf_spine(0, 1, 0); // tx domain 0, rx domain 1
        spec.fct.shards = shards;
        spec
    };
    let serial = run_dynamic_failure(&mk(1));
    let sharded = run_dynamic_failure(&mk(4));
    assert!(
        serial.report.to_json() == sharded.report.to_json(),
        "cross-shard fault: report diverged between --shards 1 and --shards 4"
    );
    assert!(
        sharded.blackholed > 0,
        "the cross-shard outage swallowed nothing — retune the cell"
    );
    assert_eq!(
        sharded.post_recovery_blackholed, 0,
        "packets kept falling into the link after it recovered"
    );
    assert_eq!(
        sharded.stranded, 0,
        "flows stranded by the cross-shard fault"
    );
    assert_eq!(
        sharded.report.metrics.counter("net.fault_transitions"),
        4, // 2 simplex channels × (fail + recover), counted once each
        "replicated fault schedule double-counted a transition"
    );
}

/// Every uplink of one leaf fails at once — the candidate set a dataplane
/// sees for cross-fabric traffic from that leaf goes **empty** mid-run.
/// Contract, for every policy: no panic, deterministic byte-identical
/// reports, the outage is real (packets blackholed or unroutable, and
/// accounted), and after recovery every flow still completes.
#[test]
fn total_uplink_failure_of_one_leaf_degrades_without_panicking() {
    for (name, mk) in FabricPolicy::zoo() {
        let mut cfg = faulted_cell();
        cfg.n_flows = 50;
        cfg.load = 0.6;
        // The quick baseline fabric has 2 spines × 2 parallel links per
        // leaf: fail all four Leaf1 uplinks inside the arrival span, then
        // bring them back well before the minimum RTO gives up.
        cfg.faults.clear();
        for spine in 0..2 {
            for parallel in 0..2 {
                let link = leaf_spine(1, spine, parallel);
                cfg.faults
                    .push(LinkFaultSpec::fail(SimTime::from_millis(4), link));
                cfg.faults
                    .push(LinkFaultSpec::recover(SimTime::from_millis(11), link));
            }
        }
        let a = run_fct_with_policy(&cfg, mk());
        let b = run_fct_with_policy(&cfg, mk());
        assert_eq!(
            a.report.to_json(),
            b.report.to_json(),
            "policy {name}: reports diverged across the total-uplink outage"
        );
        let reg = &a.report.metrics;
        let blackholed = reg.counter("net.blackholed_packets");
        let unroutable = reg.counter("engine.unroutable_pkts");
        assert!(
            blackholed + unroutable > 0,
            "policy {name}: cutting every Leaf1 uplink swallowed nothing — retune the cell"
        );
        assert_eq!(
            reg.counter("engine.injected_pkts"),
            reg.counter("engine.delivered_pkts")
                + reg.counter("engine.queue_drops")
                + unroutable
                + blackholed,
            "policy {name}: conservation violated through the total outage"
        );
        assert_eq!(
            a.summary.incomplete, 0,
            "policy {name}: flows stranded after the uplinks returned"
        );
        assert_eq!(
            reg.gauge("engine.inflight_pkts"),
            Some(0),
            "policy {name}: packets left in flight at quiescence"
        );
    }
}

/// A leaf completely partitioned for a blackhole window shorter than the
/// minimum RTO: the flow's first window is lost to the dead links, the
/// sender sits out the outage on its retransmission timer, and the
/// retransmission after recovery completes the flow.
#[test]
fn rto_carries_a_flow_across_a_full_partition() {
    let topo = LeafSpineBuilder::new(2, 2, 2).build(); // one uplink per spine
    let mut net = Network::new(topo, FabricPolicy::conga(), TransportLayer::new(), 3);
    net.agent_call(|a, now, em| {
        a.start_flow(
            FlowSpec {
                src: HostId(0),
                dst: HostId(2),
                bytes: 120_000,
                kind: TransportKind::Tcp(TcpConfig::standard()),
            },
            now,
            em,
        );
    });
    // Cut every Leaf0 uplink while the first window is on the wire; bring
    // them back at 150 ms, before the ~200 ms minimum RTO fires.
    for spine in 0..2 {
        net.schedule_link(SimTime::from_micros(40), leaf_spine(0, spine, 0), false);
        net.schedule_link(SimTime::from_millis(150), leaf_spine(0, spine, 0), true);
    }
    net.run_until(SimTime::from_secs(5));

    let rec = net.agent.records[0];
    assert!(
        rec.timeouts >= 1,
        "the partition should have cost at least one RTO"
    );
    assert!(
        rec.rx_done.is_some(),
        "flow did not complete after the links returned"
    );
    let mut reg = MetricsRegistry::new();
    net.export_metrics(&mut reg);
    let lost = reg.counter("net.blackholed_packets") + reg.counter("engine.unroutable_pkts");
    assert!(lost > 0, "the partition swallowed nothing");
    assert_eq!(
        reg.counter("engine.injected_pkts"),
        reg.counter("engine.delivered_pkts")
            + reg.counter("engine.queue_drops")
            + reg.counter("engine.unroutable_pkts")
            + reg.counter("net.blackholed_packets"),
        "conservation violated across the partition"
    );
    assert_eq!(reg.gauge("engine.inflight_pkts"), Some(0));
}

/// A spine–core link failing and recovering mid-run on the three-tier
/// Clos — the CAFT-style scenario: the schedule reaches the report meta,
/// changes the execution, conserves packets through the transitions, and
/// strands no flow (inter-pod traffic detours through the surviving core
/// while the link is down).
#[test]
fn core_link_fault_cycle_conserves_packets_and_strands_no_flow() {
    let mut cfg = FctRun::new(
        TestbedOpts::three_tier(2, 2, 1, 2, 4),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.4,
    );
    cfg.n_flows = 40;
    cfg.seed = 7;
    cfg.faults = vec![
        LinkFaultSpec::fail(SimTime::from_millis(3), spine_core(0, 0, 0)),
        LinkFaultSpec::recover(SimTime::from_millis(9), spine_core(0, 0, 0)),
    ];
    let out = run_fct_with_policy(&cfg, FabricPolicy::conga());
    let json = out.report.to_json();
    assert!(
        json.contains("fail@3000000ns:spine0-core0#0")
            && json.contains("recover@9000000ns:spine0-core0#0"),
        "core fault schedule missing from report meta"
    );
    assert_eq!(out.summary.incomplete, 0, "a flow was stranded");
    let reg = &out.report.metrics;
    assert_eq!(
        reg.counter("engine.injected_pkts"),
        reg.counter("engine.delivered_pkts")
            + reg.counter("engine.queue_drops")
            + reg.counter("engine.unroutable_pkts")
            + reg.counter("net.blackholed_packets"),
        "conservation violated through the core-link fail/recover cycle"
    );

    // The schedule must actually change the run (guards against the
    // transitions silently never firing).
    let mut clean = cfg.clone();
    clean.faults.clear();
    let b = run_fct_with_policy(&clean, FabricPolicy::conga())
        .report
        .to_json();
    assert_ne!(json, b, "core fault schedule is not reaching the run");
}

/// One schedule, two tiers, one cell: on the three-tier Clos a leaf–spine
/// and a spine–core link fail and recover, overlapping, through one
/// `faults` list. The report lists the four transitions in schedule order,
/// all eight simplex transitions fire, the outage catches packets,
/// conservation holds, no flow is stranded, and two workers reproduce one.
#[test]
fn one_schedule_fails_links_at_two_tiers() {
    let ms = SimTime::from_millis;
    let mut cfg = FctRun::new(
        TestbedOpts::three_tier(2, 2, 2, 2, 4),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.7,
    );
    cfg.n_flows = 60;
    cfg.seed = 2;
    cfg.faults = vec![
        LinkFaultSpec::fail(ms(3), leaf_spine(0, 0, 0)),
        LinkFaultSpec::fail(ms(4), spine_core(0, 0, 0)),
        LinkFaultSpec::recover(ms(7), leaf_spine(0, 0, 0)),
        LinkFaultSpec::recover(ms(9), spine_core(0, 0, 0)),
    ];
    let out = run_fct_with_policy(&cfg, FabricPolicy::conga());
    assert_eq!(
        out.report.meta("fault_schedule"),
        Some(
            "fail@3000000ns:leaf0-spine0#0,fail@4000000ns:spine0-core0#0,\
             recover@7000000ns:leaf0-spine0#0,recover@9000000ns:spine0-core0#0"
        )
    );
    let reg = &out.report.metrics;
    assert_eq!(
        reg.counter("net.fault_transitions"),
        8,
        "2 links × 2 simplex channels × (fail + recover)"
    );
    assert!(
        reg.counter("net.blackholed_packets") > 0,
        "the two outages swallowed nothing — retune the cell"
    );
    assert_eq!(
        reg.counter("engine.injected_pkts"),
        reg.counter("engine.delivered_pkts")
            + reg.counter("engine.queue_drops")
            + reg.counter("engine.unroutable_pkts")
            + reg.counter("net.blackholed_packets"),
        "conservation violated through the two-tier schedule"
    );
    assert_eq!(out.summary.incomplete, 0, "a flow was stranded");

    let mut sharded = cfg.clone();
    sharded.shards = 2;
    let two = run_fct_with_policy(&sharded, FabricPolicy::conga());
    assert!(
        out.report.to_json() == two.report.to_json(),
        "two-tier schedule: report diverged between shards 1 and 2"
    );
}
