//! The telemetry layer's two contracts, asserted end-to-end:
//!
//! 1. **Determinism** — a [`conga::telemetry::RunReport`] is a pure
//!    function of `(code, seed, configuration)`: running the same FCT cell
//!    twice with the same seed yields byte-identical JSON, for every
//!    fabric policy.
//! 2. **Conservation** — the exported counters alone prove that no packet
//!    is created or lost by the engine: at quiescence,
//!    `injected == delivered + queue_drops + unroutable + blackholed` and
//!    the `engine.inflight_pkts` gauge reads zero. (These runs are
//!    fault-free, so `blackholed` is also asserted zero here; the
//!    fault-injection suite in `tests/faults.rs` exercises the non-zero
//!    case.)

use conga::core::FabricPolicy;
use conga::experiments::{run_fct_with_policy, FctRun, Scheme, TestbedOpts};
use conga::net::{HostId, LeafSpineBuilder, Network};
use conga::sim::SimTime;
use conga::telemetry::MetricsRegistry;
use conga::transport::{FlowSpec, TcpConfig, TransportKind, TransportLayer};
use conga::workloads::FlowSizeDist;

fn small_cell() -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga, // transport = plain TCP; the policy is overridden per case
        FlowSizeDist::enterprise(),
        0.4,
    );
    cfg.n_flows = 30;
    cfg.seed = 7;
    cfg
}

/// Same seed, same config, same policy → byte-identical RunReport JSON.
#[test]
fn same_seed_reports_are_byte_identical_for_every_policy() {
    let cfg = small_cell();
    for (name, mk) in FabricPolicy::zoo() {
        let a = run_fct_with_policy(&cfg, mk()).report.to_json();
        let b = run_fct_with_policy(&cfg, mk()).report.to_json();
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "policy {name}: reports diverged across same-seed runs"
        );
    }
}

/// Different seeds must actually exercise different executions (guards
/// against the determinism test passing because the report ignores the
/// run entirely).
#[test]
fn different_seeds_change_the_report() {
    let cfg = small_cell();
    let mut other = small_cell();
    other.seed = 8;
    let a = run_fct_with_policy(&cfg, FabricPolicy::conga())
        .report
        .to_json();
    let b = run_fct_with_policy(&other, FabricPolicy::conga())
        .report
        .to_json();
    assert_ne!(a, b, "seed is not reaching the run");
}

/// Fault-free runs must not export the fault-subsystem counters at all:
/// `net.blackholed_packets` and `net.fault_transitions` are *absent* from
/// the report (not merely zero), so their presence in an artifact is itself
/// evidence that a fault schedule was installed. The gating lives in the
/// engine, not the policy, so one policy suffices.
#[test]
fn fault_counters_absent_without_a_fault_schedule() {
    let json = run_fct_with_policy(&small_cell(), FabricPolicy::conga())
        .report
        .to_json();
    for key in ["net.blackholed_packets", "net.fault_transitions"] {
        assert!(!json.contains(key), "fault-free report exports {key}");
    }
}

/// Packet conservation, proven from the exported counters alone: whatever
/// the engine injected is accounted for as delivered, dropped at a queue,
/// or unroutable — and nothing remains in flight once the network is
/// quiescent.
#[test]
fn telemetry_counters_prove_packet_conservation() {
    for (name, mk) in FabricPolicy::zoo() {
        let topo = LeafSpineBuilder::new(2, 2, 4).parallel_links(2).build();
        let mut net = Network::new(topo, mk(), TransportLayer::new(), 11);
        net.agent_call(|a, now, em| {
            for i in 0..4u32 {
                a.start_flow(
                    FlowSpec {
                        src: HostId(i),
                        dst: HostId(4 + i),
                        bytes: 150_000,
                        kind: TransportKind::Tcp(TcpConfig::standard()),
                    },
                    now,
                    em,
                );
            }
        });
        // Run far past the last event: the event queue is empty afterwards,
        // so every injected packet has met its fate.
        net.run_until(SimTime::from_secs(3));
        let mut reg = MetricsRegistry::new();
        net.export_metrics(&mut reg);
        let injected = reg.counter("engine.injected_pkts");
        let delivered = reg.counter("engine.delivered_pkts");
        let dropped = reg.counter("engine.queue_drops");
        let unroutable = reg.counter("engine.unroutable_pkts");
        let blackholed = reg.counter("net.blackholed_packets");
        assert!(injected > 0, "policy {name}: nothing ran");
        assert_eq!(
            injected,
            delivered + dropped + unroutable + blackholed,
            "policy {name}: conservation violated"
        );
        assert_eq!(blackholed, 0, "policy {name}: blackholes without faults");
        assert_eq!(
            reg.gauge("engine.inflight_pkts"),
            Some(0),
            "policy {name}: packets left in flight at quiescence"
        );
        // Per-port rx totals are a second, independent delivery account.
        let port_rx: u64 = reg
            .counters()
            .filter(|(k, _)| k.starts_with("port.") && k.ends_with(".rx_pkts"))
            .map(|(_, v)| v)
            .sum();
        assert!(port_rx >= delivered, "policy {name}: port rx undercounts");
    }
}
