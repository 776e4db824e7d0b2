//! Figures 2 and 3: long-lived TCP flows on hand-built asymmetric fabrics.
//!
//! **Figure 2** — why congestion-aware load balancing needs *non-local*
//! information. Leaf 0 offers 100 Gbps of TCP traffic to Leaf 1 over two
//! spines; the S1→L1 link has half the capacity (40 G) of the other links
//! (80 G). The paper's analysis:
//!
//! * static ECMP splits 50/50 → lower path bottlenecked at 40 G → ~90 G;
//! * *local* congestion-aware balancing equalizes local uplink load →
//!   40/40 → ~80 G (worse than ECMP!);
//! * global (CONGA) converges to a ~2:1 split → ~100 G.
//!
//! **Figure 3** — the optimal split in an asymmetric topology depends on
//! the *traffic matrix*, so no static (oblivious) weighting can be right
//! in both cases; only congestion-aware balancing adapts. Topology:
//! 3 leaves, 2 spines, all 40 G links, except leaf 0 has no uplink to
//! spine 1 (so L0→L2 traffic is pinned through S0).
//!
//! * Case (a): only L1→L2 demand (40 G). Both of its paths are symmetric:
//!   optimal split 50/50, total 40 G.
//! * Case (b): plus 40 G of L0→L2 demand through S0. Now S0→L2 carries the
//!   pinned traffic, and the L1→L2 flows must shift to S1 to keep the
//!   total at 80 G.
//!
//! Both run many long-lived flows and report the steady-state throughput
//! and per-spine split per scheme; Figure 3 cross-checks the optimum with
//! the analytic game model (`conga_analysis::poa`).

use crate::cli::{banner, Args};
use crate::runner::ShardedRun;
use conga_analysis::poa::{BottleneckGame, User};
use conga_core::FabricPolicy;
use conga_net::{Dataplane, HostId, LeafSpineBuilder, NodeId, SpineId, Topology};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_transport::{FlowSpec, TcpConfig, TransportKind};

/// One saturated flow per `(src, dst)` pair on `topo` under `policy`, all
/// starting at time zero.
fn saturated(
    topo: &Topology,
    policy: FabricPolicy,
    pairs: &[(u32, u32)],
    args: &Args,
) -> ShardedRun {
    // Long-lived saturated flows: model Linux receive-buffer autotuning
    // (multi-MB windows) so the bottleneck queue actually fills and drops —
    // the loss/recovery stalls are what opens flowlet gaps on saturated
    // flows. A datacenter-tuned minRTO keeps convergence fast.
    let mut tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(2));
    tcp.rwnd = 4 << 20;
    let kind = TransportKind::Tcp(tcp.with_cc(args.primary_cc()));
    let flows: Vec<(SimTime, FlowSpec)> = pairs
        .iter()
        .map(|&(src, dst)| {
            let spec = FlowSpec {
                src: HostId(src),
                dst: HostId(dst),
                bytes: u64::MAX / 2,
                kind,
            };
            (SimTime::ZERO, spec)
        })
        .collect();
    args.engine(tcp.mss).register(topo, policy, &flows)
}

/// Warm `run` up, then measure a steady window: Gbps leaving `leaf`
/// toward each of the two spines, and the payload Gbps delivered
/// fabric-wide.
fn steady_state(run: &mut ShardedRun, leaf: usize, quick: bool) -> ([f64; 2], f64) {
    let (warm, window_ms) = if quick { (30, 30) } else { (80, 120) };
    let gbps = |bytes: u64| bytes as f64 * 8.0 / (window_ms as f64 * 1e-3) / 1e9;
    run.net.run_until(SimTime::from_millis(warm));
    let ups = run.net.domain(0).fib.leaf_uplinks[leaf].clone();
    let start: Vec<u64> = ups.iter().map(|&c| run.port_mut(c).tx_bytes).collect();
    let delivered = run.stat(|s| s.delivered_payload);
    run.net.run_until(SimTime::from_millis(warm + window_ms));
    let mut via = [0.0f64; 2];
    for (i, &c) in ups.iter().enumerate() {
        let NodeId::Spine(SpineId(s)) = run.net.domain(0).topo.channel(c).dst else {
            unreachable!()
        };
        via[s as usize] += gbps(run.port_mut(c).tx_bytes - start[i]);
    }
    (via, gbps(run.stat(|s| s.delivered_payload) - delivered))
}

/// Figure 2: asymmetry demands global congestion-awareness.
pub fn fig02(args: &Args) -> bool {
    banner(
        "Figure 2 — asymmetry demands global congestion-awareness",
        "L0->L1 TCP demand ~100G+; upper path 80G, lower path bottlenecked at 40G.\n\
         Paper: ECMP ~90G (50/50), local-aware ~80G (40/40), CONGA ~100G (2:1 split)",
    );
    args.print_controller();
    println!(
        "{:<22}{:>12}{:>14}{:>14}",
        "scheme", "total Gbps", "via S0 (80G)", "via S1 (40G)"
    );
    // 10 hosts per leaf at 10G = the paper's 100 Gbps of TCP demand toward
    // leaf 1, against 80 G + 40 G of asymmetric path capacity.
    let hosts = 10;
    let pairs: Vec<(u32, u32)> = (0..hosts).map(|i| (i, hosts + i)).collect();
    for (label, policy) in [
        ("(a) ECMP (static)", FabricPolicy::ecmp()),
        ("(b) local-aware", FabricPolicy::local()),
        ("(c) CONGA (global)", FabricPolicy::conga()),
        ("    weighted-random", FabricPolicy::weighted()),
    ] {
        let topo = LeafSpineBuilder::new(2, 2, hosts)
            .host_rate_gbps(10)
            .fabric_rate_gbps(80)
            .parallel_links(1)
            .override_link_rate_gbps(1, 1, 0, 40)
            .build();
        let name = policy.name();
        let mut run = saturated(&topo, policy, &pairs, args);
        let ([s0, s1], _) = steady_state(&mut run, 0, args.quick);
        eprintln!("[{name}] upper (via S0) {s0:.1}G, lower (via S1) {s1:.1}G");
        println!("{label:<22}{:>12.1}{s0:>14.1}{s1:>14.1}", s0 + s1);
    }
    true
}

/// Figure 3: the optimal split depends on the traffic matrix.
pub fn fig03(args: &Args) -> bool {
    banner(
        "Figure 3 — optimal split depends on the traffic matrix",
        "3 leaves, 2 spines, 40G links; L0 has no uplink to S1.\n\
         (a) only L1->L2 (40G): optimal L1 split 50/50.\n\
         (b) plus 40G of L0->L2 pinned via S0: optimal L1 split ~0/100.",
    );
    args.print_controller();
    for (case, with_l0) in [("(a) L0->L2 = 0", false), ("(b) L0->L2 = 40G", true)] {
        println!("\n{case}");
        println!(
            "{:<22}{:>14}{:>14}{:>12}",
            "scheme", "L1->L2 via S0", "L1->L2 via S1", "total Gbps"
        );
        // 8 hosts per leaf at 10G (L0 hosts are 0..8, L1 8..16, L2 16..24).
        // Leaf 1 offers 40G to leaf 2 (4 flows); in case (b) leaf 0 offers
        // another 40G — to *different* leaf-2 hosts so receiver access
        // links never bottleneck the fabric comparison.
        let pairs: Vec<(u32, u32)> = (0..4)
            .flat_map(|i| {
                let l0 = with_l0.then_some((i, 20 + i));
                std::iter::once((8 + i, 16 + i)).chain(l0)
            })
            .collect();
        for (label, policy) in [
            ("ECMP (static)", FabricPolicy::ecmp()),
            ("weighted-random", FabricPolicy::weighted()),
            ("CONGA (adaptive)", FabricPolicy::conga()),
        ] {
            let topo = LeafSpineBuilder::new(3, 2, 8)
                .host_rate_gbps(10)
                .fabric_rate_gbps(40)
                .parallel_links(1)
                .fail_link(0, 1, 0)
                .build();
            let mut run = saturated(&topo, policy, &pairs, args);
            let ([s0, s1], total) = steady_state(&mut run, 1, args.quick);
            println!("{label:<22}{s0:>14.1}{s1:>14.1}{total:>12.1}");
        }
    }

    // Analytic cross-check with the bottleneck-game optimizer.
    println!("\nAnalytic fluid optimum (bottleneck game, conga-analysis):");
    let mut rng = SimRng::new(args.seed);
    let demand = |src| User {
        src,
        dst: 2,
        demand: 40.0,
    };
    for (case, users) in [
        ("(a)", vec![demand(1)]),
        ("(b)", vec![demand(1), demand(0)]),
    ] {
        let mut g = BottleneckGame::symmetric(3, 2, 40.0, users);
        g.up_cap[0][1] = 0.0;
        let (b, x) = g.min_max_utilization(4000, &mut rng);
        println!(
            "  case {case}: min-max utilization {:.3}; L1->L2 split S0/S1 = {:.1}/{:.1}",
            b, x[0][0], x[0][1]
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args::from_iter(argv.iter().map(|s| s.to_string())).expect("valid args")
    }

    /// Figure 2's shape at a tenth of its rates: 10 pairs of 1 G hosts
    /// across an 8 G upper path and a 4 G lower one. Returns the measured
    /// steady state and the run's `net.ecn_marked_pkts`.
    fn fig02_cell(policy: FabricPolicy, argv: &[&str]) -> ([f64; 2], f64, u64) {
        let topo = LeafSpineBuilder::new(2, 2, 10)
            .host_rate_gbps(1)
            .fabric_rate_gbps(8)
            .parallel_links(1)
            .override_link_rate_gbps(1, 1, 0, 4)
            .build();
        let pairs: Vec<(u32, u32)> = (0..10).map(|i| (i, 10 + i)).collect();
        let mut run = saturated(&topo, policy, &pairs, &args(argv));
        let (via, total) = steady_state(&mut run, 0, true);
        let mut reg = conga_telemetry::MetricsRegistry::new();
        run.net.export_metrics(&mut reg);
        (via, total, reg.counter("net.ecn_marked_pkts"))
    }

    #[test]
    fn a_steady_cell_is_shard_count_invariant() {
        let one = fig02_cell(FabricPolicy::conga(), &["--shards", "1"]);
        assert!(one.1 > 0.0, "the cell delivered nothing: {one:?}");
        for shards in ["2", "3"] {
            assert_eq!(
                fig02_cell(FabricPolicy::conga(), &["--shards", shards]),
                one
            );
        }
    }

    #[test]
    fn the_controller_flag_reaches_the_cell() {
        let (_, _, aimd) = fig02_cell(FabricPolicy::ecmp(), &[]);
        assert_eq!(aimd, 0, "AIMD runs with marking off");
        let (_, _, dctcp) = fig02_cell(FabricPolicy::ecmp(), &["--cc", "dctcp"]);
        assert!(dctcp > 0, "DCTCP runs with marking on");
    }
}
