//! The static link-failure figures: links absent from the start of the
//! run (mid-run failures are [`crate::dynfail`]).
//!
//! **Figure 11** — impact of a link failure (Figure 7b — one of the two
//! Leaf1–Spine1 40 G links down, bisection at 75 %).
//!
//! * Panels (a)/(b): overall average FCT (normalized to optimal) for the
//!   enterprise and data-mining workloads at loads 10–70 %. The paper's
//!   signature: ECMP goes unstable past 50 % load (half the L0→L1 traffic
//!   still hashes through Spine 1, whose single remaining link must carry
//!   2× its share), while the adaptive schemes degrade gracefully and
//!   CONGA is the most robust.
//! * Panel (c): CDF of queue depth at the hotspot port [Spine1→Leaf1] for
//!   the data-mining workload at 60 % load.
//!
//! **Figure 16** — multiple link failures in a 288-port fabric: 6 leaves ×
//! 4 spines with 3×40 G links per pair; 9 randomly chosen leaf-spine links
//! fail. Web-search workload at 60 % load. The paper plots the mean queue
//! length of every fabric port: ECMP piles ~10× deeper queues than CONGA
//! at the spine downlinks adjacent to the failures (ECMP keeps splitting
//! equally at the leaves, so surviving parallel links carry multiples of
//! their share; CONGA routes around).

use crate::cli::{banner, Args};
use crate::figures::{fct_sweep, loads_arg, print_fct_panels, write_metrics_sidecar_text};
use crate::runner::{
    build_testbed, fct_meta, plan_arrivals, run_until_received, start_source, uniform_arrivals,
    workload_rng, FctRun, Scheme, TestbedOpts,
};
use conga_analysis::stats::{mean, percentile};
use conga_net::{ChannelId, ChannelKind, Dataplane, LeafSpineBuilder, Network, NodeId, Topology};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_telemetry::RunReport;
use conga_transport::{TcpConfig, TransportLayer};
use conga_workloads::FlowSizeDist;

/// Figure 11 (static): FCT sweeps and the hotspot queue on the Figure-7(b)
/// fabric. Returns `false` if any sidecar write failed.
pub fn fig11_static(args: &Args) -> bool {
    let mut written = true;
    banner(
        "Figure 11 — impact of link failure (3x40G bisection, load ref. unchanged)",
        "one Leaf1-Spine1 link down; ECMP still sends half of L0->L1 via Spine 1",
    );
    let loads = loads_arg(
        args,
        if args.quick {
            vec![0.4, 0.6]
        } else {
            (1..=7).map(|l| l as f64 / 10.0).collect()
        },
    );

    for (dist, flows, title) in [
        (FlowSizeDist::enterprise(), 800, "(a) enterprise workload"),
        (FlowSizeDist::data_mining(), 250, "(b) data-mining workload"),
    ] {
        println!("\n{title}");
        let (sweep, sweep_written) = fct_sweep(
            args,
            "fig11_link_failure",
            TestbedOpts::paper_failure(),
            &dist,
            &loads,
            &Scheme::PAPER,
            flows,
        );
        written &= sweep_written;
        print_fct_panels(&sweep);
    }

    // Panel (c): queue CDF at the hotspot, data-mining @ 60%.
    println!("\n(c) queue length at hotspot [Spine1->Leaf1], data-mining @ 60% load");
    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>12}",
        "scheme", "p50 (KB)", "p90 (KB)", "p99 (KB)", "max (KB)"
    );
    for scheme in Scheme::PAPER {
        let topo = if args.quick {
            TestbedOpts::paper_failure().quick()
        } else {
            TestbedOpts::paper_failure()
        };
        let mut cfg = args.fct_run(topo, scheme, FlowSizeDist::data_mining(), 0.6);
        cfg.n_flows = if args.quick { 120 } else { 300 };
        let (queue, report) = hotspot_queue(&cfg);
        written &=
            write_metrics_sidecar_text("fig11_link_failure", scheme.name(), &report.to_json());
        // `percentile` is None exactly when the sample is empty; report an
        // all-zero hotspot profile rather than crash on a degenerate run.
        let kb = |rank: f64| percentile(&queue, rank).unwrap_or(0.0) / 1024.0;
        println!(
            "{:<12}{:>12.0}{:>12.0}{:>12.0}{:>12.0}",
            scheme.name(),
            kb(50.0),
            kb(90.0),
            kb(99.0),
            kb(100.0)
        );
    }
    written
}

/// Run `cfg` on the monolithic engine — [`crate::runner::run_fct`] samples
/// leaf 0's uplinks every 10 ms; this samples the hotspot, the surviving
/// Spine1→Leaf1 channel, every 1 ms — and return its queue depths in bytes,
/// read from the run's telemetry report, plus the report.
fn hotspot_queue(cfg: &FctRun) -> (Vec<f64>, RunReport) {
    let topo = build_testbed(cfg.topo);
    let hotspot: Vec<ChannelId> = topo
        .channels
        .iter()
        .enumerate()
        .filter(|(_, c)| {
            c.kind == ChannelKind::SpineDown
                && matches!(c.src, NodeId::Spine(s) if s.0 == 1)
                && matches!(c.dst, NodeId::Leaf(l) if l.0 == 1)
        })
        .map(|(i, _)| ChannelId(i as u32))
        .collect();
    assert_eq!(hotspot.len(), 1, "exactly one surviving S1->L1 link");

    let (arrivals, span_ns) = plan_arrivals(
        cfg.topo,
        &cfg.dist,
        cfg.load,
        cfg.n_flows,
        cfg.scheme.transport(cfg.tcp.with_cc(cfg.cc)),
        &mut workload_rng(cfg.seed),
    );
    let mut net = Network::new(topo, cfg.scheme.policy(), TransportLayer::new(), cfg.seed);
    if let Some(e) = cfg.ecn_config() {
        net.set_ecn(e);
    }
    let queue_name = format!("port.{:04}.queue_bytes", hotspot[0].idx());
    net.enable_sampling(hotspot, SimDuration::from_millis(1));
    start_source(&mut net, arrivals);
    run_until_received(
        &mut net,
        cfg.n_flows * 2,
        SimDuration::from_millis(50),
        SimTime::from_nanos(span_ns) + SimDuration::from_secs(8),
    );
    let mut report = fct_meta(cfg, net.dataplane.name(), net.now());
    net.export_metrics(&mut report.metrics);
    let queue = report.metrics.series(&queue_name);
    (queue.iter().map(|&(_, b)| b).collect(), report)
}

/// Figure 16's 9 random distinct (leaf, spine, parallel) links to fail.
fn fig16_failed_links(seed: u64) -> Vec<(u32, u32, u32)> {
    let mut frng = SimRng::new(seed ^ 0xFA11);
    let mut failed = Vec::new();
    while failed.len() < 9 {
        let f = (
            frng.below(6) as u32,
            frng.below(4) as u32,
            frng.below(3) as u32,
        );
        if !failed.contains(&f) {
            failed.push(f);
        }
    }
    failed
}

/// Figure 16's fabric: 6 leaves × 4 spines × 3 parallel 40 G links, 10 G
/// hosts, without the `failed` links.
fn fig16_fabric(hosts_per_leaf: u32, failed: &[(u32, u32, u32)]) -> Topology {
    let mut b = LeafSpineBuilder::new(6, 4, hosts_per_leaf)
        .host_rate_gbps(10)
        .fabric_rate_gbps(40)
        .parallel_links(3);
    for &(l, s, p) in failed {
        b = b.fail_link(l, s, p);
    }
    b.build()
}

/// Figure 16: mean queue per fabric port under 9 random link failures.
pub fn fig16(args: &Args) -> bool {
    banner(
        "Figure 16 — 9 random link failures in a 6-leaf x 4-spine x 3x40G fabric",
        "mean queue per fabric port, web-search @ 60% load; paper: ECMP ~10x CONGA\n\
         at the spine downlinks next to failures",
    );
    let failed = fig16_failed_links(args.seed);
    println!("failed links (leaf, spine, parallel): {failed:?}\n");

    // The paper's 288-port fabric: 48 x 10G hosts per leaf, 12 x 40G
    // uplinks — 1:1 subscription, so 60% load genuinely loads the fabric.
    let hosts_per_leaf = if args.quick { 12 } else { 48 };
    let n_flows = if args.quick { 600 } else { 4000 };

    let mut results: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for scheme in [Scheme::Ecmp, Scheme::Conga] {
        let topo = fig16_fabric(hosts_per_leaf, &failed);
        // Load reference: the *unfailed* per-leaf capacity (12 x 40G or the
        // access bound for --quick).
        let unfailed_cap = (12 * 40_000_000_000u64).min(hosts_per_leaf as u64 * 10_000_000_000);
        let mut rng = SimRng::new(args.seed);
        let arrivals = uniform_arrivals(
            &FlowSizeDist::web_search(),
            &topo,
            unfailed_cap,
            0.6,
            n_flows,
            &mut rng,
            scheme.transport(TcpConfig::standard()),
        );
        let span: u64 = arrivals.iter().map(|(g, _)| g.as_nanos()).sum();
        let policy = scheme.policy();
        let name = policy.name().to_string();
        let mut net = Network::new(topo, policy, TransportLayer::new(), args.seed);
        start_source(&mut net, arrivals);
        run_until_received(
            &mut net,
            n_flows,
            SimDuration::from_millis(50),
            SimTime::from_nanos(span) + SimDuration::from_secs(5),
        );
        // Mean queue depth per fabric channel, split by kind.
        let now = net.now();
        let chans: Vec<(ChannelId, ChannelKind)> = net
            .topo
            .channels
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_fabric())
            .map(|(i, c)| (ChannelId(i as u32), c.kind))
            .collect();
        let mut leaf_up = Vec::new();
        let mut spine_down = Vec::new();
        for (ch, kind) in chans {
            let q = net.port_mut(ch).mean_queue_bytes(now) / 1024.0;
            match kind {
                ChannelKind::LeafUp => leaf_up.push(q),
                ChannelKind::SpineDown => spine_down.push(q),
                _ => {}
            }
        }
        println!(
            "[{name}] done: {} of {} flows, drops {}",
            net.agent.completed_rx,
            n_flows,
            net.total_drops()
        );
        results.push((name, leaf_up, spine_down));
    }

    println!(
        "\n{:<10}{:>22}{:>22}{:>22}",
        "scheme", "leaf-up mean q (KB)", "spine-down mean (KB)", "spine-down max (KB)"
    );
    for (name, up, down) in &results {
        let dmax = down.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{:<10}{:>22.1}{:>22.1}{:>22.1}",
            name,
            mean(up),
            mean(down),
            dmax
        );
    }
    if let [(_, _, d_ecmp), (_, _, d_conga)] = &results[..] {
        let ratio = mean(d_ecmp) / mean(d_conga).max(1e-9);
        println!(
            "\nECMP/CONGA mean spine-downlink queue ratio: {ratio:.1}x (paper: ~10x at hot ports)"
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use conga_net::{CoreId, Fib, NodeId, SpineId, TopologyBuilder};

    /// FNV-1a/64 of every table of `fib`, rendered by its derive.
    fn fnv(fib: &Fib) -> u64 {
        conga_fleet::scenario::fnv1a64(format!("{fib:?}").as_bytes())
    }

    /// The forwarding tables of three fabrics as the two-pass FIB (a
    /// fresh build beside an in-place refresh) computed them at commit
    /// e3f08b2: Figure 7(b), Figure 16's fabric with its nine failed links
    /// at seed 1, and the 16-leaf three-tier Clos refreshed after its
    /// spine0–core0 link fails. Every routing decision hangs off these
    /// tables: not one candidate may move.
    #[test]
    fn fib_tables_match_the_two_pass_build() {
        let fig7b = build_testbed(TestbedOpts::paper_failure()).fib();
        let failed = fig16_failed_links(1);
        assert_eq!(failed.len(), 9);
        let fig16 = fig16_fabric(48, &failed).fib();
        let clos = TopologyBuilder::three_tier(4, 4, 2, 2, 16).build();
        let mut refreshed = clos.fib();
        let mut live = vec![true; clos.channels.len()];
        for (up, down) in clos.link_channels(NodeId::Spine(SpineId(0)), NodeId::Core(CoreId(0))) {
            live[up.idx()] = false;
            live[down.idx()] = false;
        }
        refreshed.refresh_live(&clos, &live);
        assert_eq!(
            [fnv(&fig7b), fnv(&fig16), fnv(&refreshed)],
            [
                0x5e09_50b4_d4e3_d1e1,
                0x99c2_bfbb_11ed_af74,
                0xe604_24d5_589a_e670
            ]
        );
    }
}
