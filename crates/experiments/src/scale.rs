//! Figure 15: large-scale simulations — overall average FCT (normalized to
//! ECMP) for a web-search workload on 3:1-oversubscribed fabrics with
//! 40 G fabric links:
//!
//! * (a) 192 hosts at 10 G (CONGA gains modest at low load: each fabric
//!   link fits ≥4 edge flows, so hash collisions rarely hurt);
//! * (b) 48 hosts at 40 G (edge rate = fabric rate: collisions are
//!   immediately painful, CONGA's advantage is large even at 30 % load);
//! * (c) a pod-structured three-tier Clos at 10,240 hosts — 8 pods of
//!   4 leaves × 2 spines, 4 cores, 320 hosts per leaf — streaming its
//!   FCTs through the deterministic sketch (no per-flow sample buffer);
//! * (d) a CAFT-style core-link failure: a spine–core link of the
//!   three-tier fabric fails mid-run and recovers, exercising the
//!   runtime fault scheduler across the core tier.
//!
//! Paper: ~5–10 % improvement at 30 % load for 10 G edges vs ~30 % for
//! 40 G edges, growing with load.
//!
//! `--quick` shrinks every case: 2 leaves for (a)/(b) and a small
//! three-tier cell (2 pods × 2 leaves × 1 spine, 2 cores) for (c)/(d).

use crate::cli::{banner, Args};
use crate::figures::{fault_args, fct_sweep, loads_arg};
use crate::fleet::{fct_cell, run_cells, FleetOpts};
use crate::runner::{FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga_net::{CoreId, Link, NodeId, SpineId};
use conga_sim::SimTime;
use conga_workloads::FlowSizeDist;

/// Figure 15: web-search FCT on 3:1-oversubscribed two- and three-tier
/// fabrics, plus the core-link failure case. Returns `false` if a sidecar
/// write failed.
pub fn fig15(args: &Args) -> bool {
    banner(
        "Figure 15 — large-scale web-search workload, 3:1 oversubscription",
        "(a)/(b): 4 leaves x 4 spines x 40G (2 leaves in --quick); \
         (c)/(d): three-tier Clos, 10240 hosts full / 16 hosts quick",
    );
    let loads = loads_arg(
        args,
        if args.quick {
            vec![0.4, 0.7]
        } else {
            vec![0.3, 0.5, 0.7]
        },
    );
    // 3:1 oversubscription: access 480G per leaf vs 4 x 40G = 160G uplinks.
    let two_tier = |hosts_per_leaf, host_gbps| TestbedOpts {
        leaves: if args.quick { 2 } else { 4 },
        spines: 4,
        hosts_per_leaf,
        host_gbps,
        fabric_gbps: 40,
        parallel: 1,
        fail: None,
        pods: 1,
        cores: 0,
    };
    // (c): the 10k-host three-tier Clos — 8 pods x (4 leaves + 2 spines),
    // 4 cores, 320 hosts/leaf = 10240 hosts. Quick mode keeps the shape
    // (pods, cores, inter-pod paths) at toy size.
    let three_tier = if args.quick {
        TestbedOpts::three_tier(2, 2, 1, 2, 4)
    } else {
        TestbedOpts::three_tier(8, 4, 2, 4, 320)
    };
    let cases = [
        ("(a) 10G hosts", two_tier(48, 10)),
        ("(b) 40G hosts", two_tier(12, 40)),
        ("(c) three-tier Clos, streaming sketch", three_tier),
    ];
    // A `--fault-link` that one case's fabric lacks is rejected before
    // any case runs, not when its sweep comes up.
    for (_, topo) in cases {
        fault_args(args, if args.quick { topo.quick() } else { topo });
    }
    let mut written = true;
    for (title, topo) in cases {
        println!("\n{title}");
        // The 10k-host case is one deterministic run per cell: averaging
        // independent runs is what the small cases are for, and each
        // three-tier cell is ~20x the work.
        let case_args = if topo.pods > 1 {
            let mut a = args.clone();
            a.runs = Some(1);
            a
        } else {
            args.clone()
        };
        let (sweep, sweep_written) = fct_sweep(
            &case_args,
            "fig15_large_scale",
            topo,
            &FlowSizeDist::web_search(),
            &loads,
            &[Scheme::Ecmp, Scheme::Conga],
            500,
        );
        written &= sweep_written;
        println!("{:<12}FCT normalized to ECMP", "load");
        print!("{:<12}", "");
        for l in &loads {
            print!("{:>9.0}%", l * 100.0);
        }
        println!();
        for (si, s) in sweep.schemes.iter().enumerate() {
            print!("{:<12}", s.name());
            for li in 0..loads.len() {
                // An ECMP cell that completed no measured flow reports
                // 0.0; dividing by it would print inf/NaN. Render the
                // unusable ratio as n/a instead.
                let base = sweep.overall[0][li];
                if base > 0.0 {
                    print!("{:>10.3}", sweep.overall[si][li] / base);
                } else {
                    print!("{:>10}", "n/a");
                }
            }
            println!();
        }
    }

    // (d): CAFT-style core-link failure on the three-tier fabric — fail
    // one spine0–core0 link mid-run, recover it later, through the same
    // runtime fault scheduler the leaf–spine scenarios use. Inter-pod
    // traffic must detour through the surviving cores while the link is
    // down; nothing may remain blackholed after recovery.
    println!("\n(d) core-link failure (spine0-core0 down 3ms..9ms)");
    let load = *loads.last().expect("loads is never empty");
    let opts = FleetOpts::from_args(args, false);
    let cells: Vec<_> = [Scheme::Ecmp, Scheme::Conga]
        .into_iter()
        .map(|scheme| {
            let mut cfg = FctRun::new(three_tier, scheme, FlowSizeDist::web_search(), load);
            cfg.n_flows = if args.quick { 120 } else { 500 };
            cfg.seed = args.seed;
            cfg.shards = args.shards;
            cfg.sketch = true;
            let link = Link::new(NodeId::Spine(SpineId(0)), NodeId::Core(CoreId(0)), 0);
            cfg.faults = vec![
                LinkFaultSpec::fail(SimTime::from_millis(3), link),
                LinkFaultSpec::recover(SimTime::from_millis(9), link),
            ];
            let label = format!("{}.corefail.load{:02.0}", scheme.name(), load * 100.0);
            fct_cell("fig15_large_scale", &label, cfg, None)
        })
        .collect();
    let results = run_cells(cells, &opts);
    println!(
        "{:<12}{:>14}{:>12}{:>12}",
        "scheme", "avg FCT (ms)", "incomplete", "drops"
    );
    for (scheme, cell) in [Scheme::Ecmp, Scheme::Conga].iter().zip(&results) {
        println!(
            "{:<12}{:>14.3}{:>12}{:>12.0}",
            scheme.name(),
            cell.summary.avg_s * 1e3,
            cell.summary.incomplete,
            cell.value("drops")
        );
    }
    written
}
