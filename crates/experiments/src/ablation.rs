//! The two ablations, both on the failed-link testbed with the enterprise
//! workload at 60 % load — where load balancing actually matters.
//!
//! **§7 incremental deployment** — CONGA applied to only a subset of
//! leaves still helps: uncontrolled (ECMP) traffic just looks like
//! bandwidth asymmetry that the CONGA leaves route around, and the reduced
//! fabric congestion benefits everyone. The sweep goes from no leaves
//! running CONGA to all of them.
//!
//! **§3.6 parameter robustness** — CONGA's performance across its three
//! main knobs: quantization bits `Q`, DRE time constant `τ`, and flowlet
//! timeout `T_fl`. Paper claim: performance is robust for Q = 3–6,
//! τ = 100–500 µs, T_fl = 300 µs–1 ms; the defaults are Q = 3, τ = 160 µs,
//! T_fl = 500 µs. Very small Q (1 bit) loses resolution; very large τ
//! reacts too slowly; very large T_fl degenerates to per-flow decisions.

use crate::cli::{banner, Args};
use crate::runner::{run_fct_with_policy, FctOutcome, Scheme, TestbedOpts};
use conga_core::{CongaParams, FabricPolicy, GapMode};
use conga_sim::SimDuration;
use conga_workloads::FlowSizeDist;

/// One ablation cell: TCP over `policy` on the failed-link testbed.
fn run_with(policy: FabricPolicy, args: &Args) -> FctOutcome {
    let topo = if args.quick {
        TestbedOpts::paper_failure().quick()
    } else {
        TestbedOpts::paper_failure()
    };
    // Transport = TCP; the policy is passed explicitly.
    let mut cfg = args.fct_run(topo, Scheme::Conga, FlowSizeDist::enterprise(), 0.6);
    cfg.n_flows = if args.quick { 150 } else { 600 };
    run_fct_with_policy(&cfg, policy)
}

/// §7: CONGA rolled out leaf by leaf.
pub fn incremental(args: &Args) -> bool {
    banner(
        "Ablation (§7) — incremental deployment",
        "failed-link testbed, enterprise @ 60% load; CONGA rolled out leaf by leaf",
    );
    println!(
        "{:<28}{:>24}{:>12}",
        "deployment", "overall FCT (x optimal)", "drops"
    );
    for (label, flags) in [
        ("none (pure ECMP)", vec![false, false]),
        ("leaf 0 only", vec![true, false]),
        ("leaf 1 only", vec![false, true]),
        ("both leaves (full CONGA)", vec![true, true]),
    ] {
        let out = run_with(FabricPolicy::incremental(flags), args);
        println!(
            "{:<28}{:>24.3}{:>12}",
            label, out.summary.avg_norm_optimal, out.drops
        );
    }
    true
}

/// §3.6: overall FCT (normalized to optimal) across CONGA's knobs.
pub fn parameters(args: &Args) -> bool {
    banner(
        "Ablation (§3.6) — CONGA parameter robustness",
        "enterprise @ 60% load with link failure; overall FCT normalized to optimal",
    );
    let fct = |params: CongaParams| {
        run_with(FabricPolicy::conga_with(params), args)
            .summary
            .avg_norm_optimal
    };
    let base = CongaParams::paper_default();
    println!("baseline (Q=3, tau=160us, Tfl=500us): {:.3}\n", fct(base));

    println!("Q (quantization bits):");
    for q in [1u8, 2, 3, 4, 6, 8] {
        let mut p = base;
        p.q_bits = q;
        println!("  Q={q}: {:.3}", fct(p));
    }

    println!("tau = Tdre/alpha (DRE time constant):");
    for (tdre_us, label) in [
        (5u64, "50us"),
        (16, "160us"),
        (50, "500us"),
        (200, "2ms"),
        (1000, "10ms"),
    ] {
        let mut p = base;
        p.tdre = SimDuration::from_micros(tdre_us);
        println!("  tau={label}: {:.3}", fct(p));
    }

    println!("Tfl (flowlet inactivity timeout):");
    for (tfl_us, label) in [
        (100u64, "100us"),
        (300, "300us"),
        (500, "500us"),
        (1000, "1ms"),
        (13_000, "13ms (CONGA-Flow)"),
    ] {
        let mut p = base;
        p.tfl = SimDuration::from_micros(tfl_us);
        println!("  Tfl={label}: {:.3}", fct(p));
    }

    println!("gap detection (Tfl=500us):");
    for (mode, label) in [
        (GapMode::AgeBit, "age-bit (hardware)"),
        (GapMode::Exact, "exact timestamps"),
    ] {
        let mut p = base;
        p.gap_mode = mode;
        println!("  {label}: {:.3}", fct(p));
    }
    true
}
