//! The `fleet tournament` subcommand: race the full policy zoo through a
//! fixed arena matrix and emit a price-of-anarchy-style comparison.
//!
//! Three arenas (enterprise and data-mining workloads on the baseline
//! testbed, plus the enterprise workload on the Figure-7(b) asymmetric
//! fabric) × a load sweep × every `--cc` congestion controller × every
//! policy in [`Scheme::TOURNAMENT`]. Each cell is an ordinary cached FCT
//! cell, so warm re-runs are pure cache hits and the merged artifacts —
//! `results/tournament.json` and `results/tournament_table.txt` — are
//! byte-identical for any `--jobs`, `--shards`, or cache state.

use crate::cli::{banner, Args};
use crate::figures::{loads_arg, write_artifact};
use crate::fleet::{fct_cell_with, run_cells, FleetOpts};
use crate::runner::{FctOutcome, FctRun, Scheme, TestbedOpts};
use conga_analysis::tournament::{compare, render, GroupTable, PolicyCell};
use conga_fleet::{CellResult, Scenario};
use conga_trace::json::write_json_f64;
use conga_workloads::FlowSizeDist;
use std::fmt::Write as _;

/// The arena matrix: (name, testbed, workload).
fn arenas() -> Vec<(&'static str, TestbedOpts, FlowSizeDist)> {
    vec![
        (
            "enterprise",
            TestbedOpts::paper_baseline(),
            FlowSizeDist::enterprise(),
        ),
        (
            "datamining",
            TestbedOpts::paper_baseline(),
            FlowSizeDist::data_mining(),
        ),
        (
            "asymmetry",
            TestbedOpts::paper_failure(),
            FlowSizeDist::enterprise(),
        ),
    ]
}

/// What a tournament cell caches beyond the standard FCT contribution:
/// the policy's re-routing decision count.
fn decisions(out: &FctOutcome, r: &mut CellResult) {
    let n = out.report.metrics.counter("dataplane.flowlet_new");
    r.values.insert("decisions".into(), n as f64);
}

/// The scenario of one tournament cell: the FCT cell's own, plus the
/// sweep's whole `--loads` list as percents. Ratio tables compare cells
/// *within* one sweep, so a cell's result must never be served for a
/// sweep raced over a different load list.
fn sweep_scenario(figure: &str, label: &str, cfg: &FctRun, loads: &[f64]) -> Scenario {
    let pcts: Vec<String> = loads.iter().map(|l| format!("{}", l * 100.0)).collect();
    let mut scenario = cfg.scenario(figure, label);
    scenario.spec += &format!("loads={}\n", pcts.join(","));
    scenario
}

/// Run the tournament. Returns `false` if an artifact write failed.
pub fn run(args: &Args) -> bool {
    banner(
        "Policy tournament — the full load-balancer zoo, like-for-like",
        "arenas: enterprise/datamining on the baseline fabric + enterprise on the\n\
         Figure-7(b) asymmetric fabric; table: FCT ratios vs the best policy",
    );
    let loads = loads_arg(
        args,
        if args.quick {
            vec![0.3, 0.6]
        } else {
            vec![0.2, 0.4, 0.6, 0.8]
        },
    );
    let n_flows = args.flows_or(80, 400);
    let opts = FleetOpts::from_args(args, false);

    let arenas = arenas();
    let ccs = &args.cc;
    let mut cells = Vec::new();
    for (arena, topo, dist) in &arenas {
        let topo = if args.quick { topo.quick() } else { *topo };
        for &load in &loads {
            for &cc in ccs {
                for scheme in Scheme::TOURNAMENT {
                    let mut cfg = FctRun::new(topo, scheme, dist.clone(), load);
                    cfg.n_flows = n_flows;
                    cfg.seed = args.seed;
                    cfg.shards = args.shards;
                    cfg.cc = cc;
                    cfg.ecn_threshold_pkts = args.ecn_threshold;
                    let figure = format!("tournament_{arena}");
                    let label =
                        format!("{}.{}.load{:02.0}", scheme.name(), cc.name(), load * 100.0);
                    let scenario = sweep_scenario(&figure, &label, &cfg, &loads);
                    cells.push(fct_cell_with(scenario, cfg, None, decisions));
                }
            }
        }
    }
    let results = run_cells(cells, &opts);

    // Merge in build order: one comparison group per (arena, load, cc).
    let mut tables: Vec<GroupTable> = Vec::new();
    let mut it = results.iter();
    for (arena, _, _) in &arenas {
        for &load in &loads {
            for &cc in ccs {
                let group: Vec<PolicyCell> = Scheme::TOURNAMENT
                    .iter()
                    .map(|s| {
                        let cell = it.next().expect("one result per cell");
                        PolicyCell {
                            policy: s.key().to_string(),
                            summary: cell.summary,
                            decisions: cell.value("decisions") as u64,
                        }
                    })
                    .collect();
                tables.push(compare(
                    &format!("{arena}/{}/load{:02.0}", cc.name(), load * 100.0),
                    &group,
                ));
            }
        }
    }

    let table_text = render(&tables);
    print!("{table_text}");
    let json = to_json(&loads, ccs, &arenas, &tables);
    // `&`, not `&&`: a failed first write still attempts the second.
    write_artifact("tournament artifact", "tournament.json", &json)
        & write_artifact("tournament artifact", "tournament_table.txt", &table_text)
}

/// Serialize the comparison groups as deterministic JSON (sorted structure
/// is fixed by construction: arenas × loads × the tournament policy order).
fn to_json(
    loads: &[f64],
    ccs: &[conga_transport::CcKind],
    arenas: &[(&'static str, TestbedOpts, FlowSizeDist)],
    tables: &[GroupTable],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"policies\": [");
    for (i, s) in Scheme::TOURNAMENT.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", s.key());
    }
    out.push_str("],\n  \"ccs\": [");
    for (i, c) in ccs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", c.name());
    }
    out.push_str("],\n  \"loads\": [");
    for (i, l) in loads.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_f64(&mut out, *l);
    }
    out.push_str("],\n  \"arenas\": [");
    for (i, (a, _, _)) in arenas.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{a}\"");
    }
    out.push_str("],\n  \"groups\": [");
    for (gi, t) in tables.iter().enumerate() {
        if gi > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"group\": \"{}\", \"best\": \"{}\", \"poa\": ",
            t.group, t.best
        );
        write_json_f64(&mut out, t.poa);
        out.push_str(", \"rows\": {");
        for (ri, r) in t.rows.iter().enumerate() {
            if ri > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {{", r.policy);
            for (i, (k, v)) in [
                ("mean_ratio", r.mean_ratio),
                ("p95_ratio", r.p95_ratio),
                ("p99_ratio", r.p99_ratio),
                ("norm_throughput", r.norm_throughput),
                ("avg_s", r.avg_s),
                ("p99_s", r.p99_s),
            ]
            .into_iter()
            .enumerate()
            {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{k}\": ");
                write_json_f64(&mut out, v);
            }
            let _ = write!(
                out,
                ", \"decisions\": {}, \"incomplete\": {}}}",
                r.decisions, r.incomplete
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_list_reaches_the_scenario_hash() {
        let cfg = FctRun::new(
            TestbedOpts::paper_baseline().quick(),
            Scheme::Conga,
            FlowSizeDist::enterprise(),
            0.3,
        );
        let raced_over =
            |loads: &[f64]| sweep_scenario("tournament_enterprise", "conga.load30", &cfg, loads);
        assert_ne!(
            raced_over(&[0.3, 0.6]).content_hash(),
            raced_over(&[0.3, 0.8]).content_hash(),
            "same cell raced under a different --loads sweep must not share a cache entry"
        );
        assert!(raced_over(&[0.3, 0.6]).spec.ends_with("\nloads=30,60\n"));
    }
}
