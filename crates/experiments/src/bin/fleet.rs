//! `fleet` — the figure-suite orchestrator.
//!
//! One binary drives the fleet-routed figure suite through the
//! work-stealing executor and the content-addressed result cache:
//!
//! ```text
//! fleet all   [--quick] [--jobs N] [--no-cache] ...   # every routed figure
//! fleet fig09 | fig10 | fig11 | fig12 | fig13 ...     # one figure
//! fleet tournament [--cc a,b,...] [--loads 20,40,60]  # the policy race
//! ```
//!
//! Unlike the per-figure binaries (which default to the historical serial
//! path), `fleet` defaults `--jobs` to the machine's available
//! parallelism. All flags of [`conga_experiments::Args`] apply. The
//! binary times nothing itself: wall-clock cost is measured from outside
//! by `congabench` (see DESIGN.md, "Where wall-clock is measured").

use conga_experiments::{fleet, suite, tournament, Args};

const USAGE: &str = "usage: fleet <all|fig09|fig10|fig11|fig12|fig13|tournament> [flags]

subcommands:
  all      run every fleet-routed figure (fig09, fig10, fig11-dynamic,
           fig12, fig13); one manifest at results/fleet_all.fleet_manifest.json
  fig09    Figure 9  — enterprise FCT sweep
  fig10    Figure 10 — data-mining FCT sweep
  fig11    Figure 11 (dynamic) — mid-run link failure/recovery
  fig12    Figure 12 — uplink throughput imbalance
  fig13    Figure 13 — incast goodput vs fanout
  tournament
           race every fabric policy (ECMP, CONGA, CONGA-Flow, Local, Spray,
           Weighted, LetFlow, LatencyAware) through three arenas and write
           results/tournament.json + results/tournament_table.txt; add
           --cc a,b,... to race each congestion controller as an axis

flags (after the subcommand) are the shared figure flags; see any figure
binary's usage (`tournament` also honours --loads 20,40,60). `fleet`
defaults --jobs to the available parallelism.";

fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parse the flags after the subcommand, defaulting `--jobs` to the
/// machine parallelism (the per-figure binaries default to serial).
fn fleet_args(argv: &[String]) -> Args {
    match Args::from_iter(argv.iter().cloned()) {
        Ok(mut args) => {
            if args.jobs.is_none() {
                args.jobs = Some(parallelism());
            }
            args
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Run every routed figure under one manifest. Returns `false` if any
/// driver reported a sidecar failure.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    suite::fig09(args);
    suite::fig10(args);
    ok &= suite::fig11_dynamic(args);
    ok &= suite::fig12(args);
    ok &= suite::fig13(args);
    ok
}

fn main() {
    conga_fleet::stats::mark_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = argv.first() else {
        eprintln!("error: missing subcommand\n{USAGE}");
        std::process::exit(2);
    };
    let rest = &argv[1..];
    let ok = match sub.as_str() {
        "all" => {
            let args = fleet_args(rest);
            let ok = run_all(&args);
            fleet::finish("fleet_all", &args);
            ok
        }
        "fig09" => {
            let args = fleet_args(rest);
            suite::fig09(&args);
            fleet::finish("fig09_enterprise", &args);
            true
        }
        "fig10" => {
            let args = fleet_args(rest);
            suite::fig10(&args);
            fleet::finish("fig10_datamining", &args);
            true
        }
        "fig11" => {
            let args = fleet_args(rest);
            let ok = suite::fig11_dynamic(&args);
            fleet::finish("fig11_dynamic_failure", &args);
            ok
        }
        "fig12" => {
            let args = fleet_args(rest);
            let ok = suite::fig12(&args);
            fleet::finish("fig12_imbalance", &args);
            ok
        }
        "fig13" => {
            let args = fleet_args(rest);
            let ok = suite::fig13(&args);
            fleet::finish("fig13_incast", &args);
            ok
        }
        "tournament" => {
            let args = fleet_args(rest);
            let ok = tournament::run(&args);
            fleet::finish("tournament", &args);
            ok
        }
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            true
        }
        other => {
            eprintln!("error: unknown subcommand '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
