//! `fleet <figure> [flags]` — the one harness binary.
//!
//! Every figure of the paper's evaluation is a row of
//! [`conga_experiments::suite::ROWS`]; `fleet --help` lists them and
//! `fleet all` runs the fleet-routed ones under one manifest. All flags
//! of [`conga_experiments::Args`] apply to every row. The binary times
//! nothing itself beyond the exit summary: wall-clock cost is measured
//! from outside by `congabench` (see DESIGN.md, "Where wall-clock is
//! measured").

use conga_experiments::cli::or_usage;
use conga_experiments::{fleet, suite, Args};

fn main() {
    conga_fleet::stats::mark_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = argv.first().map_or("", String::as_str);
    if matches!(sub, "--help" | "-h" | "help") {
        println!("{}", suite::usage());
        return;
    }
    let (artifact, rows) = or_usage(suite::lookup(sub));
    let args = or_usage(Args::from_iter(argv.iter().skip(1).cloned()));
    let mut ok = true;
    for row in rows {
        ok &= (row.driver)(&args);
    }
    // A panicked cell fails the figure — after its manifest is written.
    ok &= fleet::finish(artifact, &args);
    if !ok {
        std::process::exit(1);
    }
}
