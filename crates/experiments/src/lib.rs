//! # conga-experiments — the harness that regenerates every figure
//!
//! One binary, `fleet <figure>`, regenerates every table and figure of the
//! paper's evaluation: [`suite::ROWS`] lists them, one driver function
//! each. Beside the drivers this library holds the shared machinery: the
//! scheme matrix (fabric policy × transport), the paper's testbed
//! topologies, the open-loop FCT runner, the bridge to the fleet executor
//! and result cache, and small CLI/printing helpers.
//!
//! Every figure accepts `--quick` (CI-scale run), `--seed N`, and prints
//! plain text tables with the same rows/series as the paper's plots.

#![warn(missing_docs)]

pub mod ablation;
pub mod analytic;
pub mod asymmetry;
pub mod cli;
pub mod dynfail;
pub mod failures;
pub mod figures;
pub mod fleet;
pub mod hdfs;
pub mod runner;
pub mod scale;
pub mod suite;
pub mod tournament;

pub use cli::Args;
pub use dynfail::{dynfail_cell, run_dynamic_failure, DynFailOutcome, DynFailSpec};
pub use fleet::{fct_cell, fct_scenario, run_cells, FleetCell, FleetOpts};
pub use runner::{
    build_report, build_testbed, merged_arrivals, run_fct, run_fct_with_policy, uniform_arrivals,
    FctOutcome, FctRun, LinkFaultSpec, Scheme, ShardedRun, TestbedOpts, TraceSpec,
};
