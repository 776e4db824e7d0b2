//! # conga-fleet — parallel deterministic experiment orchestration
//!
//! Every evaluation figure is a sweep over a `scheme × load × seed ×
//! fault` matrix whose cells are independent, single-threaded,
//! deterministic simulations. This crate is the substrate that runs such
//! matrices fast without giving up a byte of determinism:
//!
//! * [`scenario`] — a [`Scenario`] per cell: its names
//!   and its own spec rendered as text, under a content hash;
//! * [`exec`] — a self-scheduling executor (std threads claiming job
//!   indices from one cursor) that returns results **in input order**, so
//!   merged sweep output is
//!   byte-identical for any `--jobs N`;
//! * [`cache`] — a content-addressed result cache under
//!   `results/cache/<hash>.json`: re-running a sweep skips completed
//!   cells and reproduces their artifacts byte-for-byte;
//! * [`manifest`] — per-cell hit/miss + wall-clock records, written as
//!   `results/<suite>.fleet_manifest.json`;
//! * [`stats`] — the process clock behind the one-line exit summary
//!   every `fleet` invocation prints.
//!
//! The crate sits below the experiment harness in the dependency graph
//! (it knows nothing about schemes or topologies: a cell's spec is opaque
//! text to it), so `conga-experiments` can route every sweep loop through
//! it.

#![warn(missing_docs)]

pub mod cache;
pub mod exec;
pub mod manifest;
pub mod scenario;

pub use cache::{CellResult, ResultCache};
pub use exec::{run_ordered, run_ordered_quiet, Timed};
pub use manifest::{CellRecord, FleetManifest};
pub use scenario::{Scenario, CACHE_FORMAT_VERSION};

/// The process clock for the exit summary line: `fleet` prints
/// [`stats::summary_line`] on exit, with the cell counts of the manifest
/// it has just drained, also for figures that never fan out.
/// Together with [`exec`]'s per-cell `wall_us` this is the only place the
/// workspace reads a clock: the simulator itself is timed from outside,
/// by `congabench`.
pub mod stats {
    use std::sync::OnceLock;
    use std::time::Instant;

    static START: OnceLock<Instant> = OnceLock::new();

    /// Mark process start (idempotent; called first thing in `fleet`'s
    /// `main`). The exit summary's wall-clock measures from the first call.
    pub fn mark_start() {
        let _ = START.get_or_init(Instant::now);
    }

    /// Seconds since [`mark_start`] (0.0 if never marked).
    pub fn elapsed_s() -> f64 {
        START
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    /// The one-line orchestration summary over the cells the fleet
    /// scheduled, e.g.
    /// `orchestration[fig09_enterprise]: 8 cells run, 0 cached, 12.41s wall-clock`.
    ///
    /// Wall-clock is inherently non-deterministic; this line is excluded
    /// from the byte-identity contract (it exists *for* the logs).
    pub fn summary_line(name: &str, run: usize, cached: usize) -> String {
        format!(
            "orchestration[{name}]: {run} cells run, {cached} cached, {:.2}s wall-clock",
            elapsed_s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_summary_line_carries_the_counts_it_is_given() {
        stats::mark_start();
        let line = stats::summary_line("unit", 1, 2);
        assert!(line.starts_with("orchestration[unit]: 1 cells run, 2 cached, "));
        assert!(line.ends_with("s wall-clock"));
    }
}
