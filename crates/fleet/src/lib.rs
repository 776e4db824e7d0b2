//! # conga-fleet — parallel deterministic experiment orchestration
//!
//! Every evaluation figure is a sweep over a `scheme × load × seed ×
//! fault` matrix whose cells are independent, single-threaded,
//! deterministic simulations. This crate is the substrate that runs such
//! matrices fast without giving up a byte of determinism:
//!
//! * [`scenario`] — a [`Scenario`](scenario::Scenario) per cell: its names
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
//! * [`stats`] — process-wide orchestration counters behind the one-line
//!   exit summary every `fleet` invocation prints.
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

/// Process-wide orchestration counters for the exit summary line.
///
/// The executor and cache layers bump these; `fleet` prints
/// [`summary_line`](stats::summary_line) on exit, also for figures that
/// never fan out.
/// Together with [`exec`]'s per-cell `wall_us` this is the only place the
/// workspace reads a clock: the simulator itself is timed from outside,
/// by `congabench`.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    use std::time::Instant;

    static CELLS_RUN: AtomicU64 = AtomicU64::new(0);
    static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
    static START: OnceLock<Instant> = OnceLock::new();

    /// Mark process start (idempotent; called first thing in `fleet`'s
    /// `main`). The exit summary's wall-clock measures from the first call.
    pub fn mark_start() {
        let _ = START.get_or_init(Instant::now);
    }

    /// Count one executed (non-cached) simulation cell.
    pub fn note_cell_run() {
        mark_start();
        CELLS_RUN.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one cell served from the result cache.
    pub fn note_cache_hit() {
        mark_start();
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    }

    /// Executed-cell count so far.
    pub fn cells_run() -> u64 {
        CELLS_RUN.load(Ordering::Relaxed)
    }

    /// Cache-hit count so far.
    pub fn cache_hits() -> u64 {
        CACHE_HITS.load(Ordering::Relaxed)
    }

    /// Seconds since [`mark_start`] (0.0 if never marked).
    pub fn elapsed_s() -> f64 {
        START
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    }

    /// The one-line orchestration summary, e.g.
    /// `orchestration[fig09_enterprise]: 8 cells run, 0 cached, 12.41s wall-clock`.
    ///
    /// Wall-clock is inherently non-deterministic; this line is excluded
    /// from the byte-identity contract (it exists *for* the logs).
    pub fn summary_line(name: &str) -> String {
        format!(
            "orchestration[{name}]: {} cells run, {} cached, {:.2}s wall-clock",
            cells_run(),
            cache_hits(),
            elapsed_s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_into_the_summary_line() {
        stats::mark_start();
        let base_run = stats::cells_run();
        let base_hit = stats::cache_hits();
        stats::note_cell_run();
        stats::note_cache_hit();
        stats::note_cache_hit();
        assert_eq!(stats::cells_run(), base_run + 1);
        assert_eq!(stats::cache_hits(), base_hit + 2);
        let line = stats::summary_line("unit");
        assert!(line.starts_with("orchestration[unit]:"));
        assert!(line.contains("wall-clock"));
    }
}
