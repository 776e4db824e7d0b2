//! The bridge between the experiment harness and `conga-fleet`: scenario
//! construction for FCT cells, the cell runner, and the batch driver that
//! every sweep loop routes through.
//!
//! A sweep builds a list of [`FleetCell`]s (a hashable
//! [`Scenario`] plus a closure that executes the cell), then calls
//! [`run_cells`]: cache hits are resolved first, misses run on the
//! work-stealing executor, and results come back **in sweep order** —
//! merged output is byte-identical for any `--jobs N` and for warm-cache
//! re-runs.
//!
//! Cells with structured tracing enabled are never cached: a trace
//! artifact only exists if the cell actually ran, so traced sweeps bypass
//! the cache entirely (see [`FleetOpts::from_args`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use conga_fleet::manifest::{drain, CellRecord};
use conga_fleet::{CellResult, FaultSpec, FleetManifest, ResultCache, Scenario, TopoSpec};

use crate::cli::Args;
use crate::figures::{write_trace_sidecars, TraceArgs};
use crate::runner::{run_fct, FctRun};

/// Orchestration options, parsed once per invocation.
#[derive(Clone, Debug)]
pub struct FleetOpts {
    /// Worker threads for independent cells.
    pub jobs: usize,
    /// The content-addressed result cache (possibly disabled).
    pub cache: ResultCache,
}

impl FleetOpts {
    /// Build from the shared CLI flags: `--jobs N`, `--no-cache`,
    /// `--cache-dir DIR`. When `tracing` is active the cache is disabled
    /// outright — trace sidecars must come from live runs.
    pub fn from_args(args: &Args, tracing: bool) -> Self {
        let cache = if args.no_cache || tracing {
            ResultCache::disabled()
        } else {
            ResultCache::at(args.get("cache-dir", "results/cache".to_string()))
        };
        FleetOpts {
            jobs: args.jobs,
            cache,
        }
    }

    /// The same options with the cache forced off.
    pub fn without_cache(mut self) -> Self {
        self.cache = ResultCache::disabled();
        self
    }
}

/// One schedulable experiment cell: what it is (hashable) and how to run
/// it. The closure executes on a worker thread; everything it needs must
/// be owned and `Send`, and any sidecars it writes must go to
/// cell-unique paths.
pub struct FleetCell {
    /// The declarative, hashable description.
    pub scenario: Scenario,
    /// Executes the cell and returns its contribution.
    pub run: Box<dyn FnOnce() -> CellResult + Send>,
}

/// Run a batch of cells: resolve cache hits, execute misses on the
/// work-stealing pool, store fresh results, and return everything in
/// input order. Progress lines go to stderr in completion order (the one
/// place ordering may vary with `--jobs`); all returned data and all
/// artifacts are deterministic.
pub fn run_cells(cells: Vec<FleetCell>, opts: &FleetOpts) -> Vec<CellResult> {
    let n = cells.len();
    let mut results: Vec<Option<CellResult>> = (0..n).map(|_| None).collect();
    let mut jobs = Vec::new();
    let mut pending: Vec<(usize, String, String, String)> = Vec::new(); // (slot, hash, figure, label)
    let mut hits = 0usize;
    for (i, cell) in cells.into_iter().enumerate() {
        let hash = cell.scenario.content_hash();
        let figure = cell.scenario.figure.clone();
        let label = cell.scenario.label.clone();
        if let Some(hit) = opts.cache.lookup(&hash) {
            hits += 1;
            conga_fleet::stats::note_cache_hit();
            eprintln!("fleet: [{}/{}] {label} — cache hit ({hash})", i + 1, n);
            conga_fleet::manifest::record(CellRecord {
                figure,
                label,
                hash,
                cached: true,
                failed: false,
                wall_us: 0,
            });
            results[i] = Some(hit);
        } else {
            pending.push((i, hash, figure, label));
            jobs.push(cell.run);
        }
    }

    let done = AtomicUsize::new(hits);
    let labels: Vec<String> = pending.iter().map(|(_, _, _, l)| l.clone()).collect();
    let timed = conga_fleet::run_ordered(jobs, opts.jobs, &|j, wall| {
        let k = done.fetch_add(1, Ordering::SeqCst) + 1;
        eprintln!(
            "fleet: [{k}/{n}] {} — ran in {:.2}s",
            labels[j],
            wall.as_secs_f64()
        );
    });
    for ((i, hash, figure, label), t) in pending.into_iter().zip(timed) {
        // A panicked cell contributes an empty result tagged with the
        // panic message; it is recorded as failed and never cached, and
        // the rest of the batch proceeds normally.
        let (result, failed) = match t.result {
            Ok(r) => {
                if let Err(e) = opts.cache.store(&hash, &r) {
                    eprintln!("fleet: cache store failed for {label}: {e}");
                }
                (r, false)
            }
            Err(msg) => {
                eprintln!("fleet: cell {label} PANICKED: {msg}");
                let mut r = CellResult::default();
                r.text.insert("failed".into(), msg);
                (r, true)
            }
        };
        conga_fleet::manifest::record(CellRecord {
            figure,
            label,
            hash,
            cached: false,
            failed,
            wall_us: t.wall.as_micros() as u64,
        });
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every cell resolved by hit or run"))
        .collect()
}

/// The [`Scenario`] describing an FCT cell (pure data; hashing covers
/// every field that reaches the simulation).
pub fn fct_scenario(figure: &str, label: &str, cfg: &FctRun, quick: bool) -> Scenario {
    let mut s = Scenario::new("fct", figure, label);
    s.scheme = cfg.scheme.name().to_string();
    s.dist = cfg.dist.name().to_string();
    s.load = cfg.load;
    s.seed = cfg.seed;
    s.n_flows = cfg.n_flows as u64;
    s.quick = quick;
    s.sample_uplinks = cfg.sample_uplinks;
    s.topo = TopoSpec {
        leaves: cfg.topo.leaves,
        spines: cfg.topo.spines,
        hosts_per_leaf: cfg.topo.hosts_per_leaf,
        host_gbps: cfg.topo.host_gbps,
        fabric_gbps: cfg.topo.fabric_gbps,
        parallel: cfg.topo.parallel,
        fail: cfg.topo.fail,
    };
    s.faults = cfg
        .faults
        .iter()
        .map(|f| FaultSpec {
            at_ns: f.at.as_nanos(),
            leaf: f.leaf,
            spine: f.spine,
            parallel: f.parallel,
            up: f.up,
        })
        .collect();
    let mut s = s
        .with_extra("tcp.mss", cfg.tcp.mss)
        .with_extra("tcp.init_cwnd", cfg.tcp.init_cwnd)
        .with_extra("tcp.min_rto_ns", cfg.tcp.min_rto.as_nanos())
        .with_extra("tcp.max_rto_ns", cfg.tcp.max_rto.as_nanos())
        .with_extra("tcp.dupack", cfg.tcp.dupack_thresh)
        .with_extra("tcp.max_burst", cfg.tcp.max_burst)
        .with_extra("tcp.rwnd", cfg.tcp.rwnd);
    // Controller and marking knobs reach the hash only when they change
    // behavior, mirroring the report-meta policy.
    if cfg.cc != conga_transport::CcKind::Aimd {
        s = s.with_extra("cc", cfg.cc.name());
    }
    if let Some(pkts) = cfg.effective_ecn_pkts() {
        s = s.with_extra("ecn_threshold_pkts", pkts);
    }
    // Likewise the three-tier pod structure, core-link fault schedule and
    // the streaming-sketch aggregation mode: stamped only when
    // non-default, so every pre-existing two-tier scenario keeps its
    // canonical form (modulo the version line).
    if cfg.topo.pods > 1 {
        s = s
            .with_extra("topo.pods", cfg.topo.pods)
            .with_extra("topo.cores", cfg.topo.cores);
    }
    if !cfg.core_faults.is_empty() {
        let sched: Vec<String> = cfg
            .core_faults
            .iter()
            .map(|f| {
                format!(
                    "{}@{}ns:{}:{}:{}",
                    if f.up { "recover" } else { "fail" },
                    f.at.as_nanos(),
                    f.spine,
                    f.core,
                    f.parallel
                )
            })
            .collect();
        s = s.with_extra("core_faults", sched.join(","));
    }
    if cfg.sketch {
        s = s.with_extra("fct_aggregation", "sketch");
    }
    s
}

/// Build the standard FCT cell: runs [`run_fct`], exports trace sidecars
/// in-worker when tracing is on (trace handles are thread-local by
/// design), and returns the summary + telemetry artifact.
pub fn fct_cell(
    figure: &str,
    label: &str,
    cfg: FctRun,
    quick: bool,
    tracing: Option<TraceArgs>,
) -> FleetCell {
    let scenario = fct_scenario(figure, label, &cfg, quick);
    let figure = figure.to_string();
    let label = label.to_string();
    FleetCell {
        scenario,
        run: Box::new(move || {
            let out = run_fct(&cfg);
            if let (Some(t), Some(handle)) = (&tracing, &out.trace) {
                write_trace_sidecars(&t.dir, &figure, &label, handle).expect("trace sidecar write");
            }
            let mut r = CellResult {
                summary: out.summary,
                report_json: out.report.to_json(),
                ..CellResult::default()
            };
            r.values.insert("drops".into(), out.drops as f64);
            r.values.insert("retx_bytes".into(), out.retx_bytes as f64);
            r.values.insert("timeouts".into(), out.timeouts as f64);
            // Time-series ride in the cache entry as rendered text, so a
            // warm-cache re-run writes byte-identical series sidecars.
            if !out.series.is_empty() {
                r.text.insert("series_jsonl".into(), out.series.to_jsonl());
                r.text.insert("series_csv".into(), out.series.to_csv());
            }
            r
        }),
    }
}

/// The one exit point of a `fleet` invocation: drain the per-cell records
/// collected so far into `results/<suite>.fleet_manifest.json` (when any
/// cell was scheduled) and print the one-line orchestration summary —
/// wall-clock-bearing, so excluded from the byte-identity contract.
/// Returns `false` when a cell panicked — its figure averaged an empty
/// result into a table, so the invocation must not exit 0 — or when the
/// manifest could not be written.
pub fn finish(suite: &str, args: &Args) -> bool {
    let manifest = FleetManifest {
        suite: suite.to_string(),
        jobs: args.jobs,
        cells: drain(),
        total_wall_us: (conga_fleet::stats::elapsed_s() * 1e6) as u64,
    };
    let mut ok = true;
    if !manifest.cells.is_empty() {
        let path = format!("results/{suite}.fleet_manifest.json");
        match manifest.write_to(&path) {
            Ok(()) => eprintln!("fleet manifest: {path}"),
            Err(e) => {
                eprintln!("fleet manifest write failed: {e}");
                ok = false;
            }
        }
    }
    println!("{}", conga_fleet::stats::summary_line(suite));
    for c in manifest.cells.iter().filter(|c| c.failed) {
        eprintln!("fleet: FAILED cell {}/{} ({})", c.figure, c.label, c.hash);
        ok = false;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Scheme, TestbedOpts};
    use conga_workloads::FlowSizeDist;

    fn tiny_cfg(seed: u64) -> FctRun {
        let mut cfg = FctRun::new(
            TestbedOpts::paper_baseline().quick(),
            Scheme::Ecmp,
            FlowSizeDist::enterprise(),
            0.3,
        );
        cfg.n_flows = 30;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn fct_scenario_hash_separates_cells() {
        let a = fct_scenario("figX", "a", &tiny_cfg(1), true).content_hash();
        let b = fct_scenario("figX", "a", &tiny_cfg(2), true).content_hash();
        assert_ne!(a, b, "seed must reach the hash");
        let c = {
            let mut cfg = tiny_cfg(1);
            cfg.load = 0.6;
            fct_scenario("figX", "a", &cfg, true).content_hash()
        };
        assert_ne!(a, c, "load must reach the hash");
        let d = {
            let mut cfg = tiny_cfg(1);
            cfg.tcp = cfg.tcp.with_min_rto(conga_sim::SimDuration::from_millis(1));
            fct_scenario("figX", "a", &cfg, true).content_hash()
        };
        assert_ne!(a, d, "tcp overrides must reach the hash");
    }

    #[test]
    fn cc_and_ecn_reach_the_scenario_hash() {
        let a = fct_scenario("figX", "a", &tiny_cfg(1), true).content_hash();
        let b = {
            let mut cfg = tiny_cfg(1);
            cfg.cc = conga_transport::CcKind::Dctcp;
            fct_scenario("figX", "a", &cfg, true).content_hash()
        };
        assert_ne!(a, b, "cc must reach the hash");
        let c = {
            let mut cfg = tiny_cfg(1);
            cfg.cc = conga_transport::CcKind::Dctcp;
            cfg.ecn_threshold_pkts = Some(20);
            fct_scenario("figX", "a", &cfg, true).content_hash()
        };
        assert_ne!(b, c, "ecn threshold must reach the hash");
        // The AIMD default stamps no extra keys, so the pre-subsystem
        // canonical form is unchanged apart from the version line.
        let canon = fct_scenario("figX", "a", &tiny_cfg(1), true).canonical();
        assert!(!canon.contains("x.cc="));
        assert!(!canon.contains("x.ecn_threshold_pkts="));
    }

    #[test]
    fn three_tier_and_sketch_knobs_reach_the_scenario_hash() {
        let base = fct_scenario("figX", "a", &tiny_cfg(1), true);
        let base_hash = base.content_hash();
        // Defaults stamp none of the new extras — pre-existing two-tier
        // scenarios keep their canonical form (modulo the version line).
        let canon = base.canonical();
        assert!(!canon.contains("x.topo.pods="));
        assert!(!canon.contains("x.core_faults="));
        assert!(!canon.contains("x.fct_aggregation="));

        let mut cfg = tiny_cfg(1);
        cfg.topo = TestbedOpts::three_tier(2, 2, 1, 2, 4);
        let tri = fct_scenario("figX", "a", &cfg, true).content_hash();
        assert_ne!(base_hash, tri, "pod structure must reach the hash");
        cfg.core_faults = vec![crate::runner::CoreLinkFaultSpec::fail(
            conga_sim::SimTime::from_millis(3),
            0,
            0,
            0,
        )];
        let faulted = fct_scenario("figX", "a", &cfg, true).content_hash();
        assert_ne!(tri, faulted, "core faults must reach the hash");

        let mut cfg = tiny_cfg(1);
        cfg.sketch = true;
        assert_ne!(
            base_hash,
            fct_scenario("figX", "a", &cfg, true).content_hash(),
            "aggregation mode must reach the hash"
        );
    }

    #[test]
    fn run_cells_preserves_order_and_uses_cache() {
        let dir = std::env::temp_dir().join("conga-fleet-bridge-test");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FleetOpts {
            jobs: 2,
            cache: ResultCache::at(&dir),
        };
        let cells = |n: u64| -> Vec<FleetCell> {
            (0..n)
                .map(|i| fct_cell("figtest", &format!("cell{i}"), tiny_cfg(i + 1), true, None))
                .collect()
        };
        drain();
        let first = run_cells(cells(3), &opts);
        let rec1 = drain();
        assert_eq!(rec1.len(), 3);
        assert!(rec1.iter().all(|r| !r.cached), "cold cache: all misses");
        let second = run_cells(cells(3), &opts);
        let rec2 = drain();
        assert!(rec2.iter().all(|r| r.cached), "warm cache: all hits");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_json(), b.to_json(), "hit must equal live run");
        }
        // Distinct seeds produced distinct cells, in input order.
        assert_ne!(first[0].report_json, first[1].report_json);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
