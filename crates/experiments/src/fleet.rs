//! The bridge between the experiment harness and `conga-fleet`: the tail
//! every cell shares, the FCT cell, and the batch driver that every sweep
//! loop routes through.
//!
//! A sweep builds a list of [`FleetCell`]s (a hashable [`Scenario`] — the
//! cell's own spec rendered as text — plus a closure that executes the
//! cell), then calls
//! [`run_cells`]: cache hits are resolved first, misses run on the
//! cell executor, and results come back **in sweep order** —
//! merged output is byte-identical for any `--jobs N` and for warm-cache
//! re-runs.
//!
//! Cells with structured tracing enabled are never cached: a trace
//! artifact only exists if the cell actually ran, so traced sweeps bypass
//! the cache entirely (see [`FleetOpts::from_args`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use conga_fleet::manifest::{drain, CellRecord};
use conga_fleet::{CellResult, FleetManifest, ResultCache, Scenario};
use conga_telemetry::RunReport;
use conga_trace::TraceHandle;

use crate::cli::Args;
use crate::figures::{write_artifact, write_trace_sidecars, TraceArgs, RESULTS};
use crate::runner::{run_fct, FctOutcome, FctRun};

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
            ResultCache::at(&args.cache_dir)
        };
        FleetOpts {
            jobs: args.jobs,
            cache,
        }
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

/// Run a batch of cells: resolve cache hits, execute misses on
/// `opts.jobs` workers, store fresh results, and return everything in
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

/// [`FctRun::scenario`] under the four-argument form `congabench/`
/// compiles against (ROADMAP: the benchmark pins the API). The flag reaches
/// nothing; the `[benchmark]` PR that moves that call deletes this.
pub fn fct_scenario(figure: &str, label: &str, cfg: &FctRun, _quick: bool) -> Scenario {
    cfg.scenario(figure, label)
}

/// The tail every cell shares: `body` runs the simulation on the worker,
/// fills in the cell's summary and derived values, and hands back the
/// run's report and trace; the report is rendered into the result and,
/// when tracing is on, the trace exported as sidecars named after the
/// cell — in-worker, because the recorder holds the whole run's events.
pub(crate) fn cell(
    scenario: Scenario,
    tracing: Option<TraceArgs>,
    body: impl FnOnce(&mut CellResult) -> (RunReport, Option<TraceHandle>) + Send + 'static,
) -> FleetCell {
    let (figure, label) = (scenario.figure.clone(), scenario.label.clone());
    FleetCell {
        scenario,
        run: Box::new(move || {
            let mut result = CellResult::default();
            let (report, trace) = body(&mut result);
            result.report_json = report.to_json();
            if let (Some(t), Some(handle)) = (&tracing, &trace) {
                // A panic fails the cell: the manifest marks it, `fleet`
                // exits nonzero.
                assert!(
                    write_trace_sidecars(&t.dir, &figure, &label, handle),
                    "trace sidecar write failed"
                );
            }
            result
        }),
    }
}

/// Build the standard FCT cell: runs [`run_fct`] and returns the summary,
/// the telemetry artifact, the loss counters and any sampled series.
pub fn fct_cell(figure: &str, label: &str, cfg: FctRun, tracing: Option<TraceArgs>) -> FleetCell {
    let scenario = cfg.scenario(figure, label);
    fct_cell_with(scenario, cfg, tracing, |_, _| {})
}

/// [`fct_cell`] under an explicit `scenario`, for figures whose cells
/// cache more than the standard contribution: `derive` adds values
/// computed in-worker from the whole outcome (uplink samples, counters —
/// too bulky to cache themselves).
pub(crate) fn fct_cell_with(
    scenario: Scenario,
    cfg: FctRun,
    tracing: Option<TraceArgs>,
    derive: fn(&FctOutcome, &mut CellResult),
) -> FleetCell {
    cell(scenario, tracing, move |r| {
        let out = run_fct(&cfg);
        r.summary = out.summary;
        r.values.insert("drops".into(), out.drops as f64);
        r.values.insert("retx_bytes".into(), out.retx_bytes as f64);
        r.values.insert("timeouts".into(), out.timeouts as f64);
        // Time-series ride in the cache entry as rendered text, so a
        // warm-cache re-run writes byte-identical series sidecars.
        if !out.series.is_empty() {
            r.text.insert("series_jsonl".into(), out.series.to_jsonl());
            r.text.insert("series_csv".into(), out.series.to_csv());
        }
        derive(&out, r);
        (out.report, out.trace)
    })
}

/// The one exit point of a `fleet` invocation: drain the per-cell records
/// collected so far into `results/<suite>.fleet_manifest.json` (when any
/// cell was scheduled) and print the one-line orchestration summary over
/// that manifest's cells — wall-clock-bearing, so excluded from the
/// byte-identity contract.
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
    let mut ok = manifest.cells.is_empty()
        || write_artifact(
            "fleet manifest",
            RESULTS,
            &format!("{suite}.fleet_manifest.json"),
            &manifest.to_json(),
        );
    println!(
        "{}",
        conga_fleet::stats::summary_line(suite, manifest.misses(), manifest.hits())
    );
    for c in manifest.cells.iter().filter(|c| c.failed) {
        eprintln!("fleet: FAILED cell {}/{} ({})", c.figure, c.label, c.hash);
        ok = false;
    }
    ok
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{Scheme, TestbedOpts};
    use conga_workloads::FlowSizeDist;

    /// A named edit of a cell spec, for the key-coverage tests.
    pub(crate) type Edit<T> = (&'static str, fn(&mut T));

    /// The key-coverage check each spec type's test runs: every `reaching`
    /// edit of `base()` must hash apart from the base and from every other
    /// edit, every `inert` edit like the base.
    pub(crate) fn assert_key_coverage<T>(
        base: impl Fn() -> T,
        hash: impl Fn(T) -> String,
        reaching: &[Edit<T>],
        inert: &[Edit<T>],
    ) {
        let mut seen = std::collections::BTreeMap::new();
        seen.insert(hash(base()), "the unedited cell");
        for (field, edit) in reaching {
            let mut spec = base();
            edit(&mut spec);
            if let Some(other) = seen.insert(hash(spec), field) {
                panic!("{field} shares a cache entry with {other}");
            }
        }
        for (field, edit) in inert {
            let mut spec = base();
            edit(&mut spec);
            assert_eq!(hash(spec), hash(base()), "{field} is not an input");
        }
    }

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
    fn every_simulation_reaching_field_of_an_fct_cell_reaches_the_hash() {
        use crate::runner::LinkFaultSpec;
        use conga_net::{CoreId, LeafId, Link, NodeId, SpineId};
        use conga_sim::{QueueKind, SimDuration, SimTime};
        use conga_trace::TraceConfig;
        use conga_transport::CcKind;
        // One runtime fault at each tier, so their fields have a value to
        // move; nothing here is built or run.
        let base = || {
            let mut cfg = tiny_cfg(1);
            let (leaf, spine) = (NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)));
            let core = NodeId::Core(CoreId(0));
            cfg.faults = vec![
                LinkFaultSpec::fail(SimTime::from_millis(3), Link::new(leaf, spine, 0)),
                LinkFaultSpec::fail(SimTime::from_millis(3), Link::new(spine, core, 0)),
            ];
            cfg
        };
        let hash = |cfg: FctRun| cfg.scenario("figX", "a").content_hash();
        // Every field `FctRun::spec`, `TestbedOpts::spec`, `tcp_spec`,
        // `LinkFaultSpec::spec` and its `Link` destructure, in their order.
        let reaching: &[Edit<FctRun>] = &[
            ("topo.leaves", |c| c.topo.leaves = 4),
            ("topo.spines", |c| c.topo.spines = 4),
            ("topo.hosts_per_leaf", |c| c.topo.hosts_per_leaf = 4),
            ("topo.host_gbps", |c| c.topo.host_gbps = 40),
            ("topo.fabric_gbps", |c| c.topo.fabric_gbps = 100),
            ("topo.parallel", |c| c.topo.parallel = 1),
            ("topo.fail", |c| c.topo.fail = Some((1, 1, 0))),
            ("topo.pods", |c| c.topo.pods = 2),
            ("topo.cores", |c| c.topo.cores = 2),
            ("scheme", |c| c.scheme = Scheme::Conga),
            ("dist", |c| c.dist = FlowSizeDist::data_mining()),
            ("dist breakpoints under one name", |c| {
                c.dist = FlowSizeDist::from_points("enterprise", &[(100.0, 0.0), (9e7, 1.0)])
            }),
            ("load", |c| c.load = 0.6),
            ("n_flows", |c| c.n_flows = 31),
            ("seed", |c| c.seed = 2),
            ("tcp.mss", |c| c.tcp.mss = 8960),
            ("tcp.init_cwnd", |c| c.tcp.init_cwnd = 4),
            ("tcp.min_rto", |c| {
                c.tcp.min_rto = SimDuration::from_millis(1)
            }),
            ("tcp.max_rto", |c| {
                c.tcp.max_rto = SimDuration::from_millis(500)
            }),
            ("tcp.dupack_thresh", |c| c.tcp.dupack_thresh = 2),
            ("tcp.max_burst", |c| c.tcp.max_burst = 4),
            ("tcp.rwnd", |c| c.tcp.rwnd = 65_536),
            ("cc", |c| c.cc = CcKind::Dctcp),
            ("ecn_threshold_pkts", |c| c.ecn_threshold_pkts = Some(20)),
            ("sample_uplinks", |c| c.sample_uplinks = true),
            ("faults", |c| c.faults.clear()),
            ("faults order", |c| c.faults.reverse()),
            ("faults.at", |c| c.faults[0].at = SimTime::from_millis(4)),
            ("faults.link.a", |c| {
                c.faults[0].link.a = NodeId::Leaf(LeafId(0))
            }),
            ("faults.link.b", |c| {
                c.faults[0].link.b = NodeId::Spine(SpineId(0))
            }),
            ("faults.link.parallel", |c| c.faults[0].link.parallel = 1),
            ("faults.up", |c| c.faults[0].up = true),
            ("faults.link.b at the core tier", |c| {
                c.faults[1].link.b = NodeId::Core(CoreId(1))
            }),
            ("sketch", |c| c.sketch = true),
        ];
        // The three execution knobs move no artifact byte (tests/hotpath.rs,
        // tests/shards.rs, tests/trace.rs), so they must not move the key;
        // nor does `tcp.cc`, which `cc` overrides.
        let inert: &[Edit<FctRun>] = &[
            ("tcp.cc", |c| c.tcp.cc = CcKind::Cubic),
            ("queue", |c| c.queue = QueueKind::Heap),
            ("shards", |c| c.shards = 4),
            ("trace", |c| c.trace = Some(TraceConfig::all())),
        ];
        assert_key_coverage(base, hash, reaching, inert);
        // `figure` and `label` are part of the key too; `--quick` is not —
        // the shrunken fabric and flow count it chose already are.
        assert_ne!(base().scenario("figY", "a").content_hash(), hash(base()));
        assert_ne!(base().scenario("figX", "b").content_hash(), hash(base()));
        assert_eq!(
            fct_scenario("figX", "a", &base(), false).content_hash(),
            fct_scenario("figX", "a", &base(), true).content_hash()
        );
    }

    #[test]
    fn the_key_of_a_default_fct_cell_is_this_text() {
        // The key format, literally. An edit that moves it re-keys every
        // cached cell, so old entries simply miss; `CACHE_FORMAT_VERSION`
        // moves only when simulation semantics or the entry layout do.
        let cfg = FctRun::new(
            TestbedOpts::paper_baseline(),
            Scheme::Conga,
            FlowSizeDist::from_points("two-point", &[(100.0, 0.0), (2.5e6, 1.0)]),
            0.5,
        );
        assert_eq!(
            cfg.scenario("fig09_enterprise", "CONGA.load50.r0")
                .canonical(),
            "version=7\n\
             kind=fct\n\
             figure=fig09_enterprise\n\
             label=CONGA.load50.r0\n\
             topo=2x2x32@10G/40G par2 pods1 cores0 fail=none\n\
             scheme=CONGA\n\
             dist=FlowSizeDist { name: \"two-point\", points: [(100.0, 0.0), (2500000.0, 1.0)] }\n\
             load=0.5\n\
             n_flows=2000\n\
             seed=1\n\
             tcp=mss1460 init_cwnd10 min_rto200000000ns max_rto2000000000ns dupack3 \
             max_burst10 rwnd524288 cc:aimd\n\
             ecn=none\n\
             sample_uplinks=false\n\
             faults=\n\
             sketch=false\n"
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
        // The last cell samples series: its JSONL/CSV text (quotes and
        // newlines included) must come back from the cache byte for byte.
        let cells = |n: u64| -> Vec<FleetCell> {
            (0..n)
                .map(|i| {
                    let mut cfg = tiny_cfg(i + 1);
                    cfg.sample_uplinks = i + 1 == n;
                    fct_cell("figtest", &format!("cell{i}"), cfg, None)
                })
                .collect()
        };
        drain();
        let first = run_cells(cells(3), &opts);
        let rec1 = drain();
        assert_eq!(rec1.len(), 3);
        assert!(rec1.iter().all(|r| !r.cached), "cold cache: all misses");
        assert!(first[2].text["series_jsonl"].lines().count() > 1);
        assert!(!first[0].text.contains_key("series_jsonl"));
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
