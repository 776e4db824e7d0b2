//! The fleet executor's two contracts, asserted end-to-end through the
//! real figure code paths:
//!
//! 1. **Merge determinism** — a sweep routed through the cell executor
//!    produces byte-identical merged artifacts (every
//!    `results/<figure>*` file it writes) whatever the worker count:
//!    `--jobs 1` and `--jobs 4` are indistinguishable from the artifacts
//!    alone.
//! 2. **Cache transparency** — re-running a sweep against a warm
//!    content-addressed result cache serves every cell as a hit and still
//!    emits byte-identical artifacts; the cache is an invisible
//!    accelerator, never an observable state change.
//!
//! The tests use `testfleet*` figure names (gitignored) and a temp cache
//! directory so they cannot collide with real figure artifacts.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use conga::experiments::figures::fct_sweep;
use conga::experiments::{
    fct_cell, fleet, run_cells, Args, FctRun, FleetCell, FleetOpts, Scheme, TestbedOpts,
};
use conga::fleet::{manifest, FleetManifest, ResultCache, Scenario};
use conga::workloads::FlowSizeDist;

/// The record collector is process-global and tests run concurrently:
/// whoever drains it holds this from its first cell to its drain, so no
/// sibling's drain takes its records.
static DRAINING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Parse `fleet` flags for a test sweep.
fn test_args(extra: &[&str]) -> Args {
    let mut argv: Vec<String> = vec!["--quick".into(), "--seed".into(), "11".into()];
    argv.extend(extra.iter().map(|s| s.to_string()));
    Args::from_iter(argv).expect("test flags parse")
}

/// Snapshot every artifact a figure wrote: `results/<figure>*` file names
/// mapped to their bytes, then delete them so the next pass starts clean.
fn take_artifacts(figure: &str) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let dir = Path::new("results");
    for entry in std::fs::read_dir(dir).expect("results dir exists") {
        let entry = entry.expect("readable entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(figure) {
            out.insert(name, std::fs::read(entry.path()).expect("readable file"));
            std::fs::remove_file(entry.path()).expect("removable file");
        }
    }
    assert!(!out.is_empty(), "sweep must write artifacts for {figure}");
    out
}

fn run_sweep(figure: &str, extra: &[&str]) -> BTreeMap<String, Vec<u8>> {
    let args = test_args(extra);
    fct_sweep(
        &args,
        figure,
        TestbedOpts::paper_baseline(),
        &FlowSizeDist::enterprise(),
        &[0.3, 0.6],
        &[Scheme::Ecmp, Scheme::Conga],
        120,
    );
    take_artifacts(figure)
}

#[test]
fn sweep_artifacts_byte_identical_across_jobs_and_cache_state() {
    let figure = "testfleet_sweep";
    let cache_dir = std::env::temp_dir().join("conga-testfleet-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_flag = cache_dir.to_string_lossy().into_owned();

    // Serial and 4-worker runs, cache bypassed: pure executor determinism.
    let serial = run_sweep(figure, &["--no-cache", "--jobs", "1"]);
    let parallel = run_sweep(figure, &["--no-cache", "--jobs", "4"]);
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "worker count must not change which artifacts exist"
    );
    for (name, bytes) in &serial {
        assert_eq!(
            bytes, &parallel[name],
            "{name} must be byte-identical for --jobs 1 vs --jobs 4"
        );
    }

    // Cold-cache run fills the cache; the warm run must be all hits and
    // still byte-identical to the serial no-cache pass.
    let hits_before = conga::fleet::stats::cache_hits();
    let cold = run_sweep(figure, &["--jobs", "2", "--cache-dir", &cache_flag]);
    assert_eq!(
        conga::fleet::stats::cache_hits(),
        hits_before,
        "cold cache must not hit"
    );
    let n_entries = std::fs::read_dir(&cache_dir)
        .expect("cache dir created")
        .count();
    assert_eq!(n_entries, 4, "2 schemes x 2 loads x 1 quick run cached");

    let warm = run_sweep(figure, &["--jobs", "2", "--cache-dir", &cache_flag]);
    assert_eq!(
        conga::fleet::stats::cache_hits() - hits_before,
        4,
        "warm cache must serve every cell"
    );
    for (name, bytes) in &serial {
        assert_eq!(bytes, &cold[name], "{name}: cold-cache run must match");
        assert_eq!(bytes, &warm[name], "{name}: warm-cache run must match");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn run_reports_identical_across_worker_counts() {
    // Below the artifact layer: the in-memory cell results (including the
    // full RunReport JSON) must match between worker counts.
    let cells = || -> Vec<_> {
        (0..5)
            .map(|i| {
                let mut cfg = FctRun::new(
                    TestbedOpts::paper_baseline().quick(),
                    Scheme::CongaFlow,
                    FlowSizeDist::data_mining(),
                    0.4,
                );
                cfg.n_flows = 40;
                cfg.seed = 100 + i;
                fct_cell("testfleet_reports", &format!("cell{i}"), cfg, None)
            })
            .collect()
    };
    let opts = |jobs: usize| FleetOpts {
        jobs,
        cache: ResultCache::disabled(),
    };
    let one = run_cells(cells(), &opts(1));
    let four = run_cells(cells(), &opts(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(
            a.report_json, b.report_json,
            "RunReport must not depend on --jobs"
        );
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "cell result must not depend on --jobs"
        );
    }
    // Sanity: distinct seeds really produced distinct reports.
    assert_ne!(one[0].report_json, one[1].report_json);
}

/// Run the quick sweep cold and render the manifest of its cells. The
/// collector is process-global and sibling tests run concurrently, so only
/// this figure's records are kept.
fn sweep_manifest(figure: &str) -> String {
    let _drain = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
    run_sweep(figure, &["--no-cache", "--jobs", "2"]);
    let cells = manifest::drain()
        .into_iter()
        .filter(|c| c.figure == figure)
        .collect();
    let manifest = FleetManifest {
        suite: figure.into(),
        jobs: 2,
        cells,
        total_wall_us: (conga::fleet::stats::elapsed_s() * 1e6) as u64,
    };
    manifest.to_json()
}

/// Blank the number after every `"wall_us": ` / `"total_wall_us": ` key.
fn blank_wall_clock(json: &str) -> String {
    let mut parts = json.split("wall_us\": ");
    let mut out = parts.next().unwrap_or_default().to_string();
    for rest in parts {
        out.push_str("wall_us\": _");
        out.push_str(rest.trim_start_matches(|c: char| c.is_ascii_digit()));
    }
    out
}

#[test]
fn manifest_quarantines_wall_clock_in_two_keys() {
    // The fleet manifest is the one artifact allowed to carry wall-clock,
    // and only under `wall_us` / `total_wall_us`: two cold runs of one
    // sweep agree on every other byte.
    let figure = "testfleet_manifest";
    let a = sweep_manifest(figure);
    let b = sweep_manifest(figure);
    assert_eq!(a.matches("\"cached\": false").count(), 4, "{a}");
    assert_eq!(a.matches("wall_us\": ").count(), 5, "{a}");
    assert_eq!(blank_wall_clock(&a), blank_wall_clock(&b));
    for key in ["profile", "wall_ns"] {
        assert!(!a.contains(key), "manifest must not carry a `{key}` key");
    }
}

#[test]
fn a_panicking_cell_fails_the_suite_and_the_manifest_names_it() {
    // `fleet` exits 1 iff `finish` returns false: one panicking cell in a
    // batch must get there — after the healthy cell ran and the manifest
    // was written — instead of vanishing into an all-zero table row.
    let suite = "testfleet_failed";
    let args = test_args(&["--no-cache", "--jobs", "2"]);
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Ecmp,
        FlowSizeDist::enterprise(),
        0.3,
    );
    cfg.n_flows = 20;
    let cells = vec![
        fct_cell(suite, "healthy", cfg, None),
        FleetCell {
            scenario: Scenario::new("fct", suite, "doomed", String::new()),
            run: Box::new(|| panic!("cell body blew up")),
        },
    ];
    let ok = {
        let _drain = DRAINING.lock().unwrap_or_else(|e| e.into_inner());
        let results = run_cells(cells, &FleetOpts::from_args(&args, false));
        assert_eq!(results[0].summary.incomplete, 0, "the healthy cell ran");
        assert!(results[1].text["failed"].contains("cell body blew up"));
        fleet::finish(suite, &args)
    };
    assert!(!ok, "a failed cell must fail the suite");
    let path = format!("results/{suite}.fleet_manifest.json");
    let manifest = std::fs::read_to_string(&path).expect("manifest written despite the failure");
    let _ = std::fs::remove_file(&path);
    let doomed = manifest
        .lines()
        .find(|l| l.contains("\"label\": \"doomed\""))
        .expect("the manifest names the failed cell");
    assert!(doomed.contains("\"failed\": true"), "{doomed}");
    assert!(manifest.contains("\"cells_failed\": 1"), "{manifest}");
    let healthy = manifest
        .lines()
        .find(|l| l.contains("\"label\": \"healthy\""))
        .expect("the healthy cell is recorded too");
    assert!(healthy.contains("\"failed\": false"), "{healthy}");
}

#[test]
fn traced_cells_never_cache() {
    // A traced sweep must bypass the cache outright: trace sidecars only
    // exist when the cell actually runs.
    let args = test_args(&["--trace", "/tmp/conga-testfleet-trace"]);
    let opts = FleetOpts::from_args(&args, true);
    assert!(!opts.cache.is_enabled(), "tracing must disable the cache");
    let untraced = FleetOpts::from_args(&test_args(&[]), false);
    assert!(untraced.cache.is_enabled(), "default runs use the cache");
    assert_eq!(
        untraced.cache.path_for("abc"),
        Some(PathBuf::from("results/cache/abc.json")),
        "default cache location"
    );
}
