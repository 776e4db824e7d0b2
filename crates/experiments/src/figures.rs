//! Figure-generation code shared by several figures (Figures 9, 10 and 11
//! share the FCT-vs-load sweep; Figure 15 reuses it at scale).

use crate::cli::{banner, or_usage, Args};
use crate::fleet::{fct_cell, run_cells, FleetOpts};
use crate::runner::{FctRun, LinkFaultSpec, Scheme, TestbedOpts};
use conga_trace::json::write_json_f64;
use conga_trace::{TraceConfig, TraceHandle};
use conga_workloads::FlowSizeDist;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The file-name form of a cell label: lowercase, non-alphanumerics → `-`.
fn slug(label: &str) -> String {
    label
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Write one artifact to `results/<file_name>`, creating the directory,
/// and report the outcome on stderr — the path, or the error. Every
/// sidecar goes through here, so no failed write is ever silent; returns
/// whether the artifact was written (a driver that gets `false` returns
/// it, and `fleet` exits nonzero).
pub(crate) fn write_artifact(what: &str, file_name: &str, text: &str) -> bool {
    let path = PathBuf::from("results").join(file_name);
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => {
            eprintln!("{what}: {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("{what} write failed ({}): {e}", path.display());
            false
        }
    }
}

/// Write a cell's telemetry artifact, `results/<figure>.<label>.metrics.json`,
/// from its rendered text — the cache stores a cell's `RunReport` JSON
/// verbatim, so a cache hit re-emits a byte-identical sidecar without
/// re-running the simulation. The label is slugified (lowercase,
/// non-alphanumerics become `-`) so scheme names like `CONGA-Flow` give
/// stable file names.
pub fn write_metrics_sidecar_text(figure: &str, label: &str, json: &str) -> bool {
    let file = format!("{figure}.{}.metrics.json", slug(label));
    write_artifact("metrics sidecar", &file, json)
}

/// Write a cell's time-series artifacts — `results/<figure>.<slug>.series.jsonl`
/// and `.csv` — from the rendered text a [`conga_fleet::CellResult`] carries
/// (`series_jsonl` / `series_csv` keys). The text rides in the result-cache
/// entry, so warm-cache re-runs re-emit byte-identical sidecars without
/// re-running the simulation. Nothing to write (`true`) when the cell
/// sampled no series.
pub fn write_series_sidecars_from_text(
    figure: &str,
    label: &str,
    result: &conga_fleet::CellResult,
) -> bool {
    let (Some(jsonl), Some(csv)) = (
        result.text.get("series_jsonl"),
        result.text.get("series_csv"),
    ) else {
        return true;
    };
    let stem = format!("{figure}.{}.series", slug(label));
    // `&`, not `&&`: a failed first write still attempts the second.
    write_artifact("series sidecar", &format!("{stem}.jsonl"), jsonl)
        & write_artifact("series sidecar", &format!("{stem}.csv"), csv)
}

/// Event-tracing options parsed from the CLI: where to write the artifacts
/// and what to record.
#[derive(Clone, Debug)]
pub struct TraceArgs {
    /// Output directory for the `.trace.jsonl` / `.trace.chrome.json` files.
    pub dir: PathBuf,
    /// What to record (flow sampling, ring bound).
    pub spec: TraceConfig,
}

/// The structured-tracing flags shared by every figure:
///
/// * `--trace DIR` — enable tracing and write artifacts under `DIR`,
/// * `--trace-flows a,b,c` — sample only these flow ids (default: all),
/// * `--trace-ring N` — flight-recorder mode, keep only the last N events.
///
/// Returns `None` when `--trace` is absent, so untraced runs pay nothing.
pub fn trace_args(args: &Args) -> Option<TraceArgs> {
    Some(TraceArgs {
        dir: args.trace.clone()?,
        spec: TraceConfig {
            flows: args.trace_flows.clone().map(|f| f.into_iter().collect()),
            ring: args.trace_ring,
        },
    })
}

/// Export a finished run's trace as `<dir>/<figure>.<label>.trace.jsonl`
/// and `<dir>/<figure>.<label>.trace.chrome.json` (label slugified as in
/// [`write_metrics_sidecar_text`]), print both paths to stderr, and return
/// them.
pub fn write_trace_sidecars(
    dir: &std::path::Path,
    figure: &str,
    label: &str,
    trace: &TraceHandle,
) -> std::io::Result<(PathBuf, PathBuf)> {
    let slug = slug(label);
    std::fs::create_dir_all(dir)?;
    let jsonl = dir.join(format!("{figure}.{slug}.trace.jsonl"));
    let chrome = dir.join(format!("{figure}.{slug}.trace.chrome.json"));
    let jsonl_text = trace
        .export_jsonl()
        .expect("write_trace_sidecars wants an enabled trace handle");
    let chrome_text = trace.export_chrome().expect("enabled handle");
    std::fs::write(&jsonl, jsonl_text)?;
    std::fs::write(&chrome, chrome_text)?;
    eprintln!("trace: {} ({} events)", jsonl.display(), trace.len());
    eprintln!("trace: {}", chrome.display());
    if trace.dropped() > 0 {
        eprintln!(
            "trace: ring evicted {} earlier events (raise --trace-ring to keep more)",
            trace.dropped()
        );
    }
    Ok((jsonl, chrome))
}

/// The runtime fault-injection flags shared by every sweep figure as a
/// fault schedule on `fabric`:
///
/// * `--fail-at-ms T` — fail a link T ms into the run,
/// * `--recover-at-ms T` — recover it T ms in (optional; omit for a
///   permanent failure),
/// * `--fault-link l:s:p` — which link (default `1:1:0`, the paper's
///   Figure 7(b) link); a link `fabric` does not have is a usage error.
///
/// Returns an empty schedule when `--fail-at-ms` is absent, so existing
/// scenarios run unchanged.
pub fn fault_args(args: &Args, fabric: TestbedOpts) -> Vec<LinkFaultSpec> {
    let Some(fail_at) = args.fail_at else {
        return Vec::new();
    };
    let link = or_usage(args.fault_link(fabric));
    let mut sched = vec![LinkFaultSpec::fail(fail_at, link)];
    if let Some(recover_at) = args.recover_at {
        sched.push(LinkFaultSpec::recover(recover_at, link));
    }
    sched
}

/// Results of one FCT sweep: `cells[scheme][load]`.
pub struct Sweep {
    /// Load points.
    pub loads: Vec<f64>,
    /// Schemes, row order.
    pub schemes: Vec<Scheme>,
    /// Overall average FCT normalized to optimal.
    pub overall: Vec<Vec<f64>>,
    /// Small-flow (< 100 KB) average FCT, seconds; `None` when no run of
    /// the cell completed a small flow (serialized as JSON null).
    pub small: Vec<Vec<Option<f64>>>,
    /// Large-flow (> 10 MB) average FCT, seconds; `None` for empty buckets.
    pub large: Vec<Vec<Option<f64>>>,
    /// Flows not completed within the drain bound.
    pub incomplete: Vec<Vec<usize>>,
}

/// Run an FCT sweep over the paper's scheme set. `figure` names the trace
/// artifacts when `--trace DIR` is given (see [`trace_args`]). Returns the
/// merged matrices and whether every sidecar was written.
pub fn fct_sweep(
    args: &Args,
    figure: &str,
    topo: TestbedOpts,
    dist: &FlowSizeDist,
    loads: &[f64],
    schemes: &[Scheme],
    flows_full: usize,
) -> (Sweep, bool) {
    let n_flows = args.flows_or(120, flows_full);
    let runs = args.runs_or(1, 2);
    let topo = if args.quick { topo.quick() } else { topo };
    // Every sweep scenario accepts the runtime fault flags (empty when the
    // flags are absent — see [`fault_args`]) and the tracing flags (`None`
    // when absent — see [`trace_args`]).
    let faults = fault_args(args, topo);
    let tracing = trace_args(args);

    let mut sweep = Sweep {
        loads: loads.to_vec(),
        schemes: schemes.to_vec(),
        overall: vec![vec![0.0; loads.len()]; schemes.len()],
        small: vec![vec![None; loads.len()]; schemes.len()],
        large: vec![vec![None; loads.len()]; schemes.len()],
        incomplete: vec![vec![0; loads.len()]; schemes.len()],
    };
    // One fleet cell per (scheme, load, run): independent deterministic
    // simulations, executed in parallel under `--jobs N` and skipped on
    // result-cache hits. `run_cells` returns them in this build order, so
    // the merge below — and every artifact — is byte-identical whatever
    // the worker count or cache state.
    let opts = FleetOpts::from_args(args, tracing.is_some());
    let mut cells = Vec::with_capacity(schemes.len() * loads.len() * runs);
    for &scheme in schemes {
        for &load in loads {
            for r in 0..runs {
                let mut cfg = FctRun::new(topo, scheme, dist.clone(), load);
                cfg.n_flows = n_flows;
                cfg.seed = args.seed + 1000 * r as u64;
                cfg.faults = faults.clone();
                cfg.trace = tracing.as_ref().map(|t| t.spec.clone());
                cfg.shards = args.shards;
                cfg.cc = args.primary_cc();
                cfg.ecn_threshold_pkts = args.ecn_threshold;
                // Three-tier (fig15-scale) cells always stream their FCTs
                // through the sketch — the whole point of running 10k+
                // hosts is not buffering one sample per flow. Two-tier
                // cells keep the exact path (and its goldens).
                cfg.sketch = topo.pods > 1;
                // The default controller keeps historical labels (and so
                // sidecar paths) unchanged; alternates are called out.
                let label = if cfg.cc == conga_transport::CcKind::Aimd {
                    format!("{}.load{:02.0}.r{r}", scheme.name(), load * 100.0)
                } else {
                    format!(
                        "{}.{}.load{:02.0}.r{r}",
                        scheme.name(),
                        cfg.cc.name(),
                        load * 100.0
                    )
                };
                cells.push(fct_cell(figure, &label, cfg, tracing.clone()));
            }
        }
    }
    let labels: Vec<String> = cells.iter().map(|c| c.scenario.label.clone()).collect();
    let results = run_cells(cells, &opts);
    // Cells that sampled time-series (e.g. under --sample-uplinks style
    // configs) emit their windowed series as sidecars; others skip free.
    let mut written = true;
    for (label, cell) in labels.iter().zip(&results) {
        written &= write_series_sidecars_from_text(figure, label, cell);
    }
    let mut it = results.iter();
    for (si, scheme) in schemes.iter().enumerate() {
        for (li, &load) in loads.iter().enumerate() {
            let mut o = 0.0;
            let (mut s, mut s_n) = (0.0, 0usize);
            let (mut l, mut l_n) = (0.0, 0usize);
            for _ in 0..runs {
                let cell = it.next().expect("one result per cell");
                o += cell.summary.avg_norm_optimal;
                // Runs whose size bucket is empty don't contribute a
                // phantom 0.0 to the bucket mean; a cell where *every*
                // run's bucket is empty stays `None` (JSON null).
                if let Some(v) = cell.summary.small_avg_s {
                    s += v;
                    s_n += 1;
                }
                if let Some(v) = cell.summary.large_avg_s {
                    l += v;
                    l_n += 1;
                }
                sweep.incomplete[si][li] += cell.summary.incomplete;
            }
            sweep.overall[si][li] = o / runs as f64;
            sweep.small[si][li] = (s_n > 0).then(|| s / s_n as f64);
            sweep.large[si][li] = (l_n > 0).then(|| l / l_n as f64);
            eprintln!(
                "[{}] load {:.0}%: {:.2}x optimal ({} incomplete)",
                scheme.name(),
                load * 100.0,
                sweep.overall[si][li],
                sweep.incomplete[si][li]
            );
        }
    }
    written &= write_sweep_sidecar(figure, &sweep);
    (sweep, written)
}

/// Write the merged sweep matrices as deterministic JSON at
/// `results/<figure>.sweep.json`. This is the byte-comparable "merged
/// output" artifact of a sweep: identical for `--jobs 1`, `--jobs N`, and
/// warm-cache re-runs (CI diffs it).
pub fn write_sweep_sidecar(figure: &str, sweep: &Sweep) -> bool {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"loads\": [");
    for (i, l) in sweep.loads.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_f64(&mut out, *l);
    }
    out.push_str("],\n  \"schemes\": [");
    for (i, s) in sweep.schemes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", s.name());
    }
    out.push_str("],");
    // Each matrix cell is Option<f64>: `None` (an empty size bucket) and
    // non-finite values both render as JSON null, deterministically.
    let write_matrix =
        |out: &mut String, name: &str, cell: &dyn Fn(usize, usize) -> Option<f64>| {
            let _ = write!(out, "\n  \"{name}\": [");
            for si in 0..sweep.schemes.len() {
                if si > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                for li in 0..sweep.loads.len() {
                    if li > 0 {
                        out.push_str(", ");
                    }
                    match cell(si, li) {
                        Some(v) => write_json_f64(out, v),
                        None => out.push_str("null"),
                    }
                }
                out.push(']');
            }
            out.push_str("],");
        };
    write_matrix(&mut out, "overall_norm_optimal", &|si, li| {
        Some(sweep.overall[si][li])
    });
    write_matrix(&mut out, "small_avg_s", &|si, li| sweep.small[si][li]);
    write_matrix(&mut out, "large_avg_s", &|si, li| sweep.large[si][li]);
    out.push_str("\n  \"incomplete\": [");
    for (si, row) in sweep.incomplete.iter().enumerate() {
        if si > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (li, v) in row.iter().enumerate() {
            if li > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{v}");
        }
        out.push(']');
    }
    out.push_str("]\n}\n");
    write_artifact("sweep sidecar", &format!("{figure}.sweep.json"), &out)
}

/// Print the three panels of a Figure-9-style sweep.
pub fn print_fct_panels(sweep: &Sweep) {
    let print_panel = |title: &str, cell: &dyn Fn(usize, usize) -> f64| {
        println!("\n{title}");
        print!("{:<12}", "load");
        for l in &sweep.loads {
            print!("{:>9.0}%", l * 100.0);
        }
        println!();
        for (si, s) in sweep.schemes.iter().enumerate() {
            print!("{:<12}", s.name());
            for li in 0..sweep.loads.len() {
                print!("{:>10.3}", cell(si, li));
            }
            println!();
        }
    };
    print_panel(
        "(a) Overall average FCT (normalized to optimal)",
        &|si, li| sweep.overall[si][li],
    );
    // Empty buckets print as 0.000 in the plain-text panels (the
    // historical sentinel); the JSON sidecar distinguishes them as null.
    print_panel("(b) Small flows < 100KB (normalized to ECMP)", &|si, li| {
        sweep.small[si][li].unwrap_or(0.0) / sweep.small[0][li].unwrap_or(0.0).max(1e-12)
    });
    print_panel("(c) Large flows > 10MB (normalized to ECMP)", &|si, li| {
        sweep.large[si][li].unwrap_or(0.0) / sweep.large[0][li].unwrap_or(0.0).max(1e-12)
    });
    let unfinished: usize = sweep.incomplete.iter().flatten().sum();
    if unfinished > 0 {
        println!("\nnote: {unfinished} flows total did not finish within the drain bound");
    }
}

/// `--loads 10,30,50` as fractions, or `default`.
pub fn loads_arg(args: &Args, default: Vec<f64>) -> Vec<f64> {
    args.loads.clone().unwrap_or(default)
}

/// The Figure 9/10 driver shared by both workload figures. `figure` names
/// the trace artifacts when `--trace DIR` is given. Returns `false` if a
/// sidecar write failed.
pub fn run_baseline_figure(
    args: &Args,
    figure: &str,
    dist: FlowSizeDist,
    title: &str,
    flows_full: usize,
) -> bool {
    banner(
        title,
        "testbed: 64 hosts, 2 leaves, 2 spines, 10G access / 2x40G uplinks (2:1 oversub)",
    );
    let loads = loads_arg(
        args,
        if args.quick {
            vec![0.3, 0.6]
        } else {
            (1..=9).map(|l| l as f64 / 10.0).collect()
        },
    );
    let (sweep, written) = fct_sweep(
        args,
        figure,
        TestbedOpts::paper_baseline(),
        &dist,
        &loads,
        &Scheme::PAPER,
        flows_full,
    );
    print_fct_panels(&sweep);
    written
}
