//! The figure suite: one table of every figure `fleet` can regenerate,
//! and the drivers of the fleet-routed ones (Figures 9–13).
//!
//! [`ROWS`] is the only list of subcommands: `fleet --help`, the
//! unknown-subcommand error and `fleet all` are all derived from it.
//!
//! Every driver here routes its cell matrix through the fleet executor
//! ([`crate::fleet::run_cells`]): cells run in parallel under `--jobs N`,
//! completed cells are served from the content-addressed result cache,
//! and the printed tables and sidecar artifacts are byte-identical
//! whatever the worker count or cache state. Drivers return `false` when
//! a sidecar write failed (`fleet` exits nonzero on that).

use crate::cli::{banner, or_usage, Args, USAGE};
use crate::dynfail::{dynfail_cell, DynFailSpec};
use crate::figures::{
    run_baseline_figure, trace_args, write_metrics_sidecar_text, write_series_sidecars_from_text,
    TraceArgs,
};
use crate::fleet::{cell, fct_cell_with, run_cells, FleetCell, FleetOpts};
use crate::runner::{run_until_received, start_source, tcp_spec, FctOutcome, Scheme, TestbedOpts};
use crate::{ablation, analytic, asymmetry, failures, hdfs, scale, tournament};
use conga_analysis::imbalance::throughput_imbalance;
use conga_analysis::stats::percentile;
use conga_fleet::{CellResult, Scenario};
use conga_net::{HostId, LeafSpineBuilder, Network};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_telemetry::RunReport;
use conga_trace::{TraceConfig, TraceHandle};
use conga_transport::{FlowSpec, TcpConfig, TransportLayer};
use conga_workloads::{FlowSizeDist, IncastPattern};
use std::fmt::Write as _;

/// One figure of the suite.
pub struct Row {
    /// The subcommand: `fleet <name>`.
    pub name: &'static str,
    /// What the figure's artifacts are called: `results/<artifact>.*`,
    /// its manifest and its `orchestration[<artifact>]` summary line.
    pub artifact: &'static str,
    /// One line for `fleet --help`.
    pub title: &'static str,
    /// Runs the figure; `false` when an artifact could not be written.
    pub driver: fn(&Args) -> bool,
    /// Part of `fleet all`?
    pub in_all: bool,
}

const fn row(
    name: &'static str,
    artifact: &'static str,
    title: &'static str,
    driver: fn(&Args) -> bool,
    in_all: bool,
) -> Row {
    Row {
        name,
        artifact,
        title,
        driver,
        in_all,
    }
}

/// Every figure, in paper order.
#[rustfmt::skip]
pub const ROWS: [Row; 18] = [
    row("fig02", "fig02_asymmetry", "Figure 2 — asymmetry demands global congestion-awareness", asymmetry::fig02, false),
    row("fig03", "fig03_traffic_matrix", "Figure 3 — the optimal split depends on the traffic matrix", asymmetry::fig03, false),
    row("fig05", "fig05_flowlet_sizes", "Figure 5 — bytes vs transfer size for different flowlet gaps", analytic::fig05, false),
    row("fig08", "fig08_workload_cdfs", "Figure 8 — empirical flow-size distributions", analytic::fig08, false),
    row("fig09", "fig09_enterprise", "Figure 9 — enterprise FCT sweep", fig09, true),
    row("fig10", "fig10_datamining", "Figure 10 — data-mining FCT sweep", fig10, true),
    row("fig11", "fig11_dynamic_failure", "Figure 11 (dynamic) — mid-run link failure and recovery", fig11_dynamic, true),
    row("fig11_static", "fig11_link_failure", "Figure 11 — FCT sweeps and hotspot queue with one link down", failures::fig11_static, false),
    row("fig12", "fig12_imbalance", "Figure 12 — uplink throughput imbalance", fig12, true),
    row("fig13", "fig13_incast", "Figure 13 — incast goodput vs fanout", fig13, true),
    row("fig14", "fig14_hdfs", "Figure 14 — HDFS write benchmark job times", hdfs::fig14, false),
    row("fig15", "fig15_large_scale", "Figure 15 — large-scale fabrics up to the 10,240-host Clos", scale::fig15, false),
    row("fig16", "fig16_multi_failure", "Figure 16 — fabric queues under 9 random link failures", failures::fig16, false),
    row("fig17", "fig17_price_of_anarchy", "Figure 17 / Theorem 1 — Price of Anarchy of the CONGA game", analytic::fig17, false),
    row("thm2", "thm2_imbalance_bound", "Theorem 2 — randomized load-balancing imbalance vs time", analytic::thm2, false),
    row("ablation_incremental", "ablation_incremental", "Ablation (§7) — CONGA deployed leaf by leaf", ablation::incremental, false),
    row("ablation_parameters", "ablation_parameters", "Ablation (§3.6) — robustness to Q, tau, Tfl and gap detection", ablation::parameters, false),
    row("tournament", "tournament", "race every fabric policy through three arenas (--cc a,b,... adds a controller axis; honours --loads)", tournament::run, false),
];

/// The rows `fleet all` runs.
fn in_all() -> impl Iterator<Item = &'static Row> {
    ROWS.iter().filter(|r| r.in_all)
}

/// What `fleet <name>` runs: the artifact name its manifest and summary
/// line carry, and the rows. `all` is every `in_all` row under one
/// manifest; anything [`ROWS`] does not name is an error listing what it
/// does.
pub fn lookup(name: &str) -> Result<(&'static str, Vec<&'static Row>), String> {
    if name == "all" {
        return Ok(("fleet_all", in_all().collect()));
    }
    match ROWS.iter().find(|r| r.name == name) {
        Some(row) => Ok((row.artifact, vec![row])),
        None => {
            let names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
            let what = if name.is_empty() {
                "missing subcommand".to_string()
            } else {
                format!("unknown subcommand '{name}'")
            };
            Err(format!("{what} (expected all|{})", names.join("|")))
        }
    }
}

/// The `fleet --help` text: every subcommand, then the shared flags.
pub fn usage() -> String {
    let all: Vec<&str> = in_all().map(|r| r.name).collect();
    let mut out = String::from("subcommands:\n");
    let _ = writeln!(out, "  {:<22}{}, under one manifest", "all", all.join(", "));
    for r in &ROWS {
        let _ = writeln!(out, "  {:<22}{}", r.name, r.title);
    }
    out + "\n" + USAGE
}

/// Figure 9: enterprise workload FCT sweep on the baseline testbed.
pub fn fig09(args: &Args) -> bool {
    run_baseline_figure(
        args,
        "fig09_enterprise",
        FlowSizeDist::enterprise(),
        "Figure 9 — enterprise workload, baseline topology",
        800,
    )
}

/// Figure 10: data-mining workload FCT sweep on the baseline testbed.
pub fn fig10(args: &Args) -> bool {
    run_baseline_figure(
        args,
        "fig10_datamining",
        FlowSizeDist::data_mining(),
        "Figure 10 — data-mining workload, baseline topology",
        250,
    )
}

/// Figure 11 (dynamic): mid-run link failure and recovery, per scheme.
/// Returns `false` if any sidecar write failed.
pub fn fig11_dynamic(args: &Args) -> bool {
    banner(
        "Figure 11 (dynamic) — link fails mid-run, recovers later",
        "baseline fabric at 60% load; y = delivered throughput around the fault window",
    );

    let tracing = trace_args(args);
    let opts = FleetOpts::from_args(args, tracing.is_some());
    let mut written = true;
    let mut cells = Vec::new();
    // Optional overrides shared with the sweep figures.
    let fabric = DynFailSpec::paper(Scheme::Ecmp, args.quick, args.seed)
        .fct
        .topo;
    let link = or_usage(args.fault_link(fabric));
    for scheme in Scheme::PAPER {
        let mut spec = DynFailSpec::paper(scheme, args.quick, args.seed);
        let paper = &spec.fct;
        spec.fct = args.fct_run(paper.topo, scheme, paper.dist.clone(), paper.load);
        spec.fail_at = args.fail_at.unwrap_or(spec.fail_at);
        spec.recover_at = args.recover_at.unwrap_or(spec.recover_at);
        spec.link = link;
        spec.fct.trace = tracing.as_ref().map(|t| t.spec.clone());
        cells.push(dynfail_cell(
            "fig11_dynamic_failure",
            scheme.name(),
            spec,
            tracing.clone(),
        ));
    }
    let results = run_cells(cells, &opts);

    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>14}{:>12}{:>10}",
        "scheme",
        "pre (Gbps)",
        "dip (Gbps)",
        "post (Gbps)",
        "reconv (ms)",
        "blackholed",
        "stranded"
    );
    for (scheme, out) in Scheme::PAPER.iter().zip(&results) {
        written &=
            write_metrics_sidecar_text("fig11_dynamic_failure", scheme.name(), &out.report_json);
        println!(
            "{:<12}{:>12.1}{:>12.1}{:>12.1}{:>14}{:>12}{:>10}",
            scheme.name(),
            out.value("pre_bps") / 1e9,
            out.value("during_bps") / 1e9,
            out.value("post_bps") / 1e9,
            out.text
                .get("reconverge_ms")
                .map(String::as_str)
                .unwrap_or("?"),
            out.value("blackholed") as u64,
            out.value("stranded") as u64,
        );
    }
    written
}

/// Figure 12: uplink throughput imbalance at 60 % load, both workloads.
/// Returns `false` if any sidecar write failed.
pub fn fig12(args: &Args) -> bool {
    let tracing = trace_args(args);
    let opts = FleetOpts::from_args(args, tracing.is_some());
    let mut written = true;
    banner(
        "Figure 12 — uplink throughput imbalance (MAX-MIN)/AVG at 60% load",
        "synchronous 10ms samples of Leaf 0's four uplinks, baseline topology",
    );
    let workloads = [
        (FlowSizeDist::enterprise(), 3000),
        (FlowSizeDist::data_mining(), 600),
    ];
    let mut cells = Vec::new();
    for (dist, flows) in &workloads {
        for scheme in Scheme::PAPER {
            let topo = if args.quick {
                TestbedOpts::paper_baseline().quick()
            } else {
                TestbedOpts::paper_baseline()
            };
            let mut cfg = args.fct_run(topo, scheme, dist.clone(), 0.6);
            cfg.n_flows = if args.quick { 150 } else { *flows };
            cfg.sample_uplinks = true;
            cfg.trace = tracing.as_ref().map(|t| t.spec.clone());
            let label = format!("{}.{}", dist.name(), scheme.name());
            let scenario = cfg.scenario("fig12_imbalance", &label);
            cells.push(fct_cell_with(scenario, cfg, tracing.clone(), imbalance));
        }
    }
    let results = run_cells(cells, &opts);

    let mut it = results.iter();
    for (dist, _) in &workloads {
        println!("\n({}) workload", dist.name());
        println!(
            "{:<12}{:>10}{:>10}{:>10}{:>10}",
            "scheme", "p25 (%)", "p50 (%)", "p75 (%)", "p95 (%)"
        );
        for scheme in Scheme::PAPER {
            let out = it.next().expect("one result per cell");
            let label = format!("{}.{}", dist.name(), scheme.name());
            written &= write_metrics_sidecar_text("fig12_imbalance", &label, &out.report_json);
            written &= write_series_sidecars_from_text("fig12_imbalance", &label, out);
            if out.value("n_windows") == 0.0 {
                println!(
                    "{:<12}{:>10}{:>10}{:>10}{:>10}",
                    scheme.name(),
                    "-",
                    "-",
                    "-",
                    "-"
                );
                continue;
            }
            println!(
                "{:<12}{:>10.0}{:>10.0}{:>10.0}{:>10.0}",
                scheme.name(),
                out.value("p25"),
                out.value("p50"),
                out.value("p75"),
                out.value("p95"),
            );
        }
    }
    written
}

/// What a Figure-12 cell caches beyond the standard FCT contribution: the
/// imbalance percentiles, derived in-worker from the report's
/// `port.NNNN.tx_bytes` samples of leaf 0's uplinks (the four percentiles
/// are what the figure needs).
fn imbalance(out: &FctOutcome, r: &mut CellResult) {
    let tx: Vec<Vec<u64>> = out
        .report
        .metrics
        .all_series()
        .filter(|(name, _)| name.starts_with("port.") && name.ends_with(".tx_bytes"))
        .map(|(_, samples)| samples.iter().map(|&(_, bytes)| bytes as u64).collect())
        .collect();
    // Only windows where the uplinks average at least 10% utilized say
    // anything about balance (idle head/tail windows would otherwise
    // dominate the percentiles).
    let min_avg = 0.10 * 40e9 * 0.010 / 8.0;
    let imb = throughput_imbalance(&tx, min_avg);
    r.values.insert("n_windows".into(), imb.len() as f64);
    for (k, p) in [("p25", 25.0), ("p50", 50.0), ("p75", 75.0), ("p95", 95.0)] {
        if let Some(v) = percentile(&imb, p) {
            r.values.insert(k.into(), v * 100.0);
        }
    }
}

/// Figure 13: incast goodput vs fanout. Returns `false` if any sidecar
/// write failed.
pub fn fig13(args: &Args) -> bool {
    let tracing = trace_args(args);
    let opts = FleetOpts::from_args(args, tracing.is_some());
    let mut written = true;
    banner(
        "Figure 13 — Incast: client goodput vs fanout",
        "10MB striped over N synchronized senders into one 10G access link;\n\
         y = goodput as % of line rate (paper: CONGA+TCP 2-8x MPTCP)",
    );
    let fanouts: Vec<u32> = if args.quick {
        vec![4, 16, 48]
    } else {
        vec![1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 63]
    };
    let rows = [
        ("CONGA+TCP (minRTO 200ms)", Scheme::Conga, 200u64),
        ("CONGA+TCP (minRTO 1ms)", Scheme::Conga, 1),
        ("MPTCP (minRTO 200ms)", Scheme::Mptcp, 200),
        ("MPTCP (minRTO 1ms)", Scheme::Mptcp, 1),
    ];
    let mtus = [
        ("MTU 1500", TcpConfig::standard()),
        ("MTU 9000", TcpConfig::jumbo()),
    ];
    let mut cells = Vec::new();
    for (mtu_name, cfg) in &mtus {
        for (label, scheme, rto_ms) in &rows {
            let tcp = cfg.with_min_rto(SimDuration::from_millis(*rto_ms));
            for &f in &fanouts {
                let tag = format!("{mtu_name}.{label}.f{f:02}");
                let spec = IncastSpec {
                    scheme: *scheme,
                    fanout: f,
                    tcp,
                    seed: args.seed,
                };
                cells.push(incast_cell(&tag, spec, tracing.clone()));
            }
        }
    }
    let results = run_cells(cells, &opts);

    let mut it = results.iter();
    for (mtu_name, _) in &mtus {
        println!("\n({mtu_name})");
        print!("{:<26}", "scheme / fanout");
        for f in &fanouts {
            print!("{:>7}", f);
        }
        println!();
        for (label, _, _) in &rows {
            print!("{label:<26}");
            for &f in &fanouts {
                let out = it.next().expect("one result per cell");
                let tag = format!("{mtu_name}.{label}.f{f:02}");
                written &= write_metrics_sidecar_text("fig13_incast", &tag, &out.report_json);
                print!("{:>7.1}", out.value("goodput_pct"));
            }
            println!();
        }
    }
    written
}

/// One incast cell's inputs — [`run_incast`]'s arguments — and their
/// cache-key text. The fabric is not among them: `run_incast` builds the
/// one testbed itself.
struct IncastSpec {
    scheme: Scheme,
    fanout: u32,
    tcp: TcpConfig,
    seed: u64,
}

impl IncastSpec {
    /// By the rule of `FctRun::spec`: every field, defaults included.
    fn spec(&self) -> String {
        let IncastSpec {
            scheme,
            fanout,
            tcp,
            seed,
        } = self;
        format!(
            "scheme={}\nfanout={fanout}\ntcp={}\nseed={seed}\n",
            scheme.name(),
            tcp_spec(tcp)
        )
    }
}

/// One incast cell: a custom synchronized-senders simulation (not an FCT
/// sweep), hashed under `kind = "incast"`.
fn incast_cell(tag: &str, spec: IncastSpec, tracing: Option<TraceArgs>) -> FleetCell {
    let scenario = Scenario::new("incast", "fig13_incast", tag, spec.spec());
    let trace_spec = tracing.as_ref().map(|t| t.spec.clone());
    cell(scenario, tracing, move |r| {
        let (pct, report, trace) = run_incast(
            spec.scheme,
            spec.fanout,
            spec.tcp,
            spec.seed,
            trace_spec.as_ref(),
        );
        r.values.insert("goodput_pct".into(), pct);
        (report, trace)
    })
}

/// Run one incast: returns goodput as a % of the 10G access line rate, the
/// run's telemetry report, and the trace handle (if tracing was requested).
pub fn run_incast(
    scheme: Scheme,
    fanout: u32,
    tcp: TcpConfig,
    seed: u64,
    trace: Option<&TraceConfig>,
) -> (f64, RunReport, Option<TraceHandle>) {
    let topo = LeafSpineBuilder::new(2, 2, 32)
        .host_rate_gbps(10)
        .fabric_rate_gbps(40)
        .parallel_links(2)
        .build();
    let mut net = Network::new(topo, scheme.policy(), TransportLayer::new(), seed);
    let trace = trace.map(|cfg| TraceHandle::recording(cfg.clone()));
    if let Some(t) = &trace {
        net.set_tracer(t.clone());
    }
    let pat = IncastPattern::paper(fanout);
    // Client = host 0 (leaf 0); servers spread over the remaining hosts,
    // mostly remote so responses cross the fabric like the testbed's.
    // Server responses carry a small exponential service-time jitter
    // (mean 200us) — disk/kernel latency in the real benchmark; perfectly
    // clock-synchronized byte-identical senders would otherwise finish in
    // lockstep and all tail-drop together, which no real testbed does.
    let mut jit = SimRng::new(seed ^ 0x1CA5);
    let mut starts: Vec<(u64, FlowSpec)> = (0..fanout)
        .map(|i| {
            let server = HostId(1 + (i * 63 / fanout.max(1)) % 63);
            (
                (jit.exp(1.0 / 200_000.0)) as u64,
                FlowSpec {
                    src: server,
                    dst: HostId(0),
                    bytes: pat.per_server,
                    kind: scheme.transport(tcp),
                },
            )
        })
        .collect();
    starts.sort_by_key(|&(t, _)| t);
    let mut prev = 0;
    let arrivals: Vec<(SimDuration, FlowSpec)> = starts
        .into_iter()
        .map(|(t, spec)| {
            let gap = SimDuration::from_nanos(t - prev);
            prev = t;
            (gap, spec)
        })
        .collect();
    start_source(&mut net, arrivals);
    // Run until every response is delivered (generous bound: many RTOs).
    run_until_received(
        &mut net,
        fanout as usize,
        SimDuration::from_millis(100),
        SimTime::from_secs(30),
    );
    let last_done = net
        .agent
        .records
        .iter()
        .filter_map(|r| r.rx_done)
        .max()
        .unwrap_or(net.now());
    let total_bytes: u64 = pat.per_server * fanout as u64;
    let goodput = total_bytes as f64 * 8.0 / last_done.as_secs_f64();
    let mut report = RunReport::new();
    report.set_meta("figure", "fig13_incast");
    report.set_meta("scheme", scheme.name());
    report.set_meta("fanout", fanout.to_string());
    report.set_meta("seed", seed.to_string());
    report.set_meta("mss", tcp.mss.to_string());
    report.set_meta("min_rto_ns", tcp.min_rto.as_nanos().to_string());
    report.set_meta("end_time_ns", net.now().as_nanos().to_string());
    net.export_metrics(&mut report.metrics);
    // Percentage of the 10G access link (the paper's y-axis).
    (100.0 * goodput / 10e9, report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::tests::{assert_key_coverage, Edit};

    #[test]
    fn every_field_of_an_incast_cell_reaches_the_hash() {
        let base = || IncastSpec {
            scheme: Scheme::Conga,
            fanout: 16,
            tcp: TcpConfig::standard(),
            seed: 1,
        };
        let hash = |spec: IncastSpec| incast_cell("a", spec, None).scenario.content_hash();
        // Every field `IncastSpec::spec` and `tcp_spec` destructure, in
        // their order. At the parent commit the key carried two of the
        // eight `tcp` fields.
        let reaching: &[Edit<IncastSpec>] = &[
            ("scheme", |s| s.scheme = Scheme::Mptcp),
            ("fanout", |s| s.fanout = 32),
            ("tcp.mss", |s| s.tcp.mss = 8960),
            ("tcp.init_cwnd", |s| s.tcp.init_cwnd = 4),
            ("tcp.min_rto", |s| {
                s.tcp.min_rto = SimDuration::from_millis(1)
            }),
            ("tcp.max_rto", |s| {
                s.tcp.max_rto = SimDuration::from_millis(500)
            }),
            ("tcp.dupack_thresh", |s| s.tcp.dupack_thresh = 2),
            ("tcp.max_burst", |s| s.tcp.max_burst = 4),
            ("tcp.rwnd", |s| s.tcp.rwnd = 65_536),
            ("tcp.cc", |s| s.tcp.cc = conga_transport::CcKind::Dctcp),
            ("seed", |s| s.seed = 2),
        ];
        assert_key_coverage(base, hash, reaching, &[]);
    }

    #[test]
    fn the_table_is_the_only_list_of_subcommands() {
        // Names are unique, and none shadows `all` or the help spellings.
        let mut names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ROWS.len(), "subcommand names must be unique");
        for reserved in ["all", "help", "--help", "-h"] {
            assert!(!names.contains(&reserved), "{reserved} is reserved");
        }

        // Every row resolves to itself, and is in the generated usage.
        let usage = usage();
        for r in &ROWS {
            let (artifact, rows) = lookup(r.name).expect("a row's name resolves");
            assert_eq!(artifact, r.artifact);
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].name, r.name);
            assert!(
                usage.contains(&format!("\n  {:<22}{}\n", r.name, r.title)),
                "usage must list {}",
                r.name
            );
        }
        let listed = usage.lines().skip(1).take_while(|l| !l.is_empty()).count();
        assert_eq!(listed, ROWS.len() + 1, "18 rows + all:\n{usage}");

        // `all` is the fleet-routed subset, in table order, under its own
        // manifest name.
        let (artifact, all) = lookup("all").expect("all resolves");
        assert_eq!(artifact, "fleet_all");
        let all: Vec<&str> = all.iter().map(|r| r.name).collect();
        assert_eq!(all, ["fig09", "fig10", "fig11", "fig12", "fig13"]);
        assert!(usage.contains("fig09, fig10, fig11, fig12, fig13, under one manifest"));

        // Anything else is an error that lists every valid name.
        for bad in ["fig99", "", "bench", "profile", "Fig09"] {
            let err = lookup(bad).err().expect("unknown names are errors");
            assert!(err.contains("all|fig02|"), "{err}");
            for r in &ROWS {
                assert!(err.contains(r.name), "{err} must list {}", r.name);
            }
        }
    }
}
