//! The runner, stage by stage.
//!
//! `run_fct` and `run_incast` are single calls; to see where a repetition's
//! time goes without touching them, this module replays what they do from
//! the same public pieces — topology builders, `PoissonPlan`, `ShardedRun`,
//! `Network`, the FCT accumulators, `RunReport` — with one span around each
//! stage. The replay must render the very `RunReport` JSON the runner
//! renders (the traced run compares their hashes), so it cannot drift from
//! the runner unnoticed. The set-up stages double as the definition of the
//! `setup_s` metric: construction of a repetition's simulation up to its
//! first event.

use conga_analysis::fct::{ideal_fct_s, summarize, FctSample};
use conga_analysis::sketch::{FctAccumulator, FctSketch};
use conga_experiments::runner::{merged_arrivals, uniform_arrivals, ShardedRun};
use conga_experiments::{build_testbed, FctRun, TestbedOpts};
use conga_net::{
    ChannelId, Dataplane, HostId, LeafId, LeafSpineBuilder, Network, Topology, WIRE_OVERHEAD,
};
use conga_sim::{QueueKind, SimDuration, SimRng, SimTime};
use conga_telemetry::RunReport;
use conga_transport::{FlowRecord, FlowSpec, ListSource, TransportLayer};
use conga_workloads::{IncastPattern, PoissonPlan};

use std::time::Instant;

use crate::machine::rss_mb;
use crate::spans::Spans;
use crate::workloads::{IncastCell, Input, ReportHash, Workload};

/// What a replayed repetition produced — the fields of
/// [`crate::workloads::Rep`] that the traced run compares, plus what only
/// the replay can see.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// Hash of the `RunReport` JSON, rendered exactly as the runner
    /// renders it.
    pub report: ReportHash,
    /// `avg_norm_optimal` (incast: mean over cells of 100 ÷ goodput %).
    pub sim_fct_norm_optimal: f64,
    /// Flows that arrived inside the measurement window, counted from the
    /// generated arrivals (incast: every flow).
    pub expected_measured_flows: u64,
    /// Resident-set growth across flow registration, MB (FCT only).
    pub register_rss_mb: f64,
}

/// Stage 1 of an FCT cell: the fabric, and the capacity the offered load
/// is relative to (the unfailed baseline's leaf bisection).
pub fn fct_topology(cfg: &FctRun) -> (Topology, u64) {
    let topo = build_testbed(cfg.topo);
    let base = build_testbed(TestbedOpts {
        fail: None,
        ..cfg.topo
    });
    let capacity = base
        .leaf_uplink_capacity(LeafId(0))
        .min(base.access_capacity(LeafId(0)));
    (topo, capacity)
}

/// Stage 2: the arrival schedule with absolute start times, and the
/// length of the Poisson window in ns.
pub fn fct_arrivals(
    cfg: &FctRun,
    topo: &Topology,
    capacity: u64,
) -> (Vec<(SimTime, FlowSpec)>, u64) {
    let mut rng = SimRng::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0xC04A);
    let kind = cfg.scheme.transport(cfg.tcp.with_cc(cfg.cc));
    let gaps = if topo.n_leaves == 2 {
        let a = topo.hosts_under(LeafId(0));
        let b = topo.hosts_under(LeafId(1));
        let plan = PoissonPlan::generate(
            &cfg.dist,
            a.len() as u32,
            b.len() as u32,
            capacity,
            cfg.load,
            cfg.n_flows,
            &mut rng,
        );
        merged_arrivals(&plan, &a, &b, |_| kind)
    } else {
        uniform_arrivals(
            &cfg.dist,
            topo,
            capacity,
            cfg.load,
            cfg.n_flows * 2,
            &mut rng,
            kind,
        )
    };
    let mut t = SimTime::from_nanos(0);
    let abs = gaps
        .iter()
        .map(|(gap, spec)| {
            t += *gap;
            (t, *spec)
        })
        .collect();
    (abs, t.as_nanos())
}

/// Stage 3: one `Network` replica per leaf domain, every flow
/// preregistered in every domain.
pub fn fct_register(cfg: &FctRun, topo: &Topology, arrivals: &[(SimTime, FlowSpec)]) -> ShardedRun {
    ShardedRun::new(
        topo,
        cfg.scheme.policy(),
        cfg.seed,
        cfg.shards,
        cfg.queue,
        cfg.ecn_config(),
        None,
        &[],
        &[],
        arrivals,
    )
}

/// The end of the measurement window: flows starting in the last 30 % of
/// the Poisson window finish in a draining fabric and are not measured.
fn measure_until(span_ns: u64) -> SimTime {
    SimTime::from_nanos((span_ns as f64 * 0.7) as u64)
}

/// Replay one FCT cell. Supports what the benchmark's cells use: no
/// faults, no uplink sampling, no event tracing.
fn replay_fct(cfg: &FctRun, sp: &mut Spans) -> Replayed {
    let (topo, capacity) = sp.scope("setup_topology", |_| fct_topology(cfg));
    let (arrivals, span_ns) = sp.scope("setup_arrivals", |_| fct_arrivals(cfg, &topo, capacity));
    let rss_before = rss_mb();
    let mut run = sp.scope("setup_register", |_| fct_register(cfg, &topo, &arrivals));
    let register_rss_mb = rss_mb() - rss_before;

    let edge_bps = cfg.topo.host_gbps * 1_000_000_000;
    let ideal_of = |r: &FlowRecord| {
        let (sl, dl) = (topo.leaf_of(r.src), topo.leaf_of(r.dst));
        let hops = if sl == dl {
            2
        } else if topo.pod_of_leaf(sl) != topo.pod_of_leaf(dl) {
            6
        } else {
            4
        };
        ideal_fct_s(r.bytes, edge_bps, hops, 2.5e-6, cfg.tcp.mss, WIRE_OVERHEAD)
    };
    let until = measure_until(span_ns);
    let total_flows = cfg.n_flows * 2;
    let drain_bound = SimTime::from_nanos(span_ns) + SimDuration::from_secs(8);
    let mut consumed = vec![false; if cfg.sketch { arrivals.len() } else { 0 }];
    let mut acc = FctAccumulator::new();
    let mut sk = FctSketch::new();
    loop {
        let t = run.net.now() + SimDuration::from_millis(50);
        sp.scope("simulate", |_| run.net.run_until(t));
        sp.scope("drain", |_| {
            for (i, done) in consumed.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                let r = run.merged_record(&topo, i);
                if let Some(f) = r.fct() {
                    *done = true;
                    if r.start <= until {
                        acc.add(r.bytes, f.as_nanos(), ideal_of(&r));
                        sk.add(f.as_secs_f64());
                    }
                }
            }
        });
        if run.completed_rx() >= total_flows || run.net.now() >= drain_bound {
            break;
        }
    }
    let records = sp.scope("drain", |_| run.merged_records(&topo));

    let summary = sp.scope("summarize", |_| {
        let summary = if cfg.sketch {
            for (i, done) in consumed.iter().enumerate() {
                if !done && records[i].start <= until {
                    acc.add_incomplete();
                }
            }
            acc.summary(&sk)
        } else {
            let mut samples = Vec::new();
            let mut incomplete = 0;
            for r in records.iter().filter(|r| r.start <= until) {
                match r.fct() {
                    Some(f) => samples.push(FctSample {
                        bytes: r.bytes,
                        fct_s: f.as_secs_f64(),
                        ideal_s: ideal_of(r),
                    }),
                    None => incomplete += 1,
                }
            }
            summarize(&samples, incomplete)
        };
        // The runner also totals retransmissions and finalizes every
        // fabric port's mean queue depth here.
        let retx: u64 = records.iter().map(|r| r.retx_bytes + r.timeouts).sum();
        let now = run.net.now();
        let queues: f64 = (0..topo.channels.len() as u32)
            .map(ChannelId)
            .filter(|c| topo.channel(*c).kind.is_fabric())
            .map(|c| {
                let d = run.net.tx_domain(c);
                run.net.domain_mut(d).port_mut(c).mean_queue_bytes(now)
            })
            .sum();
        std::hint::black_box((retx, queues));
        summary
    });

    let report_json = sp.scope("export", |_| {
        let mut report = RunReport::new();
        report.set_meta("scheme", cfg.scheme.name());
        report.set_meta("policy", run.net.domain(0).dataplane.name());
        report.set_meta("seed", cfg.seed.to_string());
        report.set_meta("load", format!("{}", cfg.load));
        report.set_meta("n_flows", cfg.n_flows.to_string());
        let o = cfg.topo;
        report.set_meta(
            "topology",
            if o.pods > 1 {
                format!(
                    "{}pods:{}x{}x{}+{}cores@{}G/{}G par{}",
                    o.pods,
                    o.leaves,
                    o.spines,
                    o.hosts_per_leaf,
                    o.cores,
                    o.host_gbps,
                    o.fabric_gbps,
                    o.parallel
                )
            } else {
                format!(
                    "{}x{}x{}@{}G/{}G par{}",
                    o.leaves, o.spines, o.hosts_per_leaf, o.host_gbps, o.fabric_gbps, o.parallel
                )
            },
        );
        if cfg.sketch {
            report.set_meta("fct_aggregation", "sketch");
        }
        report.set_meta("end_time_ns", run.net.now().as_nanos().to_string());
        run.net.export_metrics(&mut report.metrics);
        report.to_json()
    });

    Replayed {
        report: ReportHash::default().fold(&report_json),
        sim_fct_norm_optimal: summary.avg_norm_optimal,
        expected_measured_flows: arrivals.iter().filter(|(t, _)| *t <= until).count() as u64,
        register_rss_mb,
    }
}

/// The monolithic network an incast cell runs on.
type IncastNet = Network<conga_core::FabricPolicy, TransportLayer>;

/// The Fig-13 fabric: the paper testbed.
fn incast_topology() -> Topology {
    LeafSpineBuilder::new(2, 2, 32)
        .host_rate_gbps(10)
        .fabric_rate_gbps(40)
        .parallel_links(2)
        .build()
}

/// The cell's responses, gap-encoded in start order: host 0 is the
/// client, servers spread over the other 63 hosts, each response delayed
/// by an exponential service time (mean 200 µs).
fn incast_arrivals(c: &IncastCell) -> Vec<(SimDuration, FlowSpec)> {
    let pat = IncastPattern::paper(c.fanout);
    let mut jit = SimRng::new(c.seed ^ 0x1CA5);
    let mut starts: Vec<(u64, FlowSpec)> = (0..c.fanout)
        .map(|i| {
            (
                jit.exp(1.0 / 200_000.0) as u64,
                FlowSpec {
                    src: HostId(1 + (i * 63 / c.fanout.max(1)) % 63),
                    dst: HostId(0),
                    bytes: pat.per_server,
                    kind: c.scheme.transport(c.tcp()),
                },
            )
        })
        .collect();
    starts.sort_by_key(|&(t, _)| t);
    let mut prev = 0;
    starts
        .into_iter()
        .map(|(t, spec)| {
            let gap = SimDuration::from_nanos(t - prev);
            prev = t;
            (gap, spec)
        })
        .collect()
}

/// Set-up of one incast cell, in the same three stages: the network with
/// its source attached and the first arrival timer armed.
fn incast_setup(c: &IncastCell, sp: &mut Spans) -> IncastNet {
    let topo = sp.scope("setup_topology", |_| incast_topology());
    let arrivals = sp.scope("setup_arrivals", |_| incast_arrivals(c));
    sp.scope("setup_register", |_| {
        let mut net = Network::new(topo, c.scheme.policy(), TransportLayer::new(), c.seed);
        net.agent.attach_source(Box::new(ListSource::new(arrivals)));
        if let Some((d, tok)) = net.agent.begin_source() {
            net.schedule_timer(d, tok);
        }
        net
    })
}

/// What a replayed incast cell produced.
#[derive(Clone, Debug)]
pub struct IncastReplayed {
    /// The cell's `RunReport` JSON.
    pub report_json: String,
    /// 100 ÷ goodput % of the 10 G access link.
    pub inv_goodput: f64,
    /// Engine events processed.
    pub events: u64,
}

/// Replay one incast cell on the monolithic engine. With `sample`, leaf
/// 0's uplinks are sampled every 10 ms into the windowed series — the
/// observer `run_incast` cannot switch on.
pub fn replay_incast_cell(c: &IncastCell, sample: bool, sp: &mut Spans) -> IncastReplayed {
    let mut net = incast_setup(c, sp);
    if sample {
        let uplinks = net.fib.leaf_uplinks[0].clone();
        net.enable_sampling(uplinks, SimDuration::from_millis(10));
    }
    let bound = SimTime::from_secs(30);
    loop {
        let t = net.now() + SimDuration::from_millis(100);
        sp.scope("simulate", |_| net.run_until(t));
        if net.agent.completed_rx as u32 >= c.fanout || net.now() >= bound {
            break;
        }
    }
    let goodput_pct = sp.scope("drain", |_| {
        let last_done = net
            .agent
            .records
            .iter()
            .filter_map(|r| r.rx_done)
            .max()
            .unwrap_or(net.now());
        let bytes = IncastPattern::paper(c.fanout).per_server * c.fanout as u64;
        100.0 * (bytes as f64 * 8.0 / last_done.as_secs_f64()) / 10e9
    });
    let report_json = sp.scope("export", |_| {
        let tcp = c.tcp();
        let mut report = RunReport::new();
        report.set_meta("figure", "fig13_incast");
        report.set_meta("scheme", c.scheme.name());
        report.set_meta("fanout", c.fanout.to_string());
        report.set_meta("seed", c.seed.to_string());
        report.set_meta("mss", tcp.mss.to_string());
        report.set_meta("min_rto_ns", tcp.min_rto.as_nanos().to_string());
        report.set_meta("end_time_ns", net.now().as_nanos().to_string());
        net.export_metrics(&mut report.metrics);
        report.to_json()
    });
    IncastReplayed {
        report_json,
        inv_goodput: 100.0 / goodput_pct,
        events: net.stats.events,
    }
}

/// The same cell through the sharded engine's windowed schedule (two leaf
/// domains) on `workers` threads; returns the events processed. The
/// domains fork their RNGs from the seed, so the packet-level schedule is
/// not the monolithic one — compare per-event cost, not reports.
pub fn incast_windowed(c: &IncastCell, workers: usize) -> u64 {
    let topo = incast_topology();
    let mut t = SimTime::ZERO;
    let arrivals: Vec<(SimTime, FlowSpec)> = incast_arrivals(c)
        .into_iter()
        .map(|(gap, spec)| {
            t += gap;
            (t, spec)
        })
        .collect();
    let mut run = ShardedRun::new(
        &topo,
        c.scheme.policy(),
        c.seed,
        workers,
        // `Network::new`, which `run_incast` uses, defaults to the heap.
        QueueKind::Heap,
        None,
        None,
        &[],
        &[],
        &arrivals,
    );
    while (run.completed_rx() as u32) < c.fanout && run.net.now() < SimTime::from_secs(30) {
        let t = run.net.now() + SimDuration::from_millis(100);
        run.net.run_until(t);
    }
    run.stat(|s| s.events)
}

/// Replay one repetition of `w` under a root span named `rep`.
pub fn replay(w: &Workload, sp: &mut Spans) -> Replayed {
    sp.scope("rep", |sp| match &w.input {
        Input::Fct(cfg) => replay_fct(cfg, sp),
        Input::Incast(cells) => {
            let mut report = ReportHash::default();
            let mut inv_goodput = Vec::with_capacity(cells.len());
            for c in cells {
                let cell = replay_incast_cell(c, false, sp);
                report = report.fold(&cell.report_json);
                inv_goodput.push(cell.inv_goodput);
            }
            let mean = sp.scope("summarize", |_| {
                inv_goodput.iter().sum::<f64>() / inv_goodput.len().max(1) as f64
            });
            Replayed {
                report,
                sim_fct_norm_optimal: mean,
                expected_measured_flows: w.flows(),
                register_rss_mb: 0.0,
            }
        }
    })
}

/// Construct one repetition's simulation up to its first event and time
/// it — the unit of `setup_s`. Tearing it down again is not counted. Also
/// returns the flows that arrive inside the measurement window, which the
/// caller checks the runner's summary against.
pub fn setup(w: &Workload) -> (f64, u64) {
    let t = Instant::now();
    match &w.input {
        Input::Fct(cfg) => {
            let (topo, capacity) = fct_topology(cfg);
            let (arrivals, span_ns) = fct_arrivals(cfg, &topo, capacity);
            let run = fct_register(cfg, &topo, &arrivals);
            let setup_s = t.elapsed().as_secs_f64();
            drop(run);
            let until = measure_until(span_ns);
            let measured = arrivals.iter().filter(|(t, _)| *t <= until).count();
            (setup_s, measured as u64)
        }
        Input::Incast(cells) => {
            let mut sp = Spans::new();
            let mut setup_s = 0.0;
            for c in cells {
                let t = Instant::now();
                let net = incast_setup(c, &mut sp);
                setup_s += t.elapsed().as_secs_f64();
                drop(net);
            }
            (setup_s, w.flows())
        }
    }
}
