//! One run of one workload: the end-to-end run (tracing off) and the
//! traced run (per-layer), each ending in a [`RunRecord`].

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use conga_experiments::suite::run_incast;
use conga_experiments::{run_fct, FctRun, TraceSpec};
use conga_fleet::scenario::fnv1a64;
use conga_telemetry::MetricsRegistry;

use crate::layers::{self, Budget};
use crate::machine::{cpu_seconds, peak_rss_mb, vol_ctx_switches, Stamp};
use crate::measure::{timed, Samples};
use crate::replay::{incast_windowed, replay, replay_incast_cell, setup};
use crate::report::{unit_of, Check, Metric, RunRecord, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{Input, Rep, Scale, Workload};

/// The packet-conservation identity over a run's exported counters:
/// every packet a host emitted was delivered, dropped at a full queue,
/// lost to a dead link, found unroutable, or is still in flight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conservation {
    /// `engine.injected_pkts`
    pub injected: u64,
    /// `engine.delivered_pkts`
    pub delivered: u64,
    /// `engine.queue_drops`
    pub queue_drops: u64,
    /// `net.blackholed_packets`
    pub blackholed: u64,
    /// `engine.unroutable_pkts`
    pub unroutable: u64,
    /// `engine.inflight_pkts`
    pub inflight: i64,
}

impl Conservation {
    /// Read the six terms from a run's metrics.
    pub fn from_metrics(m: &MetricsRegistry) -> Self {
        Conservation {
            injected: m.counter("engine.injected_pkts"),
            delivered: m.counter("engine.delivered_pkts"),
            queue_drops: m.counter("engine.queue_drops"),
            blackholed: m.counter("net.blackholed_packets"),
            unroutable: m.counter("engine.unroutable_pkts"),
            inflight: m.gauge("engine.inflight_pkts").unwrap_or(0),
        }
    }

    /// `injected = delivered + queue_drops + blackholed + unroutable +
    /// inflight`, with something injected and nothing negative in flight.
    pub fn check(&self) -> Result<(), String> {
        let accounted = (self.delivered + self.queue_drops + self.blackholed + self.unroutable)
            as i64
            + self.inflight;
        if self.injected == 0 || self.inflight < 0 || accounted != self.injected as i64 {
            return Err(format!("packets not conserved: {self:?}"));
        }
        Ok(())
    }
}

fn metric(name: &str, samples: Samples) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name),
        samples,
    }
}

fn check(name: &'static str, ok: bool, found: impl FnOnce() -> String) -> Check {
    Check {
        name,
        outcome: if ok { Ok(()) } else { Err(found()) },
    }
}

/// The checks every repetition must pass, whichever run took it.
fn rep_checks(w: &Workload, reps: &[Rep], expected_measured: u64) -> Vec<Check> {
    let first = &reps[0];
    vec![
        check(
            "rep_byte_identity",
            reps.iter().all(|r| r.report == first.report),
            || "repetitions rendered different RunReport JSON".to_string(),
        ),
        Check {
            name: "packet_conservation",
            outcome: Conservation::from_metrics(&first.metrics).check(),
        },
        check(
            "zero_incomplete_flows",
            reps.iter().all(|r| r.incomplete_flows(w.flows()) == 0),
            || {
                format!(
                    "{} of {} flows incomplete",
                    first.incomplete_flows(w.flows()),
                    w.flows()
                )
            },
        ),
        check(
            "measured_flow_count",
            reps.iter().all(|r| r.measured_flows == expected_measured),
            || {
                format!(
                    "summary covers {} flows, the arrival schedule puts {expected_measured} in the window",
                    first.measured_flows
                )
            },
        ),
    ]
}

/// What to run: workload name, seed, how long to measure, and whether at
/// smoke size.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Run at about 1 % size (the contract test).
    pub smoke: bool,
}

impl RunOpts<'_> {
    fn scale(&self) -> Scale {
        if self.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn record(
    o: &RunOpts,
    w: &Workload,
    traced: bool,
    reps: &[Rep],
    metrics: Vec<Metric>,
    checks: Vec<Check>,
) -> RunRecord {
    RunRecord {
        stamp: Stamp::probe(),
        workload: w.name.to_string(),
        seed: o.seed,
        seconds: o.seconds,
        traced,
        smoke: o.smoke,
        workers: w.workers(),
        report_fnv64: reps[0].report.fnv64,
        attempted: w.flows() * reps.len() as u64,
        failed: reps.iter().map(|r| r.incomplete_flows(w.flows())).sum(),
        metrics,
        checks,
    }
}

/// The end-to-end run: repetitions through the runner until `seconds` of
/// them are measured (at least two, so byte-identity is checked), at least
/// 15 timed set-ups, and the process's peak RSS.
pub fn end_to_end(o: &RunOpts) -> Option<RunRecord> {
    let w = Workload::new(o.workload, o.seed, o.scale())?;
    let mut reps = Vec::new();
    let mut setups = Vec::new();
    let mut expected_measured = 0;
    let mut time_setup = |setups: &mut Vec<f64>| {
        let (s, measured) = setup(&w);
        setups.push(s);
        expected_measured = measured;
    };
    let mut measured_s = 0.0;
    while reps.len() < 2 || measured_s < o.seconds {
        let rep = w.run_rep();
        measured_s += rep.wall_s;
        reps.push(rep);
        // Set-ups are timed between repetitions, not in one burst: a
        // one-second stall of the host then cannot own their median. A
        // set-up allocates less than the repetition before it did, so
        // these do not raise the peak RSS.
        for _ in 0..3 {
            time_setup(&mut setups);
        }
    }
    let peak_rss = peak_rss_mb();
    while setups.len() < 15 {
        time_setup(&mut setups);
    }

    let walls = Samples(reps.iter().map(|r| r.wall_s).collect());
    let rates = Samples(
        reps.iter()
            .map(|r| r.counter("engine.delivered_pkts") as f64 / r.wall_s)
            .collect(),
    );
    let metrics = vec![
        metric("setup_s", Samples(setups)),
        metric("wall_s", walls),
        metric("delivered_pkts_per_s", rates),
        metric("peak_rss_mb", Samples::one(peak_rss)),
        metric(
            "sim_fct_norm_optimal",
            Samples::one(reps[0].sim_fct_norm_optimal),
        ),
        metric(
            "incomplete_flow_frac",
            Samples::one(reps[0].incomplete_flows(w.flows()) as f64 / w.flows() as f64),
        ),
    ];
    let checks = rep_checks(&w, &reps, expected_measured);
    Some(record(o, &w, false, &reps, metrics, checks))
}

/// What the probes of the traced run found: the workload's own cell at
/// probe scale with one observer switched on, and at one and two workers.
struct Probes {
    /// Wall-clock with uplink series sampling on ÷ off.
    series_on_ratio: f64,
    /// Wall-clock with a 65,536-event ring tracer on ÷ off.
    ring_on_ratio: f64,
    /// Wall-clock at one worker ÷ at two.
    speedup_w2: f64,
    /// Whether one and two workers produced the same simulation (report
    /// hash; incast through the windowed schedule: event count).
    workers_agree: bool,
    /// At two workers: CPU seconds ÷ (wall × 2).
    busy_frac: f64,
    /// At two workers: barrier waits that blocked the calling thread.
    vol_ctx_switches: u64,
}

fn probes(name: &str, seed: u64, scale: Scale) -> Option<Probes> {
    let w = Workload::new(name, seed, scale)?;
    let ring = TraceSpec {
        flows: None,
        ring: Some(65_536),
    };
    let at_two = |f: &mut dyn FnMut() -> u64| {
        let (cpu0, ctx0) = (cpu_seconds(), vol_ctx_switches());
        let (wall_s, id) = timed(f);
        let busy = (cpu_seconds() - cpu0) / (wall_s * 2.0);
        (wall_s, id, busy, vol_ctx_switches() - ctx0)
    };
    Some(match &w.input {
        Input::Fct(cfg) => {
            let run = |change: &dyn Fn(&mut FctRun)| {
                let mut cfg = cfg.clone();
                change(&mut cfg);
                move || fnv1a64(run_fct(&cfg).report.to_json().as_bytes())
            };
            let (one_s, one_fnv) = timed(run(&|c| c.shards = 1));
            let (two_s, two_fnv, busy_frac, vol_ctx_switches) = at_two(&mut run(&|c| c.shards = 2));
            // The plain cell is one of those two.
            let plain_s = if cfg.shards == 1 { one_s } else { two_s };
            let (series_s, _) = timed(run(&|c| c.sample_uplinks = true));
            let (ring_s, _) = timed(run(&|c| c.trace = Some(ring.clone())));
            Probes {
                series_on_ratio: series_s / plain_s,
                ring_on_ratio: ring_s / plain_s,
                speedup_w2: one_s / two_s,
                workers_agree: one_fnv == two_fnv,
                busy_frac,
                vol_ctx_switches,
            }
        }
        Input::Incast(cells) => {
            // `run_incast` can switch the tracer on but not the series, so
            // the series ratio comes from the replay, sampling on and off.
            let replayed = |sample: bool| {
                timed(|| {
                    let mut sp = Spans::new();
                    for c in cells {
                        replay_incast_cell(c, sample, &mut sp);
                    }
                })
                .0
            };
            let runner = |trace: Option<&TraceSpec>| {
                timed(|| {
                    for c in cells {
                        run_incast(c.scheme, c.fanout, c.tcp(), c.seed, trace);
                    }
                })
                .0
            };
            // The monolithic engine has no workers; its cells through the
            // windowed schedule do. One bottleneck link leaves a window a
            // packet or two to process, so two workers run ~20x slower
            // than one here: the first cell of each fanout is plenty.
            let windowed = |workers: usize| -> u64 {
                cells
                    .iter()
                    .step_by((cells.len() / 3).max(1))
                    .map(|c| incast_windowed(c, workers))
                    .sum()
            };
            let (one_s, one_events) = timed(|| windowed(1));
            let (two_s, two_events, busy_frac, vol_ctx_switches) = at_two(&mut || windowed(2));
            Probes {
                series_on_ratio: replayed(true) / replayed(false),
                ring_on_ratio: runner(Some(&ring)) / runner(None),
                speedup_w2: one_s / two_s,
                workers_agree: one_events == two_events,
                busy_frac,
                vol_ctx_switches,
            }
        }
    })
}

/// The traced run: the runner and the span-instrumented replay turn and
/// turn about until 40 % of `seconds` have passed, then the on/off probes,
/// then every layer in isolation. Needs two cores (it reports a two-worker speed-up).
pub fn traced(o: &RunOpts, out_dir: &Path) -> Option<RunRecord> {
    let (name, seed, seconds) = (o.workload, o.seed, o.seconds);
    let w = Workload::new(name, seed, o.scale())?;
    let start = Instant::now();
    let mut spans = Spans::new();
    let mut reps = Vec::new();
    let mut replays = Vec::new();
    // Runner, replay, runner, ...: ending on the runner, so that neither
    // side is always the one that finds the heap warm.
    loop {
        reps.push(w.run_rep());
        if !replays.is_empty() && start.elapsed().as_secs_f64() >= 0.4 * seconds {
            break;
        }
        replays.push(timed(|| replay(&w, &mut spans)));
    }
    let p = probes(
        name,
        seed,
        if o.smoke { Scale::Smoke } else { Scale::Probe },
    )?;
    let n_timings = 50.0;
    // Five passes for a median with quartiles; a smoke run only has to
    // show that every timing can be taken.
    let passes = if o.smoke { 2 } else { 5 };
    let pass_s = (0.25 * seconds / (n_timings * (passes as f64 + 2.0))).clamp(2e-4, 2e-2);
    let timings = layers::all(
        Budget {
            pass: Duration::from_secs_f64(pass_s),
            passes,
        },
        out_dir,
    );

    let first = &reps[0];
    let (_, replayed) = &replays[0];
    let flows = w.flows();
    let count = |name: &str| first.counter(name) as f64;
    let walls = Samples(reps.iter().map(|r| r.wall_s).collect());
    let roots = spans.roots();
    let stage = |name: &str| {
        Samples(
            roots
                .iter()
                .map(|&r| spans.total_s(spans.all()[r].rep, name))
                .collect(),
        )
    };

    let mut values: HashMap<String, Samples> = [
        (
            "incomplete_flow_frac",
            Samples::one(first.incomplete_flows(flows) as f64 / flows as f64),
        ),
        (
            "net.events_per_delivered_pkt",
            Samples::one(count("engine.events") / count("engine.delivered_pkts")),
        ),
        (
            "net.ns_per_event",
            walls.map(|s| s * 1e9 / count("engine.events")),
        ),
        ("net.queue_drops", Samples::one(count("engine.queue_drops"))),
        (
            "net.ecn_marked_pkts",
            Samples::one(count("net.ecn_marked_pkts")),
        ),
        ("net.shard_speedup_w2", Samples::one(p.speedup_w2)),
        ("net.shard_busy_frac", Samples::one(p.busy_frac)),
        (
            "net.shard_vol_ctx_switches",
            Samples::one(p.vol_ctx_switches as f64),
        ),
        (
            "net.register_rss_mb",
            Samples::one(replayed.register_rss_mb),
        ),
        (
            "core.flowlet_new_per_pkt",
            Samples::one(count("dataplane.flowlet_new") / count("engine.delivered_pkts")),
        ),
        (
            "transport.retx_frac",
            Samples::one(count("transport.bytes_retx") / count("transport.rx_bytes")),
        ),
        (
            "transport.rto_timeouts",
            Samples::one(count("transport.rto_timeouts")),
        ),
        (
            "transport.fast_retx",
            Samples::one(count("transport.fast_retx")),
        ),
        (
            "transport.rx_ooo_segments",
            Samples::one(count("transport.rx_ooo_segments")),
        ),
        (
            "telemetry.series_on_wall_ratio",
            Samples::one(p.series_on_ratio),
        ),
        ("trace.ring_on_wall_ratio", Samples::one(p.ring_on_ratio)),
        ("span.setup_topology_s", stage("setup_topology")),
        ("span.setup_arrivals_s", stage("setup_arrivals")),
        ("span.setup_register_s", stage("setup_register")),
        ("span.simulate_s", stage("simulate")),
        ("span.drain_s", stage("drain")),
        ("span.summarize_s", stage("summarize")),
        ("span.export_s", stage("export")),
        (
            "span.unattributed_s",
            Samples(roots.iter().map(|&r| spans.self_s(r)).collect()),
        ),
        (
            // Each replay against the mean of the runner repetitions just
            // before and after it, which cancels a drifting host.
            "span.trace_overhead_frac",
            Samples(
                replays
                    .iter()
                    .zip(reps.windows(2))
                    .map(|((traced_s, _), around)| {
                        traced_s / ((around[0].wall_s + around[1].wall_s) / 2.0) - 1.0
                    })
                    .collect(),
            ),
        ),
    ]
    .into_iter()
    .map(|(name, s)| (name.to_string(), s))
    .collect();
    values.extend(timings);
    // Report in table order; a metric the run did not produce is a bug
    // the `every_metric_reported` check names.
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .filter_map(|m| Some(metric(m.0, values.remove(m.0)?)))
        .collect();

    let mut checks = rep_checks(&w, &reps, replayed.expected_measured_flows);
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .filter(|n| !metrics.iter().any(|m| m.name == *n && m.samples.n() > 0))
        .collect();
    let not_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.samples.median().is_finite())
        .map(|m| m.name.as_str())
        .collect();
    checks.extend([
        check(
            "replay_matches_runner",
            replays.iter().all(|(_, r)| r.report == first.report)
                && replayed.sim_fct_norm_optimal.to_bits() == first.sim_fct_norm_optimal.to_bits(),
            || "the staged replay and the runner rendered different results".to_string(),
        ),
        check("workers_1_equals_2", p.workers_agree, || {
            "one worker and two simulated different runs".to_string()
        }),
        check("every_metric_reported", missing.is_empty(), || {
            format!("missing: {}", missing.join(", "))
        }),
        check("every_metric_finite", not_finite.is_empty(), || {
            format!("not finite: {}", not_finite.join(", "))
        }),
    ]);

    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("spans.{name}.seed{seed}.jsonl")),
            spans.to_jsonl(),
        )
    }) {
        eprintln!(
            "congabench: cannot write spans under {}: {e}",
            out_dir.display()
        );
    }
    Some(record(o, &w, true, &reps, metrics, checks))
}
