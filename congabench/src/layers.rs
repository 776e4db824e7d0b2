//! Each layer in isolation: calibrated timings of the public functions a
//! packet, a flow or a cell passes through, taken from outside.
//!
//! One function per crate, in dependency order. Every timing is the
//! per-operation cost in the unit its name ends in; every pass's sample
//! is kept (median and quartiles are reported, never best-of-N). None of
//! these depends on the workload or the seed — they are the fixed prices
//! the per-workload counts (`net.events_per_delivered_pkt`,
//! `core.flowlet_new_per_pkt`, ...) multiply.

use std::path::Path;
use std::time::Duration;

use conga_analysis::fct::{summarize, FctSample};
use conga_analysis::sketch::{FctAccumulator, FctSketch};
use conga_core::{CongaParams, Dre, FabricPolicy, FlowletTable, GapMode, Lookup};
use conga_experiments::runner::merged_arrivals;
use conga_experiments::{
    build_testbed, fct_scenario, run_cells, FctRun, FleetCell, FleetOpts, Scheme, TestbedOpts,
};
use conga_fleet::{CellResult, ResultCache};
use conga_net::{
    flow_tuple_hash, inject, ChannelId, Dataplane, HostId, LeafId, Network, Overlay, Packet,
    SackBlocks, SinkAgent, TxPort,
};
use conga_sim::{EventQueue, QueueKind, SimDuration, SimRng, SimTime};
use conga_telemetry::{MetricsRegistry, RunReport, SeriesRegistry};
use conga_trace::{TraceConfig, TraceEvent, TraceHandle};
use conga_transport::{
    CcKind, FlowSpec, Segment, TcpConfig, TcpRx, TcpTx, TransportKind, TransportLayer,
};
use conga_workloads::{FlowSizeDist, PoissonPlan};

use crate::measure::{black_box, measure, measure_n, Samples};
use crate::replay::{incast_windowed, replay_incast_cell};
use crate::report::unit_of;
use crate::spans::Spans;
use crate::workloads::IncastCell;

/// How long and how often to time each operation.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Minimum length of one calibrated pass.
    pub pass: Duration,
    /// Passes per operation (≥ 5 for a reported median).
    pub passes: usize,
}

/// One per-layer timing: metric name and every pass's sample, in the unit
/// the metric table gives the name.
pub type Timing = (String, Samples);

/// Collects timings under the budget.
struct Bench {
    budget: Budget,
    out: Vec<Timing>,
}

impl Bench {
    /// Time `f`, which performs `per` operations a call; report the cost of
    /// one operation in the metric's unit.
    fn time(&mut self, name: &str, per: f64, f: impl FnMut()) {
        let unit_ns = match unit_of(name) {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            other => unreachable!("{name}: a timing in {other}"),
        };
        let s = measure(self.budget.pass, self.budget.passes, f);
        self.out
            .push((name.to_string(), s.map(|ns| ns / per / unit_ns)));
    }
}

/// Time every layer. `scratch` is a directory inside the benchmark's own
/// tree for the cache-I/O timings.
pub fn all(budget: Budget, scratch: &Path) -> Vec<Timing> {
    let mut b = Bench {
        budget,
        out: Vec::new(),
    };
    sim(&mut b);
    net(&mut b);
    core(&mut b);
    transport(&mut b);
    workloads(&mut b);
    analysis(&mut b);
    telemetry(&mut b);
    trace(&mut b);
    fleet(&mut b, scratch);
    b.out
}

fn kind_name(kind: QueueKind) -> &'static str {
    match kind {
        QueueKind::Heap => "heap",
        QueueKind::Calendar => "calendar",
    }
}

/// `conga-sim`: the future-event list, both implementations, in the two
/// regimes that separate them.
fn sim(b: &mut Bench) {
    for kind in [QueueKind::Calendar, QueueKind::Heap] {
        // Hot rotation: 1024 resident events, pop one, push one 100 ns
        // past the tail — the steady state of a loaded fabric.
        let mut q: EventQueue<u64> = EventQueue::with_kind(kind, 1 << 12);
        for i in 0..1024u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        let mut t = 1024 * 100;
        b.time(
            &format!("sim.queue_hot_ns.{}", kind_name(kind)),
            1.0,
            || {
                let (at, e) = q.pop().expect("non-empty");
                t += 100;
                q.push(SimTime::from_nanos(t), black_box(e));
                black_box(at);
            },
        );
        // Churn: bursts of 64 events spread over 6 ms — past the calendar
        // queue's ~4 ms year, like RTO timers — drained to empty.
        let mut q: EventQueue<u64> = EventQueue::with_kind(kind, 1 << 12);
        let mut t = 0u64;
        b.time(
            &format!("sim.queue_churn_ns.{}", kind_name(kind)),
            64.0,
            || {
                for i in 0..64u64 {
                    q.push(SimTime::from_nanos(t + 1 + i * 97_000), i);
                }
                while let Some((at, e)) = q.pop() {
                    t = at.as_nanos();
                    black_box(e);
                }
            },
        );
    }
}

/// The paper testbed's fabric, its FIB, and leaf 0's four uplink
/// candidates toward leaf 1.
fn testbed() -> (conga_net::Topology, conga_net::Fib, Vec<ChannelId>) {
    let topo = build_testbed(TestbedOpts::paper_baseline());
    let fib = topo.fib();
    let cands = fib.up_candidates[0][1].clone();
    (topo, fib, cands)
}

fn data_pkt(flow: u32) -> Packet {
    Packet::data(
        flow,
        0,
        flow_tuple_hash(flow, 0),
        HostId(flow % 32),
        HostId(32 + flow % 32),
        0,
        1460,
        SimTime::ZERO,
    )
}

/// `conga-net`: one port cycle, raw forwarding through the engine, and
/// the windowed schedule against the monolithic loop.
fn net(b: &mut Bench) {
    let mut port = TxPort::new(10_000_000_000, SimDuration::from_nanos(500), 1 << 20);
    let mut t = 0u64;
    b.time("net.port_cycle_ns", 1.0, || {
        t += 1300;
        let now = SimTime::from_nanos(t);
        black_box(port.enqueue(data_pkt(1), now));
        black_box(port.begin_tx(now));
        black_box(port.tx_done());
    });

    for (name, policy) in [
        ("ecmp", FabricPolicy::ecmp()),
        ("conga", FabricPolicy::conga()),
    ] {
        let topo = build_testbed(TestbedOpts::paper_baseline());
        let mut net = Network::new(topo, policy, SinkAgent::default(), 1);
        let mut f = 0u32;
        b.time(&format!("net.forward_ns_per_pkt.{name}"), 100.0, || {
            for _ in 0..100 {
                f = f.wrapping_add(1);
                let mut pkt = data_pkt(f);
                pkt.ts_echo = net.now();
                inject(&mut net, pkt);
            }
            // A millisecond drains the burst (120 us of NIC time) and
            // keeps the clock finite: `run_to_quiescence` would park
            // it at the end of time and the next burst would wrap.
            net.run_until(net.now() + SimDuration::from_millis(1));
            net.agent.received.clear();
        });
        assert_eq!(
            net.stats.delivered_pkts, net.stats.injected_pkts,
            "a forwarding burst did not drain within its millisecond"
        );
    }

    // One incast cell (32 senders, CONGA, 1 ms minRTO) through the
    // monolithic `Network` and through a one-worker `ShardedRun`: the
    // per-event price of the windowed schedule every FCT cell pays. The
    // two decompose their RNG differently, so their event counts differ
    // slightly; the ratio is of wall-clock per event.
    let cell = IncastCell {
        scheme: Scheme::Conga,
        fanout: 32,
        min_rto_ms: 1,
        seed: 1,
    };
    let mut events = (0, 0);
    let mono = measure_n(1, b.budget.passes, || {
        events.0 = replay_incast_cell(&cell, false, &mut Spans::new()).events;
    });
    let windowed = measure_n(1, b.budget.passes, || {
        events.1 = incast_windowed(&cell, 1);
    });
    let ratio =
        (windowed.median() / events.1.max(1) as f64) / (mono.median() / events.0.max(1) as f64);
    b.out.push((
        "net.windowed_over_monolithic".to_string(),
        Samples::one(ratio),
    ));
}

/// `conga-core`: the leaf-ingress decision of every installed policy
/// (four candidates, 256 interleaved flows, one packet per 100 ns), and
/// CONGA's other per-packet hooks and primitives.
fn core(b: &mut Bench) {
    let (topo, fib, cands) = testbed();
    let hashes: Vec<u64> = (0..256).map(|f| flow_tuple_hash(f, 0)).collect();
    for scheme in Scheme::TOURNAMENT {
        let mut p = scheme.policy();
        p.install(&topo, &fib);
        let mut rng = SimRng::new(7);
        let mut pkt = data_pkt(0);
        let mut i = 0u64;
        b.time(
            &format!("core.leaf_ingress_ns.{}", scheme.key()),
            1.0,
            || {
                i += 1;
                pkt.flow = (i % 256) as u32;
                pkt.flow_hash = hashes[(i % 256) as usize];
                pkt.overlay = Some(Overlay::new(LeafId(0), LeafId(1)));
                let now = SimTime::from_nanos(i * 100);
                black_box(p.leaf_ingress(LeafId(0), &mut pkt, &cands, now, &mut rng));
            },
        );
    }

    let mut p = FabricPolicy::conga();
    p.install(&topo, &fib);
    let mut pkt = data_pkt(0);
    pkt.overlay = Some(Overlay::new(LeafId(0), LeafId(1)));
    let mut i = 0u64;
    b.time("core.on_fabric_tx_ns.conga", 1.0, || {
        i += 1;
        let now = SimTime::from_nanos(i * 300);
        p.on_fabric_tx(cands[(i % 4) as usize], black_box(&mut pkt), now);
    });
    b.time("core.leaf_egress_ns.conga", 1.0, || {
        i += 1;
        if let Some(o) = pkt.overlay.as_mut() {
            o.lbtag = (i % 4) as u8;
            o.ce = (i % 8) as u8;
        }
        p.leaf_egress(LeafId(1), black_box(&pkt), SimTime::from_nanos(i * 300));
    });

    let mut dre = Dre::new(40_000_000_000, SimDuration::from_micros(16), 0.1);
    let mut t = 0u64;
    b.time("core.dre_on_send_ns", 1.0, || {
        t += 300;
        dre.on_send(black_box(1560), SimTime::from_nanos(t));
        black_box(&mut dre);
    });

    let params = CongaParams::paper_default();
    let mut table = FlowletTable::new(params.flowlet_entries, params.tfl, GapMode::AgeBit);
    table.commit(42, ChannelId(1), SimTime::ZERO);
    let mut now = 0u64;
    b.time("core.flowlet_lookup_hit_ns", 1.0, || {
        now += 100;
        black_box(table.lookup(black_box(42), SimTime::from_nanos(now)));
    });
    let mut f = 0u64;
    b.time("core.flowlet_lookup_new_ns", 1.0, || {
        now += 100;
        f = f.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let at = SimTime::from_nanos(now);
        if let Lookup::NewFlowlet { .. } = table.lookup(black_box(f), at) {
            table.commit(f, ChannelId((f % 4) as u32), at);
        }
    });
}

/// `conga-transport`: an ACK-clocked sender per controller, the receiver
/// in and out of order, and flow registration.
fn transport(b: &mut Bench) {
    for cc in CcKind::ALL {
        // A window's worth of segments in flight; every call ACKs the
        // oldest and sends what that releases.
        let mut tx = TcpTx::new(TcpConfig::standard().with_cc(cc), u64::MAX / 2);
        let mut out: Vec<Segment> = Vec::new();
        let mut in_flight = std::collections::VecDeque::new();
        tx.pump(&mut out);
        in_flight.extend(out.drain(..));
        let mut now = 100_000u64;
        let sack = SackBlocks::default();
        b.time(
            &format!("transport.ack_cycle_ns.{}", cc.name()),
            1.0,
            || {
                now += 1_200;
                let Some(seg) = in_flight.pop_front() else {
                    // A controller that closed its window entirely: wait
                    // (in simulated time) for it to reopen.
                    tx.pump(&mut out);
                    in_flight.extend(out.drain(..));
                    return;
                };
                tx.on_ack(
                    seg.seq + seg.len as u64,
                    SimTime::from_nanos(now - 100_000),
                    SimTime::from_nanos(now),
                    None,
                    &sack,
                    false,
                    &mut out,
                );
                tx.pump(&mut out);
                in_flight.extend(out.drain(..));
            },
        );
    }

    let mut rx = TcpRx::default();
    let mut seq = 0u64;
    b.time("transport.rx_in_order_ns", 1.0, || {
        black_box(rx.on_data(seq, 1460));
        seq += 1460;
    });
    // Adjacent segments swapped pairwise: every other one arrives early.
    let mut rx = TcpRx::default();
    let mut seq = 0u64;
    b.time("transport.rx_reorder_ns", 2.0, || {
        black_box(rx.on_data(seq + 1460, 1460));
        black_box(rx.on_data(seq, 1460));
        seq += 2920;
    });

    let spec = FlowSpec {
        src: HostId(0),
        dst: HostId(40),
        bytes: 10_000,
        kind: TransportKind::Tcp(TcpConfig::standard()),
    };
    b.time("transport.preregister_ns_per_flow", 10_000.0, || {
        let mut layer = TransportLayer::new();
        for i in 0..10_000u64 {
            layer.preregister(spec, SimTime::from_nanos(i), i % 2 == 0);
        }
        black_box(layer.flow_count());
    });
}

/// `conga-workloads`: arrival planning and size sampling.
fn workloads(b: &mut Bench) {
    let dist = FlowSizeDist::enterprise();
    let (topo, _, _) = testbed();
    let a = topo.hosts_under(LeafId(0));
    let bb = topo.hosts_under(LeafId(1));
    let mut rng = SimRng::new(3);
    b.time("workloads.plan_ns_per_flow", 10_000.0, || {
        let plan = PoissonPlan::generate(&dist, 32, 32, 160_000_000_000, 0.6, 5_000, &mut rng);
        let kind = TransportKind::Tcp(TcpConfig::standard());
        black_box(merged_arrivals(&plan, &a, &bb, |_| kind));
    });
    b.time("workloads.dist_sample_ns", 1.0, || {
        black_box(dist.sample(&mut rng));
    });
}

/// `conga-analysis`: the exact summary over `testbed_mice`'s sample count
/// and the streaming pair that replaces it.
fn analysis(b: &mut Bench) {
    let mut rng = SimRng::new(5);
    let samples: Vec<FctSample> = (0..140_000)
        .map(|_| {
            let ideal_s = 10e-6 + rng.f64() * 1e-3;
            FctSample {
                bytes: 1_000 + rng.below(29_000) as u64,
                fct_s: ideal_s * (1.0 + rng.f64() * 4.0),
                ideal_s,
            }
        })
        .collect();
    b.time(
        "analysis.summarize_ns_per_sample",
        samples.len() as f64,
        || {
            black_box(summarize(black_box(&samples), 0));
        },
    );
    let mut sk = FctSketch::new();
    let mut acc = FctAccumulator::new();
    let mut i = 0usize;
    b.time("analysis.sketch_add_ns", 1.0, || {
        i = (i + 1) % samples.len();
        sk.add(samples[i].fct_s);
        black_box(&mut sk);
    });
    b.time("analysis.acc_add_ns", 1.0, || {
        i = (i + 1) % samples.len();
        let s = &samples[i];
        acc.add(s.bytes, (s.fct_s * 1e9) as u64, s.ideal_s);
        black_box(&mut acc);
    });
    let mut other = FctSketch::new();
    for s in &samples {
        other.add(s.fct_s * 1.37);
    }
    b.time("analysis.sketch_merge_us", 1.0, || {
        let mut m = FctSketch::new();
        m.merge(&sk);
        m.merge(&other);
        black_box(m.count());
    });
    b.time("analysis.sketch_quantile_us", 1.0, || {
        black_box(sk.quantile(black_box(0.99)));
    });
}

/// `conga-telemetry`: counter export and report rendering of a finished
/// testbed network, and the windowed series (8 series, 512 buckets each).
fn telemetry(b: &mut Bench) {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline(),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.5,
    );
    cfg.n_flows = 20;
    let out = conga_experiments::run_fct(&cfg);
    let topo = build_testbed(cfg.topo);
    let net = Network::new(topo, cfg.scheme.policy(), TransportLayer::new(), 1);
    b.time("telemetry.export_metrics_us", 1.0, || {
        let mut reg = MetricsRegistry::new();
        net.export_metrics(&mut reg);
        black_box(reg.is_empty());
    });
    let report: &RunReport = &out.report;
    b.time("telemetry.report_to_json_us", 1.0, || {
        black_box(report.to_json().len());
    });

    let names: Vec<String> = (0..8).map(|i| format!("port.{i:04}.util")).collect();
    let mut series = SeriesRegistry::new(SimDuration::from_millis(10));
    let mut i = 0u64;
    b.time("telemetry.series_record_ns", 1.0, || {
        i += 1;
        // Eight gauges per 10 ms window, as a sampling tick records them.
        let now = SimTime::from_nanos(i / 8 * 10_000_000);
        series.record(&names[(i % 8) as usize], now, (i % 97) as f64);
    });
    b.time("telemetry.series_to_jsonl_us", 1.0, || {
        black_box(series.to_jsonl().len());
    });
}

/// `conga-trace`: the emission guard when tracing is off, the recorder in
/// both modes, and the JSONL exporter.
fn trace(b: &mut Bench) {
    let event = |i: u64| TraceEvent::PacketEnqueue {
        ch: (i % 64) as u32,
        pkt: i,
        flow: (i % 256) as u32,
        size: 1560,
    };
    let mut i = 0u64;
    let off = TraceHandle::disabled();
    b.time("trace.emit_ns.disabled", 1.0, || {
        i += 1;
        off.emit(SimTime::from_nanos(i), black_box(event(i)));
    });
    let ring = TraceHandle::recording(TraceConfig::all().with_ring(65_536));
    b.time("trace.emit_ns.ring", 1.0, || {
        i += 1;
        ring.emit(SimTime::from_nanos(i), black_box(event(i)));
    });
    // Unbounded, but started afresh every 65,536 events so the timing
    // loop's memory stays bounded (the turnover is under 1 ns an event).
    let mut all = TraceHandle::recording(TraceConfig::all());
    b.time("trace.emit_ns.unbounded", 1.0, || {
        i += 1;
        if i.is_multiple_of(65_536) {
            all = TraceHandle::recording(TraceConfig::all());
        }
        all.emit(SimTime::from_nanos(i), black_box(event(i)));
    });
    let held = ring.len().max(1) as f64;
    b.time("trace.export_jsonl_ns_per_event", held, || {
        black_box(ring.export_jsonl().map(|s| s.len()));
    });
}

/// `conga-fleet`, reached through `conga-experiments`: what a warm re-run
/// of a figure costs per cell. The benchmark's own cells bypass the cache.
fn fleet(b: &mut Bench, scratch: &Path) {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline(),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.5,
    );
    cfg.n_flows = 20;
    let scenario = |label: &str| fct_scenario("congabench", label, &cfg, false);
    b.time("fleet.scenario_hash_us", 1.0, || {
        black_box(scenario("cell").content_hash());
    });

    let out = conga_experiments::run_fct(&cfg);
    let result = CellResult {
        summary: out.summary,
        report_json: out.report.to_json(),
        ..CellResult::default()
    };
    let cache = ResultCache::at(scratch.join("cache"));
    let labels: Vec<String> = (0..8).map(|i| format!("cell{i}")).collect();
    for l in &labels {
        if let Err(e) = cache.store(&scenario(l).content_hash(), &result) {
            eprintln!(
                "congabench: cache store failed in {}: {e}",
                scratch.display()
            );
        }
    }
    let hash = scenario("cell0").content_hash();
    b.time("fleet.cache_store_us", 1.0, || {
        black_box(cache.store(&hash, &result).is_ok());
    });
    b.time("fleet.cache_lookup_us", 1.0, || {
        black_box(cache.lookup(&hash).is_some());
    });

    // Eight cells, all hits: `run_cells` logs a line per hit, so the pass
    // is a single batch instead of a calibrated loop.
    let opts = FleetOpts {
        jobs: 1,
        cache: cache.clone(),
    };
    let warm = measure_n(1, b.budget.passes, || {
        let cells = labels
            .iter()
            .map(|l| FleetCell {
                scenario: scenario(l),
                run: Box::new(|| -> CellResult { unreachable!("every cell is cached") }),
            })
            .collect();
        black_box(run_cells(cells, &opts).len());
    });
    conga_fleet::manifest::drain();
    b.out
        .push(("fleet.warm_pass_ms".to_string(), warm.map(|ns| ns / 1e6)));
}
