//! Property-style tests spanning the workspace: random fabrics, random
//! traffic, invariants that must hold regardless. Cases are sampled from
//! the in-tree deterministic RNG with fixed seeds, so every run explores
//! the same inputs.

use conga::core::FabricPolicy;
use conga::net::{HostId, LeafSpineBuilder, Network, QueueProfile};
use conga::sim::{SimDuration, SimRng, SimTime};
use conga::telemetry::MetricsRegistry;
use conga::transport::{FlowSpec, TcpConfig, TransportKind, TransportLayer};

/// Any random small fabric + random TCP flows: every flow completes and
/// delivers exactly its bytes (conservation), under CONGA and ECMP.
#[test]
fn random_fabric_conserves_bytes() {
    let mut rng = SimRng::new(0xFAB_21C5);
    for case in 0..12 {
        let leaves = rng.range_u64(2, 4) as u32;
        let spines = rng.range_u64(1, 4) as u32;
        let hosts = rng.range_u64(2, 6) as u32;
        let parallel = rng.range_u64(1, 3) as u32;
        let seed = rng.below(1000) as u64;
        let nflows = rng.range_u64(1, 8) as usize;
        let flows: Vec<(u32, u32, u64)> = (0..nflows)
            .map(|_| {
                (
                    rng.below(100) as u32,
                    rng.below(100) as u32,
                    rng.range_u64(1_000, 400_000),
                )
            })
            .collect();
        let use_conga = rng.chance(0.5);
        let topo = LeafSpineBuilder::new(leaves, spines, hosts)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(parallel)
            .build();
        let n = topo.n_hosts;
        let policy = if use_conga {
            FabricPolicy::conga()
        } else {
            FabricPolicy::ecmp()
        };
        let mut net = Network::new(topo, policy, TransportLayer::new(), seed);
        let specs: Vec<FlowSpec> = flows
            .iter()
            .map(|&(s, d, bytes)| {
                let src = HostId(s % n);
                let mut dst = HostId(d % n);
                if dst == src {
                    dst = HostId((d + 1) % n);
                }
                FlowSpec {
                    src,
                    dst,
                    bytes,
                    kind: TransportKind::Tcp(TcpConfig::standard()),
                }
            })
            .collect();
        net.agent_call(|a, now, em| {
            for &spec in &specs {
                a.start_flow(spec, now, em);
            }
        });
        net.run_until(SimTime::from_secs(3));
        for (i, spec) in specs.iter().enumerate() {
            assert!(
                net.agent.records[i].rx_done.is_some(),
                "case {case}: flow {i} incomplete"
            );
            assert_eq!(net.agent.rx_bytes(i), spec.bytes);
            // FCT is never faster than line-rate serialization.
            let fct = net.agent.records[i].fct().unwrap().as_secs_f64();
            assert!(fct >= spec.bytes as f64 * 8.0 / 10e9);
        }
    }
}

/// With brutal queues and a failed link, TCP still delivers everything
/// (loss recovery terminates) and never delivers bytes it wasn't sent.
/// The telemetry export must agree with the engine about drops: the
/// `engine.queue_drops` counter and the per-port `port.NNNN.drops`
/// counters both sum to `Network::total_drops()`.
#[test]
fn lossy_fabric_drop_accounting_is_consistent() {
    let mut rng = SimRng::new(0x1055_ACC7);
    for case in 0..12 {
        let seed = rng.below(500) as u64;
        let q = rng.range_u64(20_000, 80_000);
        let nflows = rng.range_u64(2, 6) as usize;
        let topo = LeafSpineBuilder::new(2, 2, 4)
            .parallel_links(2)
            .fail_link(0, 1, 1)
            .queue_profile(QueueProfile {
                access_bytes: q,
                fabric_bytes: q,
                host_nic_bytes: 4 << 20,
            })
            .build();
        let mut net = Network::new(topo, FabricPolicy::conga(), TransportLayer::new(), seed);
        let tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(2));
        net.agent_call(|a, now, em| {
            for i in 0..nflows {
                a.start_flow(
                    FlowSpec {
                        src: HostId(i as u32 % 4),
                        dst: HostId(4 + (i as u32 % 4)),
                        bytes: 200_000,
                        kind: TransportKind::Tcp(tcp),
                    },
                    now,
                    em,
                );
            }
        });
        net.run_until(SimTime::from_secs(3));
        for i in 0..nflows {
            assert!(
                net.agent.records[i].rx_done.is_some(),
                "case {case}: flow {i} stuck"
            );
            assert_eq!(net.agent.rx_bytes(i), 200_000);
        }
        // Telemetry agrees with the engine's own drop accounting.
        let mut reg = MetricsRegistry::new();
        net.export_metrics(&mut reg);
        let per_port_drops: u64 = reg
            .counters()
            .filter(|(k, _)| k.starts_with("port.") && k.ends_with(".drops"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(per_port_drops, net.total_drops(), "case {case} (q={q})");
        assert_eq!(reg.counter("engine.queue_drops"), net.total_drops());
    }
}

/// The engine never reorders packets of a single flow when the policy
/// pins flows to paths (ECMP): receiver sees zero out-of-order segments
/// on a clean network.
#[test]
fn single_path_flows_never_reorder() {
    let mut rng = SimRng::new(0x0001_F10C);
    for _case in 0..16 {
        let seed = rng.below(500) as u64;
        let bytes = rng.range_u64(10_000, 2_000_000);
        let topo = LeafSpineBuilder::new(2, 2, 4).parallel_links(2).build();
        let mut net = Network::new(topo, FabricPolicy::ecmp(), TransportLayer::new(), seed);
        net.agent_call(|a, now, em| {
            a.start_flow(
                FlowSpec {
                    src: HostId(0),
                    dst: HostId(5),
                    bytes,
                    kind: TransportKind::Tcp(TcpConfig::standard()),
                },
                now,
                em,
            );
        });
        net.run_until(SimTime::from_secs(2));
        assert!(net.agent.records[0].rx_done.is_some());
        assert_eq!(net.agent.records[0].retx_bytes, 0, "clean single flow");
    }
}

/// The Price-of-Anarchy bound holds on arbitrary random games.
#[test]
fn poa_never_exceeds_two() {
    use conga::analysis::poa::{BottleneckGame, User};
    let mut meta = SimRng::new(0x90A_0F02);
    for _case in 0..32 {
        let seed = meta.below(10_000) as u64;
        let mut rng = SimRng::new(seed);
        let nl = 2 + rng.below(3);
        let ns = 2 + rng.below(3);
        let mut users = Vec::new();
        for _ in 0..(1 + rng.below(5)) {
            let src = rng.below(nl);
            let mut dst = rng.below(nl);
            while dst == src {
                dst = rng.below(nl);
            }
            users.push(User {
                src,
                dst,
                demand: 0.2 + rng.f64(),
            });
        }
        let g = BottleneckGame::symmetric(nl, ns, 1.0, users);
        let (x, _) = g.nash(g.concentrated(|i| i % ns), 300, 1e-9);
        let nash = g.network_bottleneck(&x);
        let (opt, _) = g.min_max_utilization(2500, &mut rng);
        assert!(nash <= 2.0 * opt + 1e-6, "PoA violated: {nash} vs {opt}");
    }
}

/// The conservative-window bound that schedules every sharded run, hammered
/// over 1000 seeded rounds of random `(min_pending, lookahead, horizon)`
/// triples. Invariants:
///
/// * a window exists iff something is pending inside the horizon;
/// * progress — the window always covers the minimum pending event;
/// * safety — the window never extends further than `lookahead` past the
///   minimum pending event (beyond the 1 ns progress floor), so no
///   cross-shard arrival can land inside a window already executing;
/// * the horizon is inclusive but never exceeded by more than its
///   exclusive-bound nanosecond.
#[test]
fn conservative_window_bound_invariants() {
    use conga::sim::conservative_window;
    let mut rng = SimRng::new(0xC025_E27A);
    for case in 0..1000 {
        let min_pending = rng
            .chance(0.9)
            .then(|| SimTime::from_nanos(rng.below(1_000_000) as u64));
        let lookahead = rng
            .chance(0.8)
            .then(|| SimDuration::from_nanos(rng.below(10_000) as u64));
        let t_end = SimTime::from_nanos(rng.below(1_000_000) as u64);
        match conservative_window(min_pending, lookahead, t_end) {
            None => {
                let skippable = match min_pending {
                    None => true,
                    Some(m) => m > t_end,
                };
                assert!(skippable, "case {case}: window withheld with work pending");
            }
            Some(w) => {
                let m = min_pending.expect("a window implies pending work");
                assert!(m <= t_end, "case {case}: window admitted beyond horizon");
                assert!(w > m, "case {case}: no progress");
                let progress_floor = m.as_nanos() + 1;
                if let Some(l) = lookahead {
                    assert!(
                        w.as_nanos() <= (m.as_nanos() + l.as_nanos()).max(progress_floor),
                        "case {case}: window outruns the lookahead bound"
                    );
                }
                assert!(
                    w.as_nanos() <= (t_end.as_nanos() + 1).max(progress_floor),
                    "case {case}: window outruns the slice horizon"
                );
                // Determinism: the bound is a pure function of its inputs.
                assert_eq!(
                    conservative_window(min_pending, lookahead, t_end),
                    Some(w),
                    "case {case}: bound not reproducible"
                );
            }
        }
    }
}

/// Within every shard, the recorded event stream is strictly ordered by
/// `(time, seq)` — the barrier hands each domain contiguous conservative
/// windows, so a domain must never observe time running backwards.
#[test]
fn per_shard_event_streams_are_time_ordered() {
    use conga::experiments::{build_testbed, ShardedRun, TestbedOpts};
    use conga::net::LeafId;
    use conga::sim::QueueKind;
    use conga::trace::TraceConfig;

    let topo = build_testbed(TestbedOpts::paper_baseline().quick());
    let a = topo.hosts_under(LeafId(0));
    let b = topo.hosts_under(LeafId(1));
    let mut arrivals = Vec::new();
    for i in 0..12u64 {
        let (src, dst) = if i % 2 == 0 {
            (a[i as usize % a.len()], b[(i as usize + 1) % b.len()])
        } else {
            (b[i as usize % b.len()], a[(i as usize + 2) % a.len()])
        };
        arrivals.push((
            SimTime::from_micros(5 * i),
            FlowSpec {
                src,
                dst,
                bytes: 40_000 + 9_000 * i,
                kind: TransportKind::Tcp(TcpConfig::standard()),
            },
        ));
    }
    let trace = TraceConfig::all();
    let mut run = ShardedRun::new(
        &topo,
        FabricPolicy::conga(),
        42,
        2,
        QueueKind::Calendar,
        None,
        Some(&trace),
        &[],
        &[],
        &arrivals,
    );
    run.net.run_until(SimTime::from_secs(2));
    assert_eq!(run.completed_rx(), arrivals.len(), "cell did not finish");

    for (d, part) in run.trace_parts().iter().enumerate() {
        let recs = part.records();
        assert!(!recs.is_empty(), "shard {d} recorded nothing");
        for w in recs.windows(2) {
            assert!(
                (w[0].t, w[0].seq) < (w[1].t, w[1].seq),
                "shard {d}: events out of (time, seq) order"
            );
        }
    }
    // And the merged stream is globally time-ordered with dense seqs.
    let merged = run.merged_trace().expect("tracing was on");
    let recs = merged.records();
    for (i, w) in recs.windows(2).enumerate() {
        assert!(w[0].t <= w[1].t, "merged trace out of time order at {i}");
        assert_eq!(w[1].seq, w[0].seq + 1, "merged seqs not dense at {i}");
    }
}

/// Seeded sharded-vs-serial rounds: packet conservation holds across shard
/// boundaries (every injected packet is delivered, queue-dropped,
/// unroutable, or blackholed — nothing is lost in a lane), and the
/// flowlet ledger is identical, so no barrier epoch ever split a flowlet
/// gap decision (a split would surface as extra `flowlet_new` entries).
#[test]
fn sharded_rounds_conserve_packets_and_flowlet_decisions() {
    use conga::experiments::{run_fct_with_policy, FctRun, Scheme, TestbedOpts};
    use conga::workloads::FlowSizeDist;

    let mut rng = SimRng::new(0x5A4D_C049);
    for case in 0..6 {
        let seed = rng.below(10_000) as u64;
        let load = 0.25 + 0.1 * rng.below(4) as f64;
        let mk = |shards: usize| {
            let mut cfg = FctRun::new(
                TestbedOpts::paper_baseline().quick(),
                Scheme::Conga,
                FlowSizeDist::enterprise(),
                load,
            );
            cfg.n_flows = 30;
            cfg.seed = seed;
            cfg.shards = shards;
            cfg
        };
        let sharded = run_fct_with_policy(&mk(2), FabricPolicy::conga());
        let reg = &sharded.report.metrics;
        let injected = reg.counter("engine.injected_pkts");
        assert!(injected > 0, "case {case}: nothing ran");
        assert_eq!(
            injected,
            reg.counter("engine.delivered_pkts")
                + reg.counter("engine.queue_drops")
                + reg.counter("engine.unroutable_pkts")
                + reg.counter("net.blackholed_packets"),
            "case {case}: conservation violated across shard boundaries"
        );
        assert_eq!(
            reg.gauge("engine.inflight_pkts"),
            Some(0),
            "case {case}: packets stuck in a shard lane at quiescence"
        );
        let serial = run_fct_with_policy(&mk(1), FabricPolicy::conga());
        for key in ["dataplane.flowlet_new", "dataplane.flowlet_hits"] {
            assert_eq!(
                reg.counter(key),
                serial.report.metrics.counter(key),
                "case {case}: {key} diverged — a barrier epoch split a flowlet gap"
            );
        }
    }
}

/// Flow-size distributions: sampling respects published CDF points.
#[test]
fn dist_sampling_matches_cdf() {
    use conga::workloads::FlowSizeDist;
    let mut meta = SimRng::new(0xD157_CDF1);
    for _case in 0..32 {
        let seed = meta.below(10_000) as u64;
        let u = 0.05 + 0.90 * meta.f64();
        for d in [
            FlowSizeDist::enterprise(),
            FlowSizeDist::data_mining(),
            FlowSizeDist::web_search(),
        ] {
            let x = d.quantile(u);
            let back = d.cdf(x);
            assert!(
                (back - u).abs() < 0.02,
                "{}: u={} x={} back={}",
                d.name(),
                u,
                x,
                back
            );
            let mut rng = SimRng::new(seed);
            let s = d.sample(&mut rng) as f64;
            assert!(s >= d.quantile(0.0) && s <= d.quantile(1.0));
        }
    }
}
