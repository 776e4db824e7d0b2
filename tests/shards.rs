//! Differential determinism battery for the sharded parallel engine.
//!
//! The engine cuts every run into one domain of contiguous leaves per
//! worker thread and advances the domains in conservative time windows;
//! `--shards N` picks N. The contract pinned here: for any shard count,
//! and so for any partition, the artifacts — RunReport JSON, the FCT
//! summary/sample sidecar values, the series, and the trace JSONL/Chrome
//! exports — are **byte identical** to the single-threaded run, the whole
//! fabric as one domain, and to the monolithic engine. This is the tier-1
//! gate that lets `shards` stay out of every scenario hash.

use conga::core::FabricPolicy;
use conga::experiments::{
    build_testbed, merged_arrivals, run_dynamic_failure, run_fct_with_policy, uniform_arrivals,
    DynFailSpec, FctRun, LinkFaultSpec, Scheme, ShardedRun, TestbedOpts,
};
use conga::net::{
    ChannelId, CoreId, LeafId, Link, Network, NodeId, PartitionTable, SpineId, Topology,
    TopologyBuilder,
};
use conga::sim::{QueueKind, SimDuration, SimRng, SimTime};
use conga::telemetry::{RunReport, SeriesRegistry};
use conga::trace::{TraceConfig, TraceHandle};
use conga::transport::{FlowSpec, ListSource, TcpConfig, TransportKind, TransportLayer};
use conga::workloads::{FlowSizeDist, PoissonPlan};

/// A run's inputs, for the monolithic and the sharded engine alike.
struct Cell {
    topo: Topology,
    policy: FabricPolicy,
    seed: u64,
    starts: Vec<(SimTime, FlowSpec)>,
    faults: Vec<LinkFaultSpec>,
    /// Channels sampled every 10 ms.
    sampled: Vec<ChannelId>,
}

const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(10);
const TRACE_ALL: TraceConfig = TraceConfig {
    flows: None,
    ring: None,
};

impl Cell {
    /// The quick two-tier testbed under `policy`, `n` flows each way at
    /// 50 % load, with leaf 1 – spine 1 failing at 2 ms and recovering at
    /// 6 ms.
    fn two_tier(policy: FabricPolicy, n: usize) -> Cell {
        let topo = build_testbed(TestbedOpts::paper_baseline().quick());
        let (a, b) = (topo.hosts_under(LeafId(0)), topo.hosts_under(LeafId(1)));
        let dist = FlowSizeDist::enterprise();
        let plan = PoissonPlan::generate(&dist, 8, 8, 80_000_000_000, 0.5, n, &mut SimRng::new(3));
        let tcp = TransportKind::Tcp(TcpConfig::standard());
        let link = Link::new(NodeId::Leaf(LeafId(1)), NodeId::Spine(SpineId(1)), 0);
        Cell {
            sampled: topo.fib().leaf_uplinks[0].clone(),
            starts: absolute(merged_arrivals(&plan, &a, &b, |_| tcp)),
            faults: vec![
                LinkFaultSpec::fail(SimTime::from_millis(2), link),
                LinkFaultSpec::recover(SimTime::from_millis(6), link),
            ],
            topo,
            policy,
            seed: 7,
        }
    }

    /// `three_tier(2, 2, 2, 2, 4)` under CONGA, 60 uniform flows, with
    /// spine 0 – core 0 failing at 1 ms and recovering at 4 ms.
    fn three_tier() -> Cell {
        let topo = build_testbed(TestbedOpts::three_tier(2, 2, 2, 2, 4));
        let tcp = TransportKind::Tcp(TcpConfig::standard());
        let dist = FlowSizeDist::enterprise();
        let arrivals = uniform_arrivals(
            &dist,
            &topo,
            80_000_000_000,
            0.4,
            60,
            &mut SimRng::new(4),
            tcp,
        );
        let link = Link::new(NodeId::Spine(SpineId(0)), NodeId::Core(CoreId(0)), 0);
        Cell {
            sampled: topo.fib().leaf_uplinks[0].clone(),
            starts: absolute(arrivals),
            faults: vec![
                LinkFaultSpec::fail(SimTime::from_millis(1), link),
                LinkFaultSpec::recover(SimTime::from_millis(4), link),
            ],
            topo,
            policy: FabricPolicy::conga(),
            seed: 9,
        }
    }

    /// Report JSON, series JSONL and trace JSONL of the cell run on the
    /// monolithic engine, fed the way `congabench`'s replay feeds it.
    fn monolithic(&self) -> [String; 3] {
        let agent = TransportLayer::new();
        let mut net = Network::new(self.topo.clone(), self.policy.clone(), agent, self.seed);
        let tracer = TraceHandle::recording(TRACE_ALL);
        net.set_tracer(tracer.clone());
        for f in &self.faults {
            net.schedule_link(f.at, f.link, f.up);
        }
        let mut prev = SimTime::ZERO;
        let gaps = self.starts.iter().map(|&(t, spec)| {
            let gap = t - prev;
            prev = t;
            (gap, spec)
        });
        net.agent
            .attach_source(Box::new(ListSource::new(gaps.collect())));
        if let Some((delay, token)) = net.agent.begin_source() {
            net.schedule_timer(delay, token);
        }
        net.enable_sampling(self.sampled.clone(), SAMPLE_EVERY);
        while net.agent.completed_rx < self.starts.len() && net.now() < SimTime::from_secs(2) {
            net.run_until(net.now() + SimDuration::from_millis(5));
        }
        let mut report = RunReport::new();
        net.export_metrics(&mut report.metrics);
        let mut series = SeriesRegistry::disabled();
        series.merge_domain(&net.series);
        let trace = TraceHandle::merged(TRACE_ALL, &[tracer]);
        [report.to_json(), series.to_jsonl(), jsonl(trace)]
    }

    /// The same on a `ShardedRun` on `workers`, one leaf-group domain each.
    fn sharded(&self, workers: usize) -> [String; 3] {
        let mut run = ShardedRun::new(
            &self.topo,
            self.policy.clone(),
            self.seed,
            workers,
            QueueKind::Calendar,
            None,
            Some(&TRACE_ALL),
            &self.faults,
            &[],
            &self.starts,
        );
        let owner: Vec<usize> = self.sampled.iter().map(|&c| run.net.tx_domain(c)).collect();
        run.net.each(|d, n| {
            let own = self.sampled.iter().zip(&owner).filter(|&(_, &o)| o == d);
            n.enable_sampling(own.map(|(&c, _)| c).collect(), SAMPLE_EVERY);
        });
        while run.completed_rx() < self.starts.len() && run.net.now() < SimTime::from_secs(2) {
            run.net
                .run_until(run.net.now() + SimDuration::from_millis(5));
        }
        let mut report = RunReport::new();
        run.net.export_metrics(&mut report.metrics);
        let trace = run.merged_trace().expect("tracing was requested");
        [
            report.to_json(),
            run.net.export_series().to_jsonl(),
            jsonl(trace),
        ]
    }

    /// Every run of the cell — monolithic, and sharded on 1 (the whole
    /// fabric), 2 and 3 (leaf groups: on the three-tier cell, pods) and
    /// `n_leaves` (per-leaf) workers, each distinct partition once — and
    /// what each left behind.
    fn assert_partition_free(&self, what: &str) {
        let whole = self.monolithic();
        let transitions = format!("\"net.fault_transitions\": {}", self.transitions());
        assert!(whole[0].contains(&transitions), "{what}: not {transitions}");
        assert!(whole[2].lines().count() > 1000, "{what}: a thin trace");
        let mut counts = [1, 2, 3, self.topo.n_leaves as usize]
            .map(|w| (PartitionTable::new(&self.topo, w).n_domains(), w))
            .to_vec();
        counts.dedup_by_key(|&mut (domains, _)| domains);
        for (_, workers) in counts {
            let got = self.sharded(workers);
            for (i, kind) in ["report", "series", "trace"].iter().enumerate() {
                assert!(
                    got[i] == whole[i],
                    "{what}: the {kind} on {workers} workers is not the monolithic one"
                );
            }
        }
    }

    /// The link-state transitions the fault schedule applies, one per
    /// direction of a link whose state changes (a fail of a link that is
    /// down, or a recovery of one that is up, changes nothing). The
    /// transitions fire in time order, equal times in schedule order.
    fn transitions(&self) -> u64 {
        let mut faults = self.faults.clone();
        faults.sort_by_key(|f| f.at);
        let mut down = Vec::new();
        let mut n = 0;
        for f in faults {
            let was_down = down.contains(&f.link);
            if f.up == was_down {
                n += 2;
                match f.up {
                    true => down.retain(|l| *l != f.link),
                    false => down.push(f.link),
                }
            }
        }
        assert!(n > 0, "a cell without a fault transition");
        n
    }
}

/// The seeded generator of partition cells (ROADMAP item 10): two- and
/// three-tier fabrics with odd leaf counts, one to three parallel links
/// and, in one cell, a derated link; faults at both tiers, one at t = 0,
/// one overlapping it (failed twice), one never recovered, each on its own
/// leaf (or, three-tier, spine) so no switch is cut off; a policy drawn
/// from the zoo; 24 uniform flows of at most 300 KB.
fn generated_cells() -> Vec<(String, Cell)> {
    let mut rng = SimRng::new(0xCE11_5EED);
    let zoo = FabricPolicy::zoo();
    let tcp = TransportKind::Tcp(TcpConfig::standard());
    let ms = |x: u64| SimTime::from_micros(x * 100);
    (0..6u32)
        .map(|i| {
            let three = i % 2 == 1;
            let parallel = 1 + i % 3;
            let odd = [3, 5][rng.below(2)];
            let builder = if three {
                let cores = 2 + rng.below(2) as u32;
                TopologyBuilder::three_tier(odd, [1, 3][rng.below(2)], 2, cores, 2)
            } else {
                TopologyBuilder::new(odd, 2 + rng.below(2) as u32, 2 + rng.below(2) as u32)
            };
            let builder = builder.parallel_links(parallel);
            let topo = match i {
                2 => builder.override_link_rate_gbps(0, 0, 0, 10),
                _ => builder,
            }
            .build();
            let (n, lpp, spp) = (topo.n_leaves, topo.leaves_per_pod(), topo.spines_per_pod());
            let up_link = |rng: &mut SimRng, l: u32| {
                let spine = l / lpp * spp + rng.below(spp as usize) as u32;
                let p = rng.below(parallel as usize) as u32;
                Link::new(NodeId::Leaf(LeafId(l)), NodeId::Spine(SpineId(spine)), p)
            };
            let (first, overlap) = (up_link(&mut rng, 0), up_link(&mut rng, n - 1));
            let never = match three {
                true => {
                    let spine = SpineId(rng.below(topo.n_spines as usize) as u32);
                    let core = CoreId(rng.below(topo.n_cores as usize) as u32);
                    Link::new(NodeId::Spine(spine), NodeId::Core(core), 0)
                }
                false => {
                    let l = 1 + rng.below(n as usize - 2) as u32;
                    up_link(&mut rng, l)
                }
            };
            let back = 10 + rng.below(20) as u64;
            let faults = vec![
                LinkFaultSpec::fail(SimTime::ZERO, first),
                LinkFaultSpec::fail(ms(5), overlap),
                LinkFaultSpec::recover(ms(back), first),
                LinkFaultSpec::fail(ms(back - 2), overlap),
                LinkFaultSpec::fail(ms(3 + rng.below(20) as u64), never),
                LinkFaultSpec::recover(ms(back + 10), overlap),
            ];
            let (name, mk) = zoo[rng.below(zoo.len())];
            let policy = match name {
                "incremental" => FabricPolicy::incremental((0..n).map(|l| l % 2 == 0).collect()),
                _ => mk(),
            };
            let dist = FlowSizeDist::enterprise();
            let capacity = topo.access_capacity(LeafId(0));
            let mut arrivals = uniform_arrivals(&dist, &topo, capacity, 0.5, 24, &mut rng, tcp);
            // The size tail is not what this battery is about: a few
            // hundred KB keep every cell's trace in the 10^4 lines.
            for (_, spec) in &mut arrivals {
                spec.bytes = spec.bytes.min(300_000);
            }
            let what = format!(
                "cell {i} ({n} leaves, {} tiers, {parallel} parallel, {name})",
                2 + three as u32
            );
            let cell = Cell {
                sampled: topo.fib().leaf_uplinks[0].clone(),
                starts: absolute(arrivals),
                faults,
                topo,
                policy,
                seed: 11 + i as u64,
            };
            (what, cell)
        })
        .collect()
}

/// Gap-encoded arrivals as start times.
fn absolute(arrivals: Vec<(SimDuration, FlowSpec)>) -> Vec<(SimTime, FlowSpec)> {
    let mut t = SimTime::ZERO;
    let abs = arrivals.into_iter().map(|(gap, spec)| {
        t += gap;
        (t, spec)
    });
    abs.collect()
}

fn jsonl(trace: TraceHandle) -> String {
    trace.export_jsonl().expect("an enabled handle")
}

/// The identity the engine is built on: a run is a function of its inputs
/// only, not of how the fabric is cut into domains or how many threads run
/// them. A two-tier CONGA cell with a leaf–spine fail/recover and a
/// three-tier cell with a spine–core fault, on the monolithic engine and
/// at 1, 2 and `n_leaves` workers — whole-fabric, leaf-group (per-pod)
/// and per-leaf partitions: the same report, series and trace, byte for
/// byte.
#[test]
fn a_run_does_not_depend_on_its_partition() {
    Cell::two_tier(FabricPolicy::conga(), 40).assert_partition_free("two-tier");
    Cell::three_tier().assert_partition_free("three-tier");
}

/// The identity on the generated cells: odd leaf counts (so uneven leaf
/// groups), parallel and derated links, faults at both tiers, any policy.
#[test]
fn generated_fabrics_do_not_depend_on_their_partition() {
    for (what, cell) in generated_cells() {
        cell.assert_partition_free(&what);
    }
}

/// A small traced FCT cell on the quick baseline testbed (2 leaf domains).
fn fct_cell(shards: usize) -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::paper_baseline().quick(),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.4,
    );
    cfg.n_flows = 40;
    cfg.seed = 11;
    cfg.sample_uplinks = true;
    cfg.trace = Some(TraceConfig {
        flows: Some([0, 1, 2, 3].into()),
        ring: None,
    });
    cfg.shards = shards;
    cfg
}

/// Everything an FCT cell can leave behind, rendered to comparable text:
/// the RunReport JSON (the metrics sidecar is this string verbatim), the
/// derived FCT values that feed the figure sidecars, and both trace
/// exports.
fn fct_artifacts(cfg: &FctRun) -> [String; 4] {
    let out = run_fct_with_policy(cfg, FabricPolicy::conga());
    let report = out.report.to_json();
    let sidecar = format!(
        "{:?}|drops={}|retx={}|timeouts={}",
        out.summary, out.drops, out.retx_bytes, out.timeouts,
    );
    let t = out.trace.expect("tracing was requested");
    let jsonl = t.export_jsonl().expect("enabled handle");
    let chrome = t.export_chrome().expect("enabled handle");
    [report, sidecar, jsonl, chrome]
}

/// The quick FCT suite cell at `--shards 1/2/4`: byte-identical artifacts.
/// (On the 2-leaf testbed shard counts above 2 clamp to the domain count —
/// the clamp itself must not change a byte either.)
#[test]
fn fct_artifacts_identical_across_shard_counts() {
    let base = fct_artifacts(&fct_cell(1));
    for shards in [2, 4] {
        let got = fct_artifacts(&fct_cell(shards));
        for (i, kind) in ["report", "fct sidecar", "trace jsonl", "trace chrome"]
            .iter()
            .enumerate()
        {
            assert!(
                got[i] == base[i],
                "{kind} diverged between --shards 1 and --shards {shards}"
            );
        }
    }
}

/// More than two domains: a 4-leaf testbed gives four shards real work and
/// exercises the uniform (all-to-all) arrival path. Same contract — also
/// at 3, which does not divide 4 (two 2-leaf domains run; a 3-party
/// barrier would wait for a third forever).
#[test]
fn four_leaf_topology_is_shard_count_invariant() {
    let mk = |shards: usize| {
        let mut topo = TestbedOpts::paper_baseline().quick();
        topo.leaves = 4;
        let mut cfg = FctRun::new(topo, Scheme::Conga, FlowSizeDist::enterprise(), 0.3);
        cfg.n_flows = 24; // ×2 in the uniform arrival plan
        cfg.seed = 5;
        cfg.shards = shards;
        cfg
    };
    let base = run_fct_with_policy(&mk(1), FabricPolicy::conga())
        .report
        .to_json();
    for shards in [2, 3, 4] {
        let got = run_fct_with_policy(&mk(shards), FabricPolicy::conga())
            .report
            .to_json();
        assert!(
            got == base,
            "4-leaf report diverged between --shards 1 and --shards {shards}"
        );
    }
}

/// The dynamic-failure path (runtime fault transitions crossing the
/// barrier) at `--shards 1/2/4`: byte-identical report and trace.
#[test]
fn dynfail_artifacts_identical_across_shard_counts() {
    let mk = |shards: usize| {
        let mut spec = DynFailSpec::paper(Scheme::Conga, true, 7);
        spec.window = SimTime::from_millis(40);
        spec.fail_at = SimTime::from_millis(20);
        spec.recover_at = SimTime::from_millis(30);
        spec.slice = SimDuration::from_millis(5);
        spec.fct.trace = Some(TraceConfig {
            flows: Some([0, 1, 2].into()),
            ring: None,
        });
        spec.fct.shards = shards;
        spec
    };
    let run = |shards: usize| {
        let out = run_dynamic_failure(&mk(shards));
        let trace = out
            .trace
            .as_ref()
            .and_then(|t| t.export_jsonl())
            .expect("tracing was requested");
        (out.report.to_json(), trace)
    };
    let (report_1, trace_1) = run(1);
    for shards in [2, 4] {
        let (report_n, trace_n) = run(shards);
        assert!(
            report_n == report_1,
            "dynfail report diverged between --shards 1 and --shards {shards}"
        );
        assert!(
            trace_n == trace_1,
            "dynfail trace diverged between --shards 1 and --shards {shards}"
        );
    }
}

/// A flow registered mid-run by `ShardedRun::start_flow` is the flow
/// registered up front: on an otherwise idle fabric both get the same
/// record and FCT, whether the call comes ahead of the start time or at it,
/// at one worker and at two.
#[test]
fn a_flow_started_mid_run_matches_one_registered_up_front() {
    let topo = build_testbed(TestbedOpts::paper_baseline().quick());
    let spec = FlowSpec {
        src: topo.hosts_under(LeafId(0))[1],
        dst: topo.hosts_under(LeafId(1))[2],
        bytes: 300_000,
        kind: TransportKind::Tcp(TcpConfig::standard()),
    };
    let at = SimTime::from_millis(3);
    let run = |workers: usize, flows: &[(SimTime, FlowSpec)]| {
        let policy = FabricPolicy::conga();
        let queue = QueueKind::Calendar;
        ShardedRun::new(
            &topo,
            policy,
            5,
            workers,
            queue,
            None,
            None,
            &[],
            &[],
            flows,
        )
    };
    let record = |mut run: ShardedRun| {
        run.run_until_received(1, SimTime::from_secs(1), |_| {});
        let r = run.merged_record(&topo, 0);
        (format!("{r:?}"), r.fct())
    };
    for workers in [1, 2] {
        let up_front = record(run(workers, &[(at, spec)]));
        assert!(up_front.1.is_some(), "the flow did not finish");
        for now in [SimTime::from_millis(1), at] {
            let mut mid = run(workers, &[]);
            mid.net.run_until(now);
            assert_eq!(mid.start_flow(at, spec), 0);
            let got = record(mid);
            assert_eq!(got, up_front, "called at {now:?} on {workers} workers");
        }
    }
}

/// Every fabric policy survives the differential (the shard barrier must
/// not interact with any dataplane's feedback or flowlet state), and runs
/// on per-leaf domains exactly as on the monolithic engine. The policies
/// run on one thread each.
#[test]
fn every_policy_is_shard_count_invariant() {
    std::thread::scope(|s| {
        for (name, mk) in FabricPolicy::zoo() {
            s.spawn(move || {
                let mut serial = fct_cell(1);
                serial.trace = None;
                let mut sharded = fct_cell(2);
                sharded.trace = None;
                let a = run_fct_with_policy(&serial, mk()).report.to_json();
                let b = run_fct_with_policy(&sharded, mk()).report.to_json();
                assert!(a == b, "policy {name}: report diverged under --shards 2");
                let cell = Cell::two_tier(mk(), 12);
                let whole = cell.monolithic();
                assert!(
                    cell.sharded(2) == whole,
                    "policy {name}: the sharded run is not the monolithic one"
                );
            });
        }
    });
}

/// The tournament's merged artifact is shard-count invariant: racing every
/// [`Scheme::TOURNAMENT`] policy through one (arena, load) cell and
/// rendering the comparison table produces byte-identical text — and
/// byte-identical per-cell reports — at `--shards 1` and `--shards 2`.
#[test]
fn tournament_table_identical_across_shard_counts() {
    use conga::analysis::tournament::{compare, render, PolicyCell};

    let run = |shards: usize| -> (String, Vec<String>) {
        let mut reports = Vec::new();
        let cells: Vec<PolicyCell> = Scheme::TOURNAMENT
            .iter()
            .map(|&scheme| {
                let mut cfg = FctRun::new(
                    TestbedOpts::paper_baseline().quick(),
                    scheme,
                    FlowSizeDist::enterprise(),
                    0.4,
                );
                cfg.n_flows = 30;
                cfg.seed = 13;
                cfg.shards = shards;
                let out = run_fct_with_policy(&cfg, scheme.policy());
                reports.push(out.report.to_json());
                PolicyCell {
                    policy: scheme.key().to_string(),
                    summary: out.summary,
                    decisions: out.report.metrics.counter("dataplane.flowlet_new"),
                }
            })
            .collect();
        (render(&[compare("enterprise/load40", &cells)]), reports)
    };
    let (table_1, reports_1) = run(1);
    let (table_2, reports_2) = run(2);
    assert!(
        table_1 == table_2,
        "tournament table diverged between --shards 1 and --shards 2"
    );
    for (scheme, (a, b)) in Scheme::TOURNAMENT
        .iter()
        .zip(reports_1.iter().zip(&reports_2))
    {
        assert!(
            a == b,
            "{}: tournament cell report diverged under --shards 2",
            scheme.key()
        );
    }
    // The table is a real comparison, not an empty render.
    assert!(table_1.contains("price of anarchy"));
    for scheme in Scheme::TOURNAMENT {
        assert!(table_1.contains(scheme.key()), "{} missing", scheme.key());
    }
}

/// A three-tier sketch cell: 2 pods × (2 leaves + 1 spine), 2 cores,
/// streaming FCT aggregation. The reusable base for the sketch battery.
fn three_tier_sketch_cell(shards: usize) -> FctRun {
    let mut cfg = FctRun::new(
        TestbedOpts::three_tier(2, 2, 1, 2, 4),
        Scheme::Conga,
        FlowSizeDist::enterprise(),
        0.3,
    );
    cfg.n_flows = 30;
    cfg.seed = 17;
    cfg.sketch = true;
    cfg.shards = shards;
    cfg
}

/// The streaming path on the three-tier fabric at `--shards 1/2/4`: the
/// report JSON, the rendered summary, and the sketch's canonical state
/// must all be byte-identical — the accumulators are integer-summed and
/// the sketch merge is exactly associative, so no shard decomposition may
/// move a byte.
#[test]
fn three_tier_sketch_artifacts_identical_across_shard_counts() {
    let run = |shards: usize| {
        let out = run_fct_with_policy(&three_tier_sketch_cell(shards), FabricPolicy::conga());
        let sk = out.sketch.expect("sketch mode was on");
        (
            out.report.to_json(),
            format!("{:?}", out.summary),
            sk.canonical(),
        )
    };
    let (report_1, summary_1, sk_1) = run(1);
    assert!(
        sk_1.starts_with("n=") && !sk_1.starts_with("n=0"),
        "sketch recorded nothing: {sk_1}"
    );
    assert!(report_1.contains("\"fct_aggregation\": \"sketch\""));
    for shards in [2, 4] {
        let (report_n, summary_n, sk_n) = run(shards);
        assert!(
            report_n == report_1,
            "three-tier report diverged between --shards 1 and --shards {shards}"
        );
        assert_eq!(
            summary_n, summary_1,
            "summary diverged between --shards 1 and --shards {shards}"
        );
        assert_eq!(
            sk_n, sk_1,
            "sketch state diverged between --shards 1 and --shards {shards}"
        );
    }
}

/// Sketch vs exact on the same cell: toggling `sketch` must not perturb
/// the simulation (the drain only reads records), so flow counts match
/// exactly; the streamed means agree to quantization noise and the
/// bucketed percentiles land within the documented 1 % budget.
#[test]
fn sketch_summary_tracks_exact_summary_within_budget() {
    let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1e-12);
    for mk in [three_tier_sketch_cell as fn(usize) -> FctRun, |shards| {
        // The two-tier quick baseline through the same toggle.
        let mut cfg = fct_cell(shards);
        cfg.trace = None;
        cfg.sample_uplinks = false;
        cfg.sketch = true;
        cfg
    }] {
        let mut exact_cfg = mk(1);
        exact_cfg.sketch = false;
        let exact = run_fct_with_policy(&exact_cfg, FabricPolicy::conga()).summary;
        let streamed = run_fct_with_policy(&mk(1), FabricPolicy::conga()).summary;
        assert_eq!(streamed.n, exact.n, "sketch toggle perturbed the run");
        assert_eq!(streamed.incomplete, exact.incomplete);
        for (got, want, what) in [
            (streamed.avg_s, exact.avg_s, "avg_s"),
            (streamed.mean_slowdown, exact.mean_slowdown, "mean_slowdown"),
            (
                streamed.avg_norm_optimal,
                exact.avg_norm_optimal,
                "avg_norm_optimal",
            ),
        ] {
            assert!(
                rel(got, want) < 1e-6,
                "{what}: streamed {got} vs exact {want}"
            );
        }
        for (got, want, what) in [
            (streamed.p50_s, exact.p50_s, "p50"),
            (streamed.p95_s, exact.p95_s, "p95"),
            (streamed.p99_s, exact.p99_s, "p99"),
        ] {
            assert!(
                rel(got, want) < 0.01,
                "{what}: streamed {got} vs exact {want}"
            );
        }
    }
}
