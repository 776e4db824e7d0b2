//! Memory follows use: what a sharded run holds is proportional to what is
//! in flight, not to what was registered. Flow state is built at first use
//! and retired at completion without moving a counter; a domain replica
//! allocates only the flowlet tables of the leaves it owns.

use conga::core::FabricPolicy;
use conga::experiments::runner::{absolute_starts, merged_arrivals, uniform_arrivals};
use conga::experiments::{build_testbed, ShardedRun, TestbedOpts};
use conga::net::{LeafId, LeafSpineBuilder, QueueProfile, Topology};
use conga::sim::{QueueKind, SimDuration, SimRng, SimTime};
use conga::telemetry::MetricsRegistry;
use conga::transport::{FlowSpec, TcpConfig, TransportKind};
use conga::workloads::{FlowSizeDist, PoissonPlan};

fn sharded(topo: &Topology, policy: FabricPolicy, arrivals: &[(SimTime, FlowSpec)]) -> ShardedRun {
    ShardedRun::new(
        topo,
        policy,
        7,
        2,
        QueueKind::Calendar,
        None,
        None,
        &[],
        &[],
        arrivals,
    )
}

/// 4000 mice over the paper testbed's two leaf domains, with access queues
/// shallow enough that some flows lose packets and repair them. The
/// counters below were first read from the same cell on the commit before
/// flow state had a lifecycle, when all 4000 flows were built up front in
/// both domains and kept to the end; they were read again when events
/// were keyed by what they are, which moved the cell's packet schedule.
#[test]
fn flow_state_lives_from_arrival_to_completion() {
    let topo = LeafSpineBuilder::new(2, 2, 32)
        .host_rate_gbps(10)
        .fabric_rate_gbps(40)
        .parallel_links(2)
        .queue_profile(QueueProfile {
            access_bytes: 40_000,
            ..QueueProfile::default()
        })
        .build();
    let (a, b) = (topo.hosts_under(LeafId(0)), topo.hosts_under(LeafId(1)));
    let dist = FlowSizeDist::from_points("mice", &[(1e3, 0.0), (2e3, 0.5), (1e4, 0.9), (6e4, 1.0)]);
    let capacity = topo
        .leaf_uplink_capacity(LeafId(0))
        .min(topo.access_capacity(LeafId(0)));
    let plan = PoissonPlan::generate(
        &dist,
        a.len() as u32,
        b.len() as u32,
        capacity,
        0.7,
        2000,
        &mut SimRng::new(7),
    );
    let kind = TransportKind::Tcp(TcpConfig::standard().with_min_rto(SimDuration::from_millis(1)));
    let arrivals = absolute_starts(merged_arrivals(&plan, &a, &b, |_| kind));
    assert_eq!(arrivals.len(), 4000);

    let mut run = sharded(&topo, FabricPolicy::ecmp(), &arrivals);
    run.net.run_until(SimTime::from_secs(2));
    assert_eq!(run.completed_rx(), 4000, "cell did not finish");

    for d in 0..run.net.n_domains() {
        let (live, peak) = run.net.domain(d).agent.live_flows();
        assert_eq!(live, 0, "domain {d} still holds flow state");
        assert!(
            (1..=200).contains(&peak),
            "domain {d} held {peak} of 4000 flows at once"
        );
    }
    let mut m = MetricsRegistry::new();
    run.net.export_metrics(&mut m);
    let pinned = [
        ("transport.flows_started", 4000),
        ("transport.flows_rx_complete", 4000),
        ("transport.flows_tx_complete", 4000),
        ("transport.subflows", 4000),
        ("transport.bytes_retx", 136_830),
        ("transport.rto_timeouts", 8),
        ("transport.fast_retx", 14),
        ("transport.recovery_entries", 14),
        ("transport.recovery_exits", 14),
        ("transport.rx_ooo_segments", 101),
        ("transport.rx_bytes", 22_638_148),
        ("engine.queue_drops", 34),
    ];
    for (name, value) in pinned {
        assert_eq!(m.counter(name), value, "{name}");
    }
}

/// The three-tier Clos of `clos3_shards2` on its two workers: two
/// domains of eight leaves (two pods), each a full `Network` replica with
/// a CONGA pipeline of 16 flowlet tables. Only the tables a domain
/// indexes — its own leaves' — may exist.
#[test]
fn a_domain_allocates_only_its_own_leafs_flowlet_table() {
    let opts = TestbedOpts::three_tier(4, 4, 2, 2, 16);
    let topo = build_testbed(opts);
    let capacity = topo
        .leaf_uplink_capacity(LeafId(0))
        .min(topo.access_capacity(LeafId(0)));
    let arrivals = absolute_starts(uniform_arrivals(
        &FlowSizeDist::from_points("calves", &[(5e4, 0.0), (1.5e5, 0.5), (4e5, 1.0)]),
        &topo,
        capacity,
        0.3,
        200,
        &mut SimRng::new(7),
        TransportKind::Tcp(TcpConfig::standard()),
    ));
    let mut run = sharded(&topo, FabricPolicy::conga(), &arrivals);
    run.net.run_until(SimTime::from_secs(2));
    assert_eq!(run.completed_rx(), arrivals.len(), "cell did not finish");

    assert_eq!(run.net.n_domains(), 2);
    let mut allocated = 0;
    for d in 0..run.net.n_domains() {
        let conga = run.net.domain(d).dataplane.as_conga().expect("CONGA");
        let tables: Vec<LeafId> = conga.allocated_flowlet_tables().collect();
        assert!(
            tables.iter().all(|l| l.0 as usize / 8 == d),
            "domain {d} allocated tables {tables:?}"
        );
        allocated += tables.len();
    }
    assert!(
        allocated > 8,
        "only {allocated} of 16 leaves sourced traffic?"
    );
}

/// A flow exists in a domain from its arrival there: its start timer
/// firing in the sender's domain, or its first packet landing in another.
/// Before that the run answers for it from the schedule: the planned
/// record, never finished. Slices of a mice cell on two domains: after
/// each, no domain holds a flow that starts after the slice end, and every
/// flow not yet registered anywhere reads as planned.
#[test]
fn a_flow_is_registered_when_it_arrives() {
    let topo = build_testbed(TestbedOpts::paper_baseline().quick());
    let (a, b) = (topo.hosts_under(LeafId(0)), topo.hosts_under(LeafId(1)));
    let dist = FlowSizeDist::from_points("mice", &[(1e3, 0.0), (2e3, 0.5), (1e4, 0.9), (3e4, 1.0)]);
    let capacity = topo
        .leaf_uplink_capacity(LeafId(0))
        .min(topo.access_capacity(LeafId(0)));
    let plan = PoissonPlan::generate(&dist, 8, 8, capacity, 0.3, 300, &mut SimRng::new(3));
    let kind = TransportKind::Tcp(TcpConfig::standard());
    let arrivals = absolute_starts(merged_arrivals(&plan, &a, &b, |_| kind));
    let last_start = arrivals.last().expect("flows").0;

    let mut run = sharded(&topo, FabricPolicy::ecmp(), &arrivals);
    let registered = |run: &ShardedRun| -> Vec<usize> {
        (0..2)
            .map(|d| run.net.domain(d).agent.records.len())
            .collect()
    };
    assert_eq!(registered(&run), [0, 0], "set-up registers nothing");
    let mut t = SimTime::ZERO;
    while t < last_start {
        t += SimDuration::from_micros(700);
        run.net.run_until(t);
        let arrived = arrivals.partition_point(|&(s, _)| s <= t);
        for (d, n) in registered(&run).into_iter().enumerate() {
            assert!(
                n <= arrived,
                "domain {d} holds {n} flows at {t:?}, {arrived} arrived"
            );
        }
        let pulled_in = registered(&run).into_iter().max().expect("two domains");
        for (i, &(start, spec)) in arrivals.iter().enumerate().skip(pulled_in) {
            let r = run.merged_record(&topo, i);
            assert_eq!(
                (r.src, r.dst, r.bytes, r.start, r.retx_bytes, r.timeouts),
                (spec.src, spec.dst, spec.bytes, start, 0, 0)
            );
            assert_eq!(r.fct(), None, "flow {i} has not arrived at {t:?}");
        }
    }
    // Both domains start flows, so each has registered up to its last one.
    let flows = registered(&run);
    assert!(flows.iter().all(|&n| n > arrivals.len() - 20), "{flows:?}");
    run.net.run_until(last_start + SimDuration::from_secs(1));
    assert_eq!(run.completed_rx(), arrivals.len());
    assert_eq!(run.merged_records(&topo).len(), arrivals.len());
}
