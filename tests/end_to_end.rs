//! Cross-crate integration tests: full transports over full fabrics under
//! every load-balancing scheme.

use conga::core::FabricPolicy;
use conga::net::{HostId, LeafSpineBuilder, Network, QueueProfile};
use conga::sim::{SimDuration, SimTime};
use conga::transport::{
    FlowSpec, ListSource, MptcpConfig, TcpConfig, TransportKind, TransportLayer,
};

fn policies() -> impl Iterator<Item = FabricPolicy> {
    FabricPolicy::zoo().into_iter().map(|(_, mk)| mk())
}

#[test]
fn every_scheme_delivers_every_byte() {
    for policy in policies() {
        let topo = LeafSpineBuilder::new(2, 2, 8)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2)
            .build();
        let name = {
            use conga::net::Dataplane;
            policy.name()
        };
        let mut net = Network::new(topo, policy, TransportLayer::new(), 5);
        let sizes = [3_000u64, 150_000, 800_000, 64_000, 1_000_000];
        net.agent_call(|a, now, em| {
            for (i, &bytes) in sizes.iter().enumerate() {
                a.start_flow(
                    FlowSpec {
                        src: HostId(i as u32),
                        dst: HostId(8 + i as u32),
                        bytes,
                        kind: TransportKind::Tcp(TcpConfig::standard()),
                    },
                    now,
                    em,
                );
            }
        });
        net.run_until(SimTime::from_secs(1));
        for (i, &bytes) in sizes.iter().enumerate() {
            assert!(
                net.agent.records[i].rx_done.is_some(),
                "[{name}] flow {i} incomplete"
            );
            assert_eq!(net.agent.rx_bytes(i), bytes, "[{name}] flow {i} bytes");
        }
    }
}

#[test]
fn every_scheme_survives_loss_and_failure() {
    // Shallow queues + a failed link + fan-in: drops guaranteed; all
    // schemes must still deliver everything via retransmission.
    for policy in policies() {
        let topo = LeafSpineBuilder::new(2, 2, 8)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2)
            .fail_link(1, 0, 0)
            .queue_profile(QueueProfile {
                access_bytes: 40_000,
                fabric_bytes: 60_000,
                host_nic_bytes: 4 << 20,
            })
            .build();
        let name = {
            use conga::net::Dataplane;
            policy.name()
        };
        let mut net = Network::new(topo, policy, TransportLayer::new(), 9);
        let tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(2));
        net.agent_call(|a, now, em| {
            for i in 0..6u32 {
                a.start_flow(
                    FlowSpec {
                        src: HostId(i),
                        dst: HostId(12), // fan-in to one host
                        bytes: 300_000,
                        kind: TransportKind::Tcp(tcp),
                    },
                    now,
                    em,
                );
            }
        });
        net.run_until(SimTime::from_secs(2));
        for i in 0..6 {
            assert!(
                net.agent.records[i].rx_done.is_some(),
                "[{name}] flow {i} stuck after loss"
            );
            assert_eq!(net.agent.rx_bytes(i), 300_000, "[{name}] flow {i}");
        }
        assert!(net.total_drops() > 0, "[{name}] test should induce drops");
    }
}

#[test]
fn mptcp_and_tcp_coexist() {
    let topo = LeafSpineBuilder::new(2, 2, 8).parallel_links(2).build();
    let mut net = Network::new(topo, FabricPolicy::conga(), TransportLayer::new(), 3);
    net.agent_call(|a, now, em| {
        a.start_flow(
            FlowSpec {
                src: HostId(0),
                dst: HostId(9),
                bytes: 2_000_000,
                kind: TransportKind::Tcp(TcpConfig::standard()),
            },
            now,
            em,
        );
        a.start_flow(
            FlowSpec {
                src: HostId(1),
                dst: HostId(10),
                bytes: 2_000_000,
                kind: TransportKind::Mptcp(MptcpConfig::default()),
            },
            now,
            em,
        );
    });
    net.run_until(SimTime::from_secs(1));
    assert_eq!(net.agent.completed_rx, 2);
    assert_eq!(net.agent.rx_bytes(0), 2_000_000);
    assert_eq!(net.agent.rx_bytes(1), 2_000_000);
}

#[test]
fn runs_are_deterministic_across_schemes() {
    for policy_mk in [
        FabricPolicy::conga as fn() -> FabricPolicy,
        FabricPolicy::ecmp,
        FabricPolicy::spray,
    ] {
        let run = || {
            let topo = LeafSpineBuilder::new(2, 2, 8).parallel_links(2).build();
            let mut net = Network::new(topo, policy_mk(), TransportLayer::new(), 77);
            let arrivals: Vec<(SimDuration, FlowSpec)> = (0..20)
                .map(|i| {
                    (
                        SimDuration::from_micros(50),
                        FlowSpec {
                            src: HostId(i % 8),
                            dst: HostId(8 + (i * 3) % 8),
                            bytes: 50_000 + 10_000 * i as u64,
                            kind: TransportKind::Tcp(TcpConfig::standard()),
                        },
                    )
                })
                .collect();
            net.agent.attach_source(Box::new(ListSource::new(arrivals)));
            if let Some((d, tok)) = net.agent.begin_source() {
                net.schedule_timer(d, tok);
            }
            net.run_until(SimTime::from_millis(500));
            net.agent
                .records
                .iter()
                .map(|r| r.rx_done.map(|t| t.as_nanos()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}

#[test]
fn conga_beats_ecmp_on_asymmetric_long_flows() {
    // The Figure 2 scenario at small scale: asymmetric paths, saturating
    // demand; CONGA's goodput must be at least ECMP's.
    let gbps = |policy: FabricPolicy| {
        let topo = LeafSpineBuilder::new(2, 2, 10)
            .host_rate_gbps(10)
            .fabric_rate_gbps(80)
            .parallel_links(1)
            .override_link_rate_gbps(1, 1, 0, 40)
            .build();
        let mut net = Network::new(topo, policy, TransportLayer::new(), 21);
        let mut tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(2));
        tcp.rwnd = 4 << 20;
        net.agent_call(|a, now, em| {
            for i in 0..10u32 {
                a.start_flow(
                    FlowSpec {
                        src: HostId(i),
                        dst: HostId(10 + i),
                        bytes: u64::MAX / 2,
                        kind: TransportKind::Tcp(tcp),
                    },
                    now,
                    em,
                );
            }
        });
        // CONGA needs flowlet opportunities (loss-recovery stalls) to
        // migrate saturated flows; give it time to converge.
        net.run_until(SimTime::from_millis(120));
        let d0 = net.stats.delivered_payload;
        net.run_until(SimTime::from_millis(280));
        (net.stats.delivered_payload - d0) as f64 * 8.0 / 0.16 / 1e9
    };
    let ecmp = gbps(FabricPolicy::ecmp());
    let conga = gbps(FabricPolicy::conga());
    assert!(
        conga >= ecmp - 3.0,
        "CONGA ({conga:.1}G) should not lose to ECMP ({ecmp:.1}G) under asymmetry"
    );
    // 100G demand over 80G + 40G asymmetric paths. With lucky flowlet
    // opportunities CONGA reaches ~93G goodput (100G wire); in the worst
    // case saturated flows present no flowlet gaps and it holds ~75G
    // (80G wire) — still never below ECMP, whose hash can strand half the
    // demand behind the 40G link (~84G wire / ~79G goodput at best,
    // ~80G wire typical). The hard floor we assert is the no-gap outcome.
    assert!(conga > 72.0, "CONGA below the no-gap floor: {conga:.1}G");
}

#[test]
fn feedback_actually_flows_in_both_directions() {
    // After bidirectional traffic, CONGA's sticky/moved counters prove the
    // decision machinery engaged, and the fabric carried CE-marked packets.
    let topo = LeafSpineBuilder::new(2, 2, 8).parallel_links(2).build();
    let mut net = Network::new(topo, FabricPolicy::conga(), TransportLayer::new(), 2);
    net.agent_call(|a, now, em| {
        for i in 0..8u32 {
            a.start_flow(
                FlowSpec {
                    src: HostId(i),
                    dst: HostId(8 + i),
                    bytes: 500_000,
                    kind: TransportKind::Tcp(TcpConfig::standard()),
                },
                now,
                em,
            );
            a.start_flow(
                FlowSpec {
                    src: HostId(8 + i),
                    dst: HostId(i),
                    bytes: 500_000,
                    kind: TransportKind::Tcp(TcpConfig::standard()),
                },
                now,
                em,
            );
        }
    });
    net.run_until(SimTime::from_secs(1));
    assert_eq!(net.agent.completed_rx, 16);
    let conga = net.dataplane.as_conga().expect("conga policy");
    let stats0 = conga.flowlet_stats(conga::net::LeafId(0));
    assert!(stats0.new_flowlets > 0, "no flowlets detected at leaf 0");
    assert!(stats0.hits > 0, "no flowlet hits at leaf 0");
}
