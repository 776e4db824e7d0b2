//! # conga-transport — per-packet transport protocols for the simulator
//!
//! The paper's evaluation rests on the *interaction* between load balancing
//! and the transport control loop: TCP's window dynamics and timeouts are
//! what turn poor path choices into flow-completion-time pain, and MPTCP's
//! subflows are both its strength (core load balancing) and weakness
//! (Incast). This crate provides:
//!
//! * [`TcpTx`] / [`TcpRx`] — a TCP state machine (slow start, fast
//!   retransmit/recovery, RFC 6298 RTO with configurable minRTO) whose
//!   congestion-window decisions are delegated to a pluggable
//!   [`CongestionController`] ([`cc`] module: AIMD, DCTCP, CUBIC, BBR);
//! * MPTCP — N subflows with distinct 5-tuple hashes and LIA coupled
//!   congestion control, layered over the same state machine;
//! * [`TransportLayer`] — the [`conga_net::HostAgent`] that runs all flows
//!   and records completion times.

#![warn(missing_docs)]

pub mod cc;
mod config;
mod layer;
mod tcp;

pub use cc::{AckCtx, Cc, CcKind, CongestionController};
pub use config::{MptcpConfig, TcpConfig};
pub use layer::{FlowRecord, FlowSpec, ListSource, TransportKind, TransportLayer};
pub use tcp::{Lia, Segment, TcpRx, TcpTx};

#[cfg(test)]
mod e2e {
    //! End-to-end tests: full transports over a real fabric, using a local
    //! minimal ECMP dataplane (the production policies live in conga-core,
    //! which sits above this crate).

    use super::*;
    use conga_net::{
        ecmp_mix, ChannelId, Dataplane, Fib, HostId, LeafId, LeafSpineBuilder, Network, Packet,
        QueueProfile, SpineId, Topology,
    };
    use conga_sim::{SimDuration, SimRng, SimTime};

    struct MiniEcmp;
    impl Dataplane for MiniEcmp {
        fn install(&mut self, _t: &Topology, _f: &Fib) {}
        fn leaf_ingress(
            &mut self,
            leaf: LeafId,
            pkt: &mut Packet,
            c: &[ChannelId],
            _n: SimTime,
            _r: &mut SimRng,
        ) -> ChannelId {
            c[(ecmp_mix(pkt.flow_hash, leaf.0 as u64) % c.len() as u64) as usize]
        }
        fn spine_forward(
            &mut self,
            spine: SpineId,
            pkt: &mut Packet,
            c: &[ChannelId],
            _n: SimTime,
            _r: &mut SimRng,
        ) -> ChannelId {
            c[(ecmp_mix(pkt.flow_hash, 99 + spine.0 as u64) % c.len() as u64) as usize]
        }
        fn on_fabric_tx(&mut self, _c: ChannelId, _p: &mut Packet, _n: SimTime) {}
        fn leaf_egress(&mut self, _l: LeafId, _p: &Packet, _n: SimTime) {}
        fn name(&self) -> &'static str {
            "mini-ecmp"
        }
    }

    fn testbed(queues: Option<QueueProfile>) -> Network<MiniEcmp, TransportLayer> {
        let mut b = LeafSpineBuilder::new(2, 2, 32)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2);
        if let Some(q) = queues {
            b = b.queue_profile(q);
        }
        Network::new(b.build(), MiniEcmp, TransportLayer::new(), 42)
    }

    fn tcp_spec(src: u32, dst: u32, bytes: u64) -> FlowSpec {
        FlowSpec {
            src: HostId(src),
            dst: HostId(dst),
            bytes,
            kind: TransportKind::Tcp(TcpConfig::standard()),
        }
    }

    #[test]
    fn single_tcp_flow_delivers_exact_bytes() {
        let mut net = testbed(None);
        let bytes = 5_000_000;
        net.agent_call(|a, now, em| a.start_flow(tcp_spec(0, 40, bytes), now, em));
        net.run_until(SimTime::from_secs(2));
        let rec = net.agent.records[0];
        assert!(rec.rx_done.is_some(), "flow did not complete");
        let mut reg = conga_telemetry::MetricsRegistry::new();
        net.export_metrics(&mut reg);
        let acked = reg.counter("transport.flows_tx_complete");
        assert_eq!(acked, 1, "sender did not see final ACK");
        assert_eq!(net.agent.rx_bytes(0), bytes);
    }

    #[test]
    fn tcp_fct_close_to_ideal_on_idle_fabric() {
        let mut net = testbed(None);
        let bytes: u64 = 10_000_000;
        net.agent_call(|a, now, em| a.start_flow(tcp_spec(0, 5, bytes), now, em));
        net.run_until(SimTime::from_secs(2));
        let fct = net.agent.records[0].fct().expect("completed").as_secs_f64();
        // Ideal: 10 MB at 10 Gbps ~ 8 ms; slow start adds some RTTs.
        let ideal = bytes as f64 * 8.0 / 10e9;
        assert!(fct > ideal, "faster than line rate?! {fct}");
        assert!(
            fct < ideal * 1.5,
            "too slow on an idle fabric: {fct} vs {ideal}"
        );
    }

    #[test]
    fn two_flows_share_access_link_fairly() {
        // Two long flows into the same 10G downlink: at a fixed time cut
        // each should have roughly half the delivered bytes (FCT would be
        // RTO-noisy; steady-state throughput shows the AIMD fair share).
        let mut net = testbed(None);
        let bytes = 500_000_000u64;
        // A datacenter-sane minRTO keeps timeout recovery off the critical
        // path so AIMD convergence is visible within the measurement window.
        let cfg = TcpConfig::standard().with_min_rto(SimDuration::from_millis(2));
        net.agent_call(|a, now, em| {
            for src in [0u32, 1] {
                a.start_flow(
                    FlowSpec {
                        src: HostId(src),
                        dst: HostId(5),
                        bytes,
                        kind: TransportKind::Tcp(cfg),
                    },
                    now,
                    em,
                );
            }
        });
        // Skip the initial slow-start overshoot/recovery episode; measure
        // the steady state over [50 ms, 150 ms].
        net.run_until(SimTime::from_millis(50));
        let s0 = net.agent.rx_bytes(0) as f64;
        let s1 = net.agent.rx_bytes(1) as f64;
        net.run_until(SimTime::from_millis(150));
        let b0 = net.agent.rx_bytes(0) as f64 - s0;
        let b1 = net.agent.rx_bytes(1) as f64 - s1;
        let total_gbps = (b0 + b1) * 8.0 / 100e-3 / 1e9;
        assert!(
            total_gbps > 8.0,
            "downlink underutilized: {total_gbps} Gbps"
        );
        assert!((b0 / b1).max(b1 / b0) < 2.0, "unfair split: {b0} vs {b1}");
    }

    #[test]
    fn tcp_recovers_from_drops_on_shallow_queues() {
        // Starve the access queues so incast-style drops occur.
        let mut net = testbed(Some(QueueProfile {
            access_bytes: 30_000,
            fabric_bytes: 12 << 20,
            host_nic_bytes: 4 << 20,
        }));
        let n = 16u32;
        let each = 400_000u64;
        net.agent_call(|a, now, em| {
            for s in 0..n {
                // All senders hammer host 40 simultaneously.
                a.start_flow(tcp_spec(s, 40, each), now, em);
            }
        });
        net.run_until(SimTime::from_secs(5));
        assert!(
            net.total_drops() > 0,
            "test meant to exercise loss recovery"
        );
        for i in 0..n as usize {
            let r = net.agent.records[i];
            assert!(
                r.rx_done.is_some(),
                "flow {i} stuck (retx={}, to={})",
                r.retx_bytes,
                r.timeouts
            );
            assert_eq!(net.agent.rx_bytes(i), each, "flow {i} byte conservation");
        }
        let retx: u64 = net.agent.records.iter().map(|r| r.retx_bytes).sum();
        assert!(retx > 0, "drops must have caused retransmissions");
    }

    #[test]
    fn mptcp_completes_and_uses_multiple_subflows() {
        let mut net = testbed(None);
        let bytes = 8_000_000u64;
        let spec = FlowSpec {
            src: HostId(0),
            dst: HostId(40),
            bytes,
            kind: TransportKind::Mptcp(MptcpConfig::default()),
        };
        net.agent_call(|a, now, em| a.start_flow(spec, now, em));
        net.run_until(SimTime::from_secs(2));
        let rec = net.agent.records[0];
        assert!(rec.rx_done.is_some(), "MPTCP flow did not complete");
        assert_eq!(net.agent.rx_bytes(0), bytes);
    }

    #[test]
    fn mptcp_subflows_hash_to_distinct_paths() {
        // With 8 subflows and 4 uplinks, several uplinks must carry traffic.
        let mut net = testbed(None);
        let spec = FlowSpec {
            src: HostId(0),
            dst: HostId(40),
            bytes: 2_000_000,
            kind: TransportKind::Mptcp(MptcpConfig::default()),
        };
        net.agent_call(|a, now, em| a.start_flow(spec, now, em));
        net.run_until(SimTime::from_secs(1));
        let used = net.fib.leaf_uplinks[0]
            .iter()
            .filter(|&&u| net.port(u).tx_pkts > 0)
            .count();
        assert!(used >= 2, "all subflows landed on one uplink");
    }

    #[test]
    fn list_source_drives_arrivals_at_configured_gaps() {
        let mut net = testbed(None);
        let arrivals = vec![
            (SimDuration::from_micros(10), tcp_spec(0, 4, 100_000)),
            (SimDuration::from_micros(500), tcp_spec(1, 5, 200_000)),
            (SimDuration::from_micros(900), tcp_spec(2, 6, 50_000)),
        ];
        net.agent.attach_source(Box::new(ListSource::new(arrivals)));
        if let Some((d, tok)) = net.agent.begin_source() {
            net.schedule_timer(d, tok);
        }
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.agent.flow_count(), 3);
        assert_eq!(net.agent.completed_rx, 3);
        // Arrivals are spaced by the configured gaps.
        let starts: Vec<u64> = net
            .agent
            .records
            .iter()
            .map(|r| r.start.as_nanos())
            .collect();
        assert_eq!(starts[0], 10_000);
        assert_eq!(starts[1], 510_000);
        assert_eq!(starts[2], 1_410_000);
    }

    #[test]
    fn deterministic_fcts_across_identical_runs() {
        let run = || {
            let mut net = testbed(None);
            net.agent_call(|a, now, em| {
                for i in 0..10 {
                    a.start_flow(tcp_spec(i, 8 + i, 500_000), now, em);
                }
            });
            net.run_until(SimTime::from_secs(1));
            net.agent
                .records
                .iter()
                .map(|r| r.rx_done.unwrap().as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
