//! Engine-level benchmarks: event-queue throughput and raw packet
//! forwarding through the fabric (no transport).

use conga_bench::{bench, black_box};
use conga_core::FabricPolicy;
use conga_net::{inject, HostId, LeafSpineBuilder, Network, Packet, SinkAgent};
use conga_sim::{EventQueue, SimDuration, SimTime};

fn bench_event_queue() {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1 << 12);
    for i in 0..1024u64 {
        q.push(SimTime::from_nanos(i * 100), i);
    }
    let mut t = 1024 * 100;
    bench("event_queue/push_pop_hot", || {
        let (at, e) = q.pop().expect("non-empty");
        t += 100;
        q.push(SimTime::from_nanos(t), black_box(e));
        black_box(at);
    });
}

fn bench_forwarding() {
    for (name, mk) in [
        ("ecmp", FabricPolicy::ecmp as fn() -> FabricPolicy),
        ("conga", FabricPolicy::conga),
        ("spray", FabricPolicy::spray),
    ] {
        let topo = LeafSpineBuilder::new(2, 2, 8).parallel_links(2).build();
        let mut net = Network::new(topo, mk(), SinkAgent::default(), 1);
        let mut f = 0u32;
        bench(&format!("forwarding/{name}_100pkts_e2e"), || {
            for i in 0..100u32 {
                f = f.wrapping_add(1);
                let pkt = Packet::data(
                    f,
                    0,
                    conga_net::flow_tuple_hash(f, 0),
                    HostId(i % 8),
                    HostId(8 + i % 8),
                    0,
                    1460,
                    net.now(),
                );
                inject(&mut net, pkt);
            }
            // A millisecond drains the burst and keeps the clock finite:
            // `run_to_quiescence` parks it at the end of time, and every
            // later burst would be scheduled at wrapped timestamps.
            net.run_until(net.now() + SimDuration::from_millis(1));
            net.agent.received.clear();
        });
        assert_eq!(
            net.stats.delivered_pkts, net.stats.injected_pkts,
            "a forwarding burst did not drain within its millisecond"
        );
    }
}

fn main() {
    bench_event_queue();
    bench_forwarding();
}
