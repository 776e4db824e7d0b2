//! Sharded execution: one simulation partitioned by leaf domain, advanced
//! in conservative time windows with a barrier exchange of cross-domain
//! packets.
//!
//! ## Decomposition
//!
//! A run over a fabric is split into `n_leaves` *domains*. Domain `d`
//! owns leaf `d`, every host under it, and a fixed share of the upper
//! tiers: spines round-robin over the leaves *of their own pod* (which in
//! a two-tier fabric reduces exactly to `spine % n_leaves`), and core
//! switches round-robin over all leaves (spines and cores are stateless
//! ECMP hops plus their DREs, so any fixed assignment works). Each domain
//! holds a **full replica** of
//! the [`crate::Network`] over the same topology — same FIB, same fault
//! schedule — but with a [`ShardCtx`] mask: it only ever *transmits* on
//! channels whose source node it owns, and an owned channel whose
//! destination lies in another domain diverts its arrival into an outbox
//! instead of the local event queue.
//!
//! Replication is what keeps the dataplane logic untouched: leaf `l`'s
//! congestion tables and flowlet state are only ever exercised by events
//! processed in domain `l`, spine DREs only in the spine's domain, and the
//! replica counters elsewhere stay zero — so summing per-domain metric
//! registries reproduces the monolithic totals exactly.
//!
//! ## Conservative windows
//!
//! Domains advance in lockstep windows bounded by
//! [`conga_sim::conservative_window`] with lookahead equal to the minimum
//! propagation delay over cross-domain channels. A packet transmitted at
//! `t ≥ m` (the global minimum pending time) arrives remotely at
//! `t + ser + delay ≥ m + lookahead`, so executing strictly below
//! `m + lookahead` can never miss a cross-domain arrival. Outboxes are
//! exchanged at the barrier between windows and injected — sorted by
//! `(arrival time, channel, packet id)`, a total order — before the next
//! window's minimum is computed.
//!
//! ## Determinism
//!
//! The window schedule is a pure function of the event timeline, the
//! injection order is sorted, and each domain is single-threaded inside a
//! window — so the run is a pure function of `(code, seed)` and, crucially,
//! **independent of the worker count**: there is one window loop
//! ([`ShardedNetwork::run_until`]), every worker derives the same bound
//! from the same per-worker minima, and a worker count only decides how
//! many threads share the domains. The differential battery in
//! `tests/shards.rs` pins this byte-for-byte.

use crate::engine::{Dataplane, HostAgent, Network, ShardCtx};
use crate::ids::{ChannelId, NodeId};
use crate::packet::Packet;
use crate::topology::Topology;
use conga_sim::{conservative_window, SimDuration, SimRng, SimTime};
use conga_telemetry::SeriesRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// A cross-domain packet in flight between barriers:
/// `(arrival time, channel, packet, fail epoch at tx start)`. The packet
/// is the sender's handle: outbox, mailbox and the sort before injection
/// move 24-byte entries, and the receiving domain frees the allocation the
/// sending domain made.
pub type Mail = (SimTime, ChannelId, Box<Packet>, u32);

/// Domain that owns a node: hosts and leaves by leaf index, spines
/// round-robin across the leaves of their own pod, cores round-robin
/// across all leaves.
fn domain_of(topo: &Topology, node: NodeId) -> u16 {
    match node {
        NodeId::Host(h) => topo.leaf_of(h).0 as u16,
        NodeId::Leaf(l) => l.0 as u16,
        NodeId::Spine(s) => {
            // Pod-local round-robin: spine with pod-local index `sl` in pod
            // `p` lands on leaf `p*leaves_per_pod + sl % leaves_per_pod`.
            // With n_pods == 1 this is exactly the historical
            // `spine % n_leaves` assignment, so two-tier runs keep their
            // byte-identical domain decomposition.
            let lpp = topo.leaves_per_pod().max(1);
            let spp = topo.spines_per_pod().max(1);
            let pod = s.0 / spp;
            let sl = s.0 % spp;
            (pod * lpp + sl % lpp) as u16
        }
        NodeId::Core(c) => (c.0 as usize % topo.n_leaves as usize) as u16,
    }
}

/// A simulation partitioned into per-leaf domains that advance in
/// conservative windows, exchanging cross-domain packets at barriers.
///
/// The domain decomposition is fixed by the topology (`n_leaves` domains,
/// always); the `workers` knob only chooses how many OS threads execute
/// the windows. Artifacts are therefore byte-identical for every worker
/// count by construction — which is why `--shards` is excluded from
/// scenario hashes.
pub struct ShardedNetwork<D: Dataplane, A: HostAgent> {
    nets: Vec<Network<D, A>>,
    mailboxes: Vec<Mutex<Vec<Mail>>>,
    arrive_domain: Vec<u16>,
    src_domain: Vec<u16>,
    lookahead: Option<SimDuration>,
    workers: usize,
    now: SimTime,
}

impl<D: Dataplane + Send, A: HostAgent + Send> ShardedNetwork<D, A> {
    /// Partition `topo` into `n_leaves` domains executed by up to
    /// `workers` threads (0 means 1). Domains are dealt in equal
    /// contiguous chunks of `ceil(n_leaves / workers)`, and the number of
    /// chunks that come out non-empty *is* the worker count — 6 leaves on
    /// 4 requested workers run on 3 — so no thread ever waits for a
    /// worker that has nothing to run.
    /// `mk(d)` constructs domain `d`'s dataplane and host agent — every
    /// domain gets an identical fresh replica.
    ///
    /// Per-domain determinism inputs are functions of `(seed, d)` only:
    /// the RNG is forked from the run seed by domain index and packet ids
    /// are minted in the disjoint range `d << 48 ..`.
    pub fn new(
        topo: &Topology,
        seed: u64,
        workers: usize,
        mut mk: impl FnMut(usize) -> (D, A),
    ) -> Self {
        let n_domains = topo.n_leaves as usize;
        assert!(n_domains >= 1, "topology has no leaves");
        // Domain ids are u16 and packet ids are minted from `d << 48`:
        // beyond 2^16 domains both would alias.
        assert!(
            n_domains <= 1 << 16,
            "{n_domains} leaves exceed the 65536 shard domains ids can name"
        );
        let arrive_domain: Vec<u16> = topo
            .channels
            .iter()
            .map(|c| domain_of(topo, c.dst))
            .collect();
        let src_domain: Vec<u16> = topo
            .channels
            .iter()
            .map(|c| domain_of(topo, c.src))
            .collect();
        let lookahead = topo
            .channels
            .iter()
            .enumerate()
            .filter(|&(i, _)| src_domain[i] != arrive_domain[i])
            .map(|(_, c)| c.delay)
            .min();
        let mut parent = SimRng::new(seed);
        let nets = (0..n_domains)
            .map(|d| {
                let (dp, agent) = mk(d);
                let mut net = Network::new(topo.clone(), dp, agent, seed);
                net.rng = parent.fork(d as u64);
                net.set_pkt_id_base((d as u64) << 48);
                net.set_shard(ShardCtx {
                    id: d as u16,
                    arrive_domain: arrive_domain.clone(),
                    owns_tx: src_domain.iter().map(|&s| s as usize == d).collect(),
                    outbox: Vec::new(),
                });
                net
            })
            .collect();
        let chunk = n_domains.div_ceil(workers.clamp(1, n_domains));
        ShardedNetwork {
            nets,
            mailboxes: (0..n_domains).map(|_| Mutex::new(Vec::new())).collect(),
            arrive_domain,
            src_domain,
            lookahead,
            workers: n_domains.div_ceil(chunk),
            now: SimTime::ZERO,
        }
    }

    /// Domain that owns `ch`'s transmit side — where its port counters
    /// (tx bytes, queue occupancy) are maintained.
    pub fn tx_domain(&self, ch: ChannelId) -> usize {
        self.src_domain[ch.idx()] as usize
    }

    /// Domain that processes `ch`'s arrivals.
    pub fn rx_domain(&self, ch: ChannelId) -> usize {
        self.arrive_domain[ch.idx()] as usize
    }

    /// Number of domains (`n_leaves`, fixed by the topology).
    pub fn n_domains(&self) -> usize {
        self.nets.len()
    }

    /// Worker threads the windows execute on (the calling thread is one).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The conservative lookahead: minimum propagation delay over
    /// cross-domain channels (`None` when every channel is intra-domain).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Current simulation time (the end of the last `run_until` slice).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Domain `d`'s network replica.
    pub fn domain(&self, d: usize) -> &Network<D, A> {
        &self.nets[d]
    }

    /// Mutable access to domain `d`'s replica (setup: tracers, sampling,
    /// timers, fault schedules).
    pub fn domain_mut(&mut self, d: usize) -> &mut Network<D, A> {
        &mut self.nets[d]
    }

    /// Apply `f` to every domain in index order — for setup that must be
    /// replicated everywhere, like the fault schedule.
    pub fn each(&mut self, mut f: impl FnMut(usize, &mut Network<D, A>)) {
        for (d, net) in self.nets.iter_mut().enumerate() {
            f(d, net);
        }
    }

    /// Export the merged run metrics: each domain exports into a scratch
    /// registry which is absorbed (counters and gauges sum, series
    /// concatenate) into `reg`. Replication makes the sums exact — every
    /// monolithic counter is incremented in exactly the domain(s) that
    /// process the corresponding events.
    pub fn export_metrics(&self, reg: &mut conga_telemetry::MetricsRegistry) {
        for net in &self.nets {
            let mut part = conga_telemetry::MetricsRegistry::new();
            net.export_metrics(&mut part);
            reg.absorb(&part);
        }
    }

    /// Merge every domain's time-series registry by window, in domain
    /// index order. Ownership gating inside the sampling hooks means each
    /// window value is observed by exactly the domain(s) that own the
    /// underlying state, so the sum-merge reproduces the monolithic
    /// reading — byte-identical for any worker count.
    pub fn export_series(&self) -> SeriesRegistry {
        let mut out = SeriesRegistry::disabled();
        for net in &self.nets {
            out.merge_domain(&net.series);
        }
        out
    }

    /// Run every domain to `t_end` (inclusive) in conservative windows,
    /// exchanging cross-domain packets at the window barriers. Returns the
    /// total number of events processed across domains.
    ///
    /// One loop for every worker count: worker `w` owns the `w`-th chunk
    /// of domains, the calling thread is worker 0, and a window costs two
    /// barrier waits (none at one worker, where there is nobody to wait
    /// for).
    ///
    /// ```text
    /// drain own mailboxes, store own domains' min pending time in slot w
    /// ── wait ── every slot of this window is written
    /// every worker computes the same bound from all slots (or stops)
    /// run the window, route outboxes into the target mailboxes
    /// ── wait ── routing complete, every slot has been read
    /// ```
    ///
    /// A slot needs no reset: its owner rewrites it only after the second
    /// wait, which every reader of the old value has reached by then.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        let workers = self.workers;
        let chunk = self.nets.len().div_ceil(workers);
        let barrier = Barrier::new(workers);
        let wait = || {
            if workers > 1 {
                barrier.wait();
            }
        };
        let min_ns: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect();
        let mailboxes = &self.mailboxes;
        let arrive_domain = &self.arrive_domain;
        let lookahead = self.lookahead;

        let worker = |w: usize, nets: &mut [Network<D, A>]| {
            let mut events = 0u64;
            loop {
                let mut local = u64::MAX;
                for (i, net) in nets.iter_mut().enumerate() {
                    if let Some(t) = Self::drain_into(&mailboxes[w * chunk + i], net) {
                        local = local.min(t.as_nanos());
                    }
                }
                // The waits order the slots; Release/Acquire says so
                // without leaning on the barrier's internals.
                min_ns[w].store(local, Ordering::Release);
                wait();
                let m = min_ns
                    .iter()
                    .map(|slot| slot.load(Ordering::Acquire))
                    .fold(u64::MAX, u64::min);
                let min_pending = (m != u64::MAX).then(|| SimTime::from_nanos(m));
                let Some(bound) = conservative_window(min_pending, lookahead, t_end) else {
                    break events;
                };
                for net in nets.iter_mut() {
                    events += net.run_window(bound);
                    Self::route_outbox(mailboxes, arrive_domain, net);
                }
                wait();
            }
        };

        let events = std::thread::scope(|s| {
            let mut chunks = self.nets.chunks_mut(chunk).enumerate();
            let (_, first) = chunks.next().expect("at least one domain");
            let spawned: Vec<_> = chunks
                .map(|(w, nets)| s.spawn(move || worker(w, nets)))
                .collect();
            let mine = worker(0, first);
            spawned
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .sum::<u64>()
                + mine
        });
        for net in &mut self.nets {
            net.advance_to(t_end);
        }
        self.now = t_end;
        events
    }

    /// Drain and inject one domain's mailbox, then report its minimum
    /// pending event time. Injection order is sorted by
    /// `(arrival time, channel, packet id)` — a total order (per-channel
    /// arrival times strictly increase), so the event-queue scheduling
    /// sequence is independent of which thread routed each entry.
    fn drain_into(mailbox: &Mutex<Vec<Mail>>, net: &mut Network<D, A>) -> Option<SimTime> {
        let mut mail = std::mem::take(&mut *mailbox.lock().expect("mailbox poisoned"));
        // The packet is only dereferenced to break a (time, channel) tie.
        mail.sort_by(|a, b| {
            (a.0, (a.1).0)
                .cmp(&(b.0, (b.1).0))
                .then_with(|| a.2.id.cmp(&b.2.id))
        });
        for (t, ch, pkt, epoch) in mail {
            net.deliver_remote(t, ch, pkt, epoch);
        }
        net.peek_time()
    }

    /// Route one domain's outbox into the target mailboxes.
    fn route_outbox(
        mailboxes: &[Mutex<Vec<Mail>>],
        arrive_domain: &[u16],
        net: &mut Network<D, A>,
    ) {
        for entry in net.take_outbox() {
            let d = arrive_domain[entry.1.idx()] as usize;
            mailboxes[d].lock().expect("mailbox poisoned").push(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SinkAgent;
    use crate::ids::{HostId, LeafId, SpineId};
    use crate::packet::{ecmp_mix, Packet};
    use crate::topology::{Fib, LeafSpineBuilder};
    use conga_sim::SimRng;

    #[derive(Default)]
    struct TestEcmp;

    impl Dataplane for TestEcmp {
        fn install(&mut self, _topo: &Topology, _fib: &Fib) {}
        fn leaf_ingress(
            &mut self,
            leaf: LeafId,
            pkt: &mut Packet,
            candidates: &[ChannelId],
            _now: SimTime,
            _rng: &mut SimRng,
        ) -> ChannelId {
            let i = (ecmp_mix(pkt.flow_hash, leaf.0 as u64) % candidates.len() as u64) as usize;
            candidates[i]
        }
        fn spine_forward(
            &mut self,
            spine: SpineId,
            pkt: &mut Packet,
            candidates: &[ChannelId],
            _now: SimTime,
            _rng: &mut SimRng,
        ) -> ChannelId {
            let i =
                (ecmp_mix(pkt.flow_hash, 1000 + spine.0 as u64) % candidates.len() as u64) as usize;
            candidates[i]
        }
        fn on_fabric_tx(&mut self, _ch: ChannelId, _pkt: &mut Packet, _now: SimTime) {}
        fn leaf_egress(&mut self, _leaf: LeafId, _pkt: &Packet, _now: SimTime) {}
        fn name(&self) -> &'static str {
            "test-ecmp"
        }
    }

    fn topo() -> Topology {
        LeafSpineBuilder::new(2, 2, 2)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .build()
    }

    fn sharded(workers: usize) -> ShardedNetwork<TestEcmp, SinkAgent> {
        ShardedNetwork::new(&topo(), 1, workers, |_| (TestEcmp, SinkAgent::default()))
    }

    /// A delivery observation: `(time, domain, packet id, seq)`.
    type Delivery = (u64, usize, u64, u64);

    /// Drive a burst of cross-leaf packets and collect every delivery.
    fn run_burst(workers: usize) -> (Vec<Delivery>, u64, u64) {
        let mut net = sharded(workers);
        for f in 0..30u32 {
            let pkt = Packet::data(
                f,
                0,
                ecmp_mix(f as u64, 0xAB),
                HostId(0),
                HostId(2),
                f as u64,
                1460,
                SimTime::ZERO,
            );
            // Source host 0 lives in domain 0: inject there.
            crate::engine::inject(net.domain_mut(0), pkt);
        }
        net.run_until(SimTime::from_millis(10));
        let mut got = Vec::new();
        let mut injected = 0;
        let mut delivered = 0;
        for d in 0..net.n_domains() {
            let dom = net.domain(d);
            injected += dom.stats.injected_pkts;
            delivered += dom.stats.delivered_pkts;
            for (t, p) in &dom.agent.received {
                got.push((t.as_nanos(), d, p.id, p.seq));
            }
        }
        (got, injected, delivered)
    }

    #[test]
    fn lookahead_is_min_cross_domain_delay() {
        let net = sharded(1);
        // Every fabric + access delay in the builder defaults apply; the
        // cross-domain set is non-empty in a 2-leaf fabric.
        assert!(net.lookahead().is_some());
        let min_delay = topo()
            .channels
            .iter()
            .map(|c| c.delay)
            .min()
            .expect("channels");
        assert!(net.lookahead().unwrap() >= min_delay);
    }

    #[test]
    fn cross_leaf_burst_fully_delivered() {
        let (got, injected, delivered) = run_burst(1);
        assert_eq!(injected, 30);
        assert_eq!(delivered, 30);
        // Deliveries land in domain 1 (host 2 is under leaf 1).
        assert!(got.iter().all(|&(_, d, _, _)| d == 1));
    }

    #[test]
    fn worker_count_does_not_change_the_run() {
        let one = run_burst(1);
        let two = run_burst(2);
        assert_eq!(one, two);
    }

    /// A requested worker count that does not divide the domains must not
    /// leave a thread waiting for a worker with no chunk: 6 leaves on 4
    /// workers are 3 chunks of 2 (this hung on a 4-party barrier).
    #[test]
    fn uneven_worker_count_runs_on_the_non_empty_chunks() {
        let topo = LeafSpineBuilder::new(6, 2, 1).build();
        let mut net = ShardedNetwork::new(&topo, 1, 4, |_| (TestEcmp, SinkAgent::default()));
        assert_eq!((net.n_domains(), net.workers()), (6, 3));
        // Host h hangs off leaf h: domain 0 → domain 5 crosses the fabric.
        crate::engine::inject(
            net.domain_mut(0),
            Packet::data(0, 0, 7, HostId(0), HostId(5), 0, 100, SimTime::ZERO),
        );
        net.run_until(SimTime::from_millis(1));
        assert_eq!(net.domain(5).agent.received.len(), 1);
    }

    #[test]
    fn packet_ids_are_domain_disjoint() {
        let mut net = sharded(1);
        crate::engine::inject(
            net.domain_mut(0),
            Packet::data(0, 0, 7, HostId(0), HostId(2), 0, 100, SimTime::ZERO),
        );
        crate::engine::inject(
            net.domain_mut(1),
            Packet::data(1, 0, 9, HostId(2), HostId(0), 0, 100, SimTime::ZERO),
        );
        net.run_until(SimTime::from_millis(1));
        let a = net.domain(1).agent.received[0].1.id;
        let b = net.domain(0).agent.received[0].1.id;
        assert_eq!(a >> 48, 0, "domain 0 mints ids in 0 << 48 ..");
        assert_eq!(b >> 48, 1, "domain 1 mints ids in 1 << 48 ..");
    }

    /// A domain id narrower than the leaf count aliases: as `u8`, leaf 256
    /// becomes domain 0, its arrivals are scheduled in the wrong replica
    /// and its packet ids collide with domain 0's.
    #[test]
    fn domains_above_256_leaves_do_not_alias() {
        let topo = LeafSpineBuilder::new(257, 1, 1).build();
        let mut net = ShardedNetwork::new(&topo, 1, 1, |_| (TestEcmp, SinkAgent::default()));
        assert_eq!(net.n_domains(), 257);
        let into_leaf_256 = topo
            .channels
            .iter()
            .position(|c| c.dst == NodeId::Leaf(LeafId(256)))
            .expect("leaf 256 has an inbound channel");
        let ch = ChannelId(into_leaf_256 as u32);
        assert_eq!(net.rx_domain(ch), 256);
        let from_leaf_256 = topo
            .channels
            .iter()
            .position(|c| c.src == NodeId::Leaf(LeafId(256)))
            .expect("leaf 256 has an outbound channel");
        assert_eq!(net.tx_domain(ChannelId(from_leaf_256 as u32)), 256);
        // Host h hangs off leaf h. One packet each way between the first
        // and the last domain: both arrive, with ids from disjoint bases.
        crate::engine::inject(
            net.domain_mut(0),
            Packet::data(0, 0, 7, HostId(0), HostId(256), 0, 100, SimTime::ZERO),
        );
        crate::engine::inject(
            net.domain_mut(256),
            Packet::data(1, 0, 9, HostId(256), HostId(0), 0, 100, SimTime::ZERO),
        );
        net.run_until(SimTime::from_millis(1));
        let at_256 = &net.domain(256).agent.received;
        let at_0 = &net.domain(0).agent.received;
        assert_eq!((at_256.len(), at_0.len()), (1, 1));
        assert_eq!(at_256[0].1.id >> 48, 0, "minted by domain 0");
        assert_eq!(at_0[0].1.id >> 48, 256, "minted by domain 256");
    }

    #[test]
    fn three_tier_worker_count_does_not_change_the_run() {
        use crate::topology::TopologyBuilder;
        // 2 pods x (2 leaves + 2 spines), 2 cores, 2 hosts/leaf; host 0
        // (pod 0) → host 4 (leaf 2, pod 1) crosses the core tier.
        let run = |workers: usize| {
            let topo = TopologyBuilder::three_tier(2, 2, 2, 2, 2).build();
            let mut net =
                ShardedNetwork::new(&topo, 1, workers, |_| (TestEcmp, SinkAgent::default()));
            for f in 0..30u32 {
                let pkt = Packet::data(
                    f,
                    0,
                    ecmp_mix(f as u64, 0xEE),
                    HostId(0),
                    HostId(4),
                    f as u64,
                    1460,
                    SimTime::ZERO,
                );
                crate::engine::inject(net.domain_mut(0), pkt);
            }
            net.run_until(SimTime::from_millis(10));
            let mut got: Vec<Delivery> = Vec::new();
            let (mut injected, mut delivered) = (0, 0);
            for d in 0..net.n_domains() {
                let dom = net.domain(d);
                injected += dom.stats.injected_pkts;
                delivered += dom.stats.delivered_pkts;
                for (t, p) in &dom.agent.received {
                    got.push((t.as_nanos(), d, p.id, p.seq));
                }
            }
            (got, injected, delivered)
        };
        let one = run(1);
        assert_eq!(one.1, 30);
        assert_eq!(one.2, 30, "all inter-pod packets delivered");
        assert!(
            one.0.iter().all(|&(_, d, _, _)| d == 2),
            "host 4 lives in domain 2"
        );
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn three_tier_domain_assignment_reduces_to_two_tier_rule() {
        use crate::ids::SpineId;
        // Two-tier fabric: historical spine % n_leaves.
        let two = topo();
        assert_eq!(super::domain_of(&two, NodeId::Spine(SpineId(0))), 0);
        assert_eq!(super::domain_of(&two, NodeId::Spine(SpineId(1))), 1);
        // Three-tier: spines stay inside their pod's leaf range, cores
        // round-robin over all leaves.
        use crate::ids::CoreId;
        use crate::topology::TopologyBuilder;
        let three = TopologyBuilder::three_tier(2, 2, 2, 3, 2).build();
        assert_eq!(super::domain_of(&three, NodeId::Spine(SpineId(0))), 0);
        assert_eq!(super::domain_of(&three, NodeId::Spine(SpineId(1))), 1);
        assert_eq!(super::domain_of(&three, NodeId::Spine(SpineId(2))), 2);
        assert_eq!(super::domain_of(&three, NodeId::Spine(SpineId(3))), 3);
        assert_eq!(super::domain_of(&three, NodeId::Core(CoreId(0))), 0);
        assert_eq!(super::domain_of(&three, NodeId::Core(CoreId(2))), 2);
    }

    #[test]
    fn replicated_fault_schedule_counts_transitions_once() {
        let run = |workers: usize| -> (u64, u64, u64) {
            let mut net = sharded(workers);
            // leaf0-spine1 is cross-domain (spine1 lives in domain 1).
            net.each(|_, n| {
                n.schedule_link_fault(SimTime::from_micros(20), LeafId(0), SpineId(1), 0);
                n.schedule_link_recovery(SimTime::from_micros(400), LeafId(0), SpineId(1), 0);
            });
            for f in 0..20u32 {
                let pkt = Packet::data(
                    f,
                    0,
                    ecmp_mix(f as u64, 0xCD),
                    HostId(0),
                    HostId(2),
                    0,
                    1460,
                    SimTime::ZERO,
                );
                crate::engine::inject(net.domain_mut(0), pkt);
            }
            net.run_until(SimTime::from_millis(5));
            let mut transitions = 0;
            let mut blackholed = 0;
            let mut delivered = 0;
            for d in 0..net.n_domains() {
                transitions += net.domain(d).stats.fault_transitions;
                blackholed += net.domain(d).stats.blackholed;
                delivered += net.domain(d).stats.delivered_pkts;
            }
            (transitions, blackholed, delivered)
        };
        let (transitions, blackholed, delivered) = run(1);
        assert_eq!(transitions, 4, "2 fail + 2 recover, owner-counted once");
        assert_eq!(delivered + blackholed, 20, "conservation through the fault");
        assert_eq!(run(1), run(2));
    }
}
