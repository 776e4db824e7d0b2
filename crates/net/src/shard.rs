//! Sharded execution: one simulation partitioned into leaf-group domains,
//! one per worker thread, advanced in conservative time windows with a
//! barrier exchange of cross-domain packets.
//!
//! ## Decomposition
//!
//! A run on `workers` threads is split into `n = min(workers, n_leaves)`
//! *domains* (fewer when the groups come out uneven: 6 leaves on 4
//! workers are 3 groups of 2). The leaves are dealt into contiguous groups
//! of `⌈n_leaves / n⌉`, and domain `d` owns leaf group `d`, every host
//! under it, and a fixed share of the upper tiers: a spine goes with the
//! leaf its pod-local index picks among its own pod's leaves (which in a
//! two-tier fabric reduces to leaf `spine % n_leaves`), and core switches
//! round-robin over the domains (spines and cores are stateless ECMP hops
//! plus their DREs, so any fixed assignment works). Leaves are numbered
//! pod-major, so on a three-tier fabric whose pods divide evenly among
//! the workers a domain is a run of whole pods and only spine–core
//! channels cross domains.
//!
//! The cut is one [`PartitionTable`], built once per run and shared by
//! every domain: the domain of each host and of each channel's two ends,
//! and the lookahead. Each domain holds a **full replica** of the
//! [`crate::Network`] over the same topology — same FIB, same fault
//! schedule — with its domain id, the table and an outbox: it only ever
//! *transmits* on channels whose source node it owns, and an owned channel
//! whose destination lies in another domain diverts its arrival into the
//! outbox instead of the local event queue. One domain is the monolithic
//! engine, [`crate::Network::new`]'s one-domain table: every channel is
//! its own, the outbox stays empty, there is no lookahead, and a
//! `run_until` slice is one window.
//!
//! Replication is what keeps the dataplane logic untouched: leaf `l`'s
//! congestion tables and flowlet state are only ever exercised by events
//! processed in `l`'s domain, spine DREs only in the spine's domain, and
//! the replica counters elsewhere stay zero — so summing per-domain metric
//! registries reproduces the monolithic totals exactly.
//!
//! ## Conservative windows
//!
//! Domains advance in lockstep windows bounded by
//! [`conga_sim::conservative_window`] with lookahead equal to the minimum
//! propagation delay over cross-domain channels. A packet transmitted at
//! `t ≥ m` (the global minimum pending time) arrives remotely at
//! `t + ser + delay ≥ m + lookahead`, so executing strictly below
//! `m + lookahead` can never miss a cross-domain arrival.
//!
//! ## One wait per window
//!
//! Worker `w` runs domain `w`. A window is: run the domain up to the
//! bound, *post*, wait once, *deliver*.
//!
//! * **Post.** The worker moves its domain's outbox into *lanes*, one
//!   `Mutex<Vec<Mail>>` per `(parity, source domain, destination domain)`,
//!   and publishes in its *slot* the earliest time it knows of: the
//!   minimum over its own queue's next event and the arrivals it has just
//!   mailed. The mail is not in any event queue yet, but the minimum over
//!   all slots is exactly what the minimum over all queues will be once it
//!   is, so the bound can be derived before anything is delivered and the
//!   exchange needs no second wait.
//! * **Wait** ([`Rendezvous`]): spin for a bounded count, then yield,
//!   then park on a condvar. Workers on their own cores finish a window
//!   within microseconds of each other and meet in the spin or the first
//!   yields (which return at once when nothing else wants the core);
//!   workers sharing a core hand it over in the yield; only a worker whose
//!   peers are descheduled for long goes to sleep. There is no wait at all
//!   at one worker.
//! * **Deliver.** Every worker reads all slots, derives the same bound,
//!   and injects the lanes addressed to its own domain before it runs
//!   the next window or, when the slice is over, before it returns. No
//!   sort: an arrival's key names it, and a channel's mail comes from the
//!   one domain that transmits on it, in transmission order.
//!
//! Slots and lanes are double-buffered by window parity. A worker that
//! leaves wait `k` early posts window `k+1`'s mail and minimum into the
//! *other* parity while a slower peer is still reading window `k`'s, and it
//! cannot come round to the first parity again before wait `k+1`, which the
//! slow peer only reaches after it has finished reading. So a lane is
//! locked by its one writer before a wait and by its one reader after it,
//! never by both at once: the `Mutex` is what makes the hand-over safe
//! code, and it is never contended.
//!
//! ## Determinism
//!
//! Each domain processes, in key order, exactly the events of the nodes
//! it owns, under the keys the monolithic [`Network`] gives them: an event
//! is keyed by what it is, a node draws from its own random stream, and a
//! packet's id counts its source host's emissions. So the run is the
//! monolithic run, whatever the partition — and so whatever the worker
//! count, which is all that picks the partition. The differential battery
//! in `tests/shards.rs` pins this byte-for-byte at whole-fabric, leaf-group
//! and per-leaf partitions, against the monolithic engine too.

use crate::engine::{Dataplane, HostAgent, Network};
use crate::ids::{ChannelId, HostId, NodeId};
use crate::packet::Packet;
use crate::topology::Topology;
use conga_sim::{conservative_window, QueueKind, SimDuration, SimTime};
use conga_telemetry::SeriesRegistry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cross-domain packet in flight between windows:
/// `(arrival time, channel, packet, fail epoch at tx start)`. The packet
/// is the sender's handle: outbox and lane move 24-byte entries, and the
/// receiving domain frees the allocation the sending domain made.
pub type Mail = (SimTime, ChannelId, Box<Packet>, u32);

/// A value on cache lines of its own (two: adjacent lines are prefetched
/// as a pair), so that a worker publishing its minimum does not take the
/// line its neighbour is about to publish on.
#[repr(align(128))]
struct Padded<T>(T);

/// Iterations a waiter spins on the generation counter before it starts
/// yielding. A count, not a duration — this crate reads no clock. Short on
/// purpose: it only has to catch a peer that arrives within a microsecond
/// or two without a system call. On two free cores `yield_now` returns at
/// once and is itself the longer spin (0 to 4096 here all read the same on
/// `clos3_shards2`); on one shared core every iteration is time the peer
/// could have run in (`fleet fig15 --quick --shards 2` under `taskset -c
/// 0`: 8 s at 64, 19 s at 1024, 58 s at 4096).
const SPINS: u32 = 64;
/// `yield_now` calls after the spin before the waiter parks: a few hundred
/// microseconds on a free core, several windows' worth, so that only a
/// peer that is descheduled or far behind costs a futex sleep and wake-up.
const YIELDS: u32 = 256;

/// The once-per-window rendezvous: a generation-counter barrier whose
/// waiters spin, then yield, then park on a condvar. Nobody sleeps, and
/// nobody is woken, while every party arrives within the spin and yields.
struct Rendezvous {
    parties: usize,
    arrived: Padded<AtomicUsize>,
    generation: Padded<AtomicUsize>,
    /// Waiters inside the condvar section. The last arriver skips the
    /// lock and the wake-up call while this reads 0.
    parked: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Rendezvous {
            parties,
            arrived: Padded(AtomicUsize::new(0)),
            generation: Padded(AtomicUsize::new(0)),
            parked: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Return once all `parties` have called `wait` the same number of
    /// times. Everything a party wrote before its call is visible to every
    /// party after it: arrivals form a release sequence on `arrived`, which
    /// the last arriver acquires before its `SeqCst` store to `generation`,
    /// which every leaver loads.
    fn wait(&self) {
        if self.parties == 1 {
            return;
        }
        // Stable until this thread has arrived: the generation only moves
        // once every party has.
        let gen = self.generation.0.load(Ordering::SeqCst);
        let passed = || self.generation.0.load(Ordering::SeqCst) != gen;
        if self.arrived.0.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset first: a peer re-arrives only after it saw the store
            // below.
            self.arrived.0.store(0, Ordering::Relaxed);
            self.generation
                .0
                .store(gen.wrapping_add(1), Ordering::SeqCst);
            // `SeqCst` on all four accesses (this store and load, a
            // parker's increment and re-check) rules out the one bad
            // outcome: this load missing the increment *and* the parker's
            // re-check missing the store.
            if self.parked.load(Ordering::SeqCst) > 0 {
                // Taking the lock orders this wake-up after the parker has
                // either re-checked or started waiting.
                drop(self.lock.lock().expect("a barrier waiter panicked"));
                self.wake.notify_all();
            }
            return;
        }
        for _ in 0..SPINS {
            if passed() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if passed() {
                return;
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock.lock().expect("a barrier waiter panicked");
        self.parked.fetch_add(1, Ordering::SeqCst);
        while !passed() {
            guard = self.wake.wait(guard).expect("a barrier waiter panicked");
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One worker's buffers, kept between windows and between `run_until`
/// calls so that a steady-state window allocates nothing.
struct Scratch {
    /// Mail in hand: the domain's drained outbox on the way out, its
    /// collected lanes on the way in.
    buf: Vec<Mail>,
    /// The outgoing mail sorted by destination domain, so that each lane
    /// is locked once per window rather than once per packet.
    by_domain: Vec<Vec<Mail>>,
}

/// Domain that owns a node when the leaves are dealt into `n_domains`
/// contiguous groups of `group`: hosts and leaves by their leaf's group,
/// spines with a leaf of their own pod, cores round-robin across the
/// domains.
fn domain_of(topo: &Topology, group: usize, n_domains: usize, node: NodeId) -> u16 {
    let leaf = match node {
        NodeId::Host(h) => topo.leaf_of(h).idx(),
        NodeId::Leaf(l) => l.idx(),
        NodeId::Spine(s) => {
            // Pod-local round-robin: spine with pod-local index `sl` in pod
            // `p` goes with leaf `p*leaves_per_pod + sl % leaves_per_pod`,
            // which with one pod is leaf `spine % n_leaves`.
            let lpp = topo.leaves_per_pod().max(1);
            let spp = topo.spines_per_pod().max(1);
            (s.0 / spp * lpp + s.0 % spp % lpp) as usize
        }
        NodeId::Core(c) => return (c.idx() % n_domains) as u16,
    };
    (leaf / group) as u16
}

/// How a run's fabric is cut into domains: built once per run, by
/// [`ShardedNetwork::partition`] or, as one domain, by [`Network::new`],
/// and shared by every domain of the run.
#[derive(Debug)]
pub struct PartitionTable {
    n_domains: usize,
    /// Each host's domain: its leaf's.
    hosts: Vec<u16>,
    /// Each channel's transmit domain (its source node's), which keeps
    /// its port, and receive domain (its destination node's), which
    /// processes its arrivals.
    tx: Vec<u16>,
    rx: Vec<u16>,
    /// Minimum propagation delay over the channels that cross domains.
    lookahead: Option<SimDuration>,
}

impl PartitionTable {
    /// Deal `topo`'s leaves into one contiguous group of
    /// `ceil(n_leaves / workers)` per worker (0 workers mean 1, and more
    /// than `n_leaves` mean `n_leaves`); the groups that come out
    /// non-empty are the domains.
    pub fn new(topo: &Topology, workers: usize) -> Self {
        let n_leaves = topo.n_leaves as usize;
        assert!(n_leaves >= 1, "topology has no leaves");
        let group = n_leaves.div_ceil(workers.clamp(1, n_leaves));
        let n_domains = n_leaves.div_ceil(group);
        // Domain ids are u16: beyond 2^16 domains they would alias.
        assert!(
            n_domains <= 1 << 16,
            "{n_domains} domains exceed the 65536 ids can name"
        );
        let of = |node| domain_of(topo, group, n_domains, node);
        let tx: Vec<u16> = topo.channels.iter().map(|c| of(c.src)).collect();
        let rx: Vec<u16> = topo.channels.iter().map(|c| of(c.dst)).collect();
        let hosts = topo.host_leaf.iter().map(|l| (l.idx() / group) as u16);
        let lookahead = topo
            .channels
            .iter()
            .zip(tx.iter().zip(&rx))
            .filter(|(_, (t, r))| t != r)
            .map(|(c, _)| c.delay)
            .min();
        PartitionTable {
            n_domains,
            hosts: hosts.collect(),
            tx,
            rx,
            lookahead,
        }
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.n_domains
    }

    /// Domain that owns host `h`: its leaf's group. It starts the host's
    /// flows and receives the flows sent to it.
    #[inline]
    pub fn host_domain(&self, h: HostId) -> usize {
        self.hosts[h.idx()] as usize
    }

    /// Domain that owns `ch`'s transmit side — where its port counters
    /// (tx bytes, queue occupancy) are maintained.
    #[inline]
    pub fn tx_domain(&self, ch: ChannelId) -> usize {
        self.tx[ch.idx()] as usize
    }

    /// Domain that processes `ch`'s arrivals.
    #[inline]
    pub fn rx_domain(&self, ch: ChannelId) -> usize {
        self.rx[ch.idx()] as usize
    }

    /// The conservative lookahead: minimum propagation delay over
    /// cross-domain channels (`None` when every channel is intra-domain).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

/// A simulation partitioned into leaf-group domains, one per worker
/// thread, that advance in conservative windows, exchanging cross-domain
/// packets between them.
///
/// The worker count picks the partition and the partition changes no
/// byte (see the module docs), which is why `--shards` is excluded from
/// scenario hashes.
pub struct ShardedNetwork<D: Dataplane, A: HostAgent> {
    nets: Vec<Network<D, A>>,
    /// Mail between windows, `[parity][source domain][destination domain]`
    /// flattened; empty outside `run_until`.
    lanes: Vec<Mutex<Vec<Mail>>>,
    /// One per domain, and so per worker.
    scratch: Vec<Scratch>,
    now: SimTime,
}

impl<D: Dataplane + Send, A: HostAgent + Send> ShardedNetwork<D, A> {
    /// Partition `topo` into one domain per worker, as
    /// [`PartitionTable::new`] deals it. The groups that come out
    /// non-empty are the domains *and* the workers — 6 leaves on 4
    /// requested workers run as 3 domains on 3 threads — so no thread ever
    /// waits for a worker that has nothing to run. A single domain is the
    /// monolithic engine, [`Network::new`].
    /// `mk(d)` constructs domain `d`'s dataplane and host agent — every
    /// domain gets an identical fresh replica, built with the run seed —
    /// and every domain's future-event list is of kind `queue`.
    pub fn partition(
        topo: &Topology,
        seed: u64,
        workers: usize,
        queue: QueueKind,
        mut mk: impl FnMut(usize) -> (D, A),
    ) -> Self {
        let table = Arc::new(PartitionTable::new(topo, workers));
        let n_domains = table.n_domains();
        let nets = (0..n_domains)
            .map(|d| {
                let (dp, agent) = mk(d);
                Network::in_domain(topo.clone(), dp, agent, seed, Arc::clone(&table), d, queue)
            })
            .collect();
        ShardedNetwork {
            nets,
            lanes: (0..2 * n_domains * n_domains)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            scratch: (0..n_domains)
                .map(|_| Scratch {
                    buf: Vec::new(),
                    by_domain: (0..n_domains).map(|_| Vec::new()).collect(),
                })
                .collect(),
            now: SimTime::ZERO,
        }
    }

    /// The partition every domain shares.
    pub fn table(&self) -> &PartitionTable {
        &self.nets[0].part
    }

    /// Domain that owns `ch`'s transmit side (see
    /// [`PartitionTable::tx_domain`]).
    pub fn tx_domain(&self, ch: ChannelId) -> usize {
        self.table().tx_domain(ch)
    }

    /// Number of domains, which is also the number of worker threads the
    /// windows execute on (the calling thread is one).
    pub fn n_domains(&self) -> usize {
        self.nets.len()
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
        // Every part is made before the first absorb, so `reg` allocates
        // the names it lacks in one burst above the parts. A domain exports
        // only its own ports, and absorbing each part as it is made mixes
        // `reg`'s names into the next part's allocations, which read
        // +0.75 MB peak RSS on congabench's `testbed_mice`.
        let parts: Vec<_> = self
            .nets
            .iter()
            .map(|net| {
                let mut part = conga_telemetry::MetricsRegistry::new();
                net.export_metrics(&mut part);
                part
            })
            .collect();
        for part in &parts {
            reg.absorb(part);
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
    /// exchanging cross-domain packets between them. Returns the total
    /// number of events processed across domains.
    ///
    /// One loop for every worker count: worker `d` runs domain `d`, the
    /// calling thread is worker 0, and a window costs one wait (none at
    /// one worker, where there is nobody to wait for). With `p` the
    /// window's parity:
    ///
    /// ```text
    /// publish in slot[p][d]: min(own queue's next event, arrivals just mailed)
    /// ── wait ── every slot[p] and every lane[p] of this window is written
    /// every worker computes the same bound from slot[p][..]
    /// deliver lane[p][..][d] into the own event queue
    /// stop if there is no bound; else run the window
    /// move the own outbox into lane[1-p][d][..]
    /// ```
    ///
    /// The module documentation says why one wait is enough and why the
    /// parities never meet.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        let n_domains = self.nets.len();
        let barrier = Rendezvous::new(n_domains);
        let slots: [Vec<Padded<AtomicU64>>; 2] =
            [0, 1].map(|_| (0..n_domains).map(|_| Padded(AtomicU64::new(0))).collect());
        let lanes = &self.lanes;
        let lane = |parity: usize, from: usize, to: usize| {
            lanes[(parity * n_domains + from) * n_domains + to]
                .lock()
                .expect("a shard worker panicked")
        };
        let table = Arc::clone(&self.nets[0].part);

        let next_event =
            |net: &mut Network<D, A>| net.peek_time().map_or(u64::MAX, |t| t.as_nanos());

        let worker = |d: usize, net: &mut Network<D, A>, scratch: &mut Scratch| {
            let Scratch { buf, by_domain } = scratch;
            let mut events = 0u64;
            let mut parity = 0;
            let mut earliest = next_event(net);
            loop {
                // The wait orders the slots; Release/Acquire says so
                // without leaning on the barrier's internals.
                slots[parity][d].0.store(earliest, Ordering::Release);
                barrier.wait();
                let m = slots[parity]
                    .iter()
                    .map(|slot| slot.0.load(Ordering::Acquire))
                    .fold(u64::MAX, u64::min);
                let min_pending = (m != u64::MAX).then(|| SimTime::from_nanos(m));

                for from in 0..n_domains {
                    buf.append(&mut lane(parity, from, d));
                }
                for (t, ch, pkt, epoch) in buf.drain(..) {
                    net.deliver_remote(t, ch, pkt, epoch);
                }
                let Some(bound) = conservative_window(min_pending, table.lookahead(), t_end) else {
                    break events;
                };

                events += net.run_window(bound);
                net.drain_outbox(buf);
                earliest = next_event(net);
                for entry in buf.drain(..) {
                    earliest = earliest.min(entry.0.as_nanos());
                    by_domain[table.rx_domain(entry.1)].push(entry);
                }
                parity ^= 1;
                for (to, mail) in by_domain.iter_mut().enumerate() {
                    if !mail.is_empty() {
                        lane(parity, d, to).append(mail);
                    }
                }
            }
        };

        let events = std::thread::scope(|s| {
            let mut domains = self.nets.iter_mut().zip(&mut self.scratch).enumerate();
            let (_, (first, scratch)) = domains.next().expect("at least one domain");
            let spawned: Vec<_> = domains
                .map(|(d, (net, scratch))| s.spawn(move || worker(d, net, scratch)))
                .collect();
            let mine = worker(0, first, scratch);
            spawned
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .sum::<u64>()
                + mine
        });
        debug_assert!(
            self.lanes
                .iter_mut()
                .all(|l| l.get_mut().expect("a shard worker panicked").is_empty()),
            "mail left in a lane: the last window's was not delivered"
        );
        for net in &mut self.nets {
            net.advance_to(t_end);
        }
        self.now = t_end;
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SinkAgent;
    use crate::ids::{HostId, LeafId, Link, SpineId};
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
        ShardedNetwork::partition(&topo(), 1, workers, QueueKind::Heap, |_| {
            (TestEcmp, SinkAgent::default())
        })
    }

    /// A delivery observation: `(time, domain, packet id, seq)`.
    type Delivery = (u64, usize, u64, u64);

    /// The deliveries without the domain, which the partition picks.
    fn undomained(run: (Vec<Delivery>, u64, u64)) -> (Vec<(u64, u64, u64)>, u64, u64) {
        let got = run.0.iter().map(|&(t, _, id, seq)| (t, id, seq)).collect();
        (got, run.1, run.2)
    }

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
        // One domain has no cross-domain channel: a slice is one window.
        assert_eq!(sharded(1).table().lookahead(), None);
        let net = sharded(2);
        // Every fabric + access delay in the builder defaults apply; the
        // cross-domain set is non-empty across two leaf domains.
        assert!(net.table().lookahead().is_some());
        let min_delay = topo()
            .channels
            .iter()
            .map(|c| c.delay)
            .min()
            .expect("channels");
        assert!(net.table().lookahead().unwrap() >= min_delay);
    }

    #[test]
    fn cross_leaf_burst_fully_delivered() {
        let (got, injected, delivered) = run_burst(2);
        assert_eq!(injected, 30);
        assert_eq!(delivered, 30);
        // Deliveries land in domain 1 (host 2 is under leaf 1).
        assert!(got.iter().all(|&(_, d, _, _)| d == 1));
    }

    #[test]
    fn worker_count_does_not_change_the_run() {
        let (one, two) = (run_burst(1), run_burst(2));
        assert!(one.0.iter().all(|&(_, d, _, _)| d == 0), "one domain");
        assert_eq!(undomained(one), undomained(two));
    }

    /// `run_until(SimTime::MAX)` drains a burst on the one-domain engine
    /// and on two domains alike: the slice's exclusive bound saturates at
    /// `SimTime::MAX` rather than overflowing, and every completion is
    /// settled by the end.
    #[test]
    fn a_run_to_the_end_of_time_drains_a_burst() {
        let burst = |net: &mut Network<TestEcmp, SinkAgent>| {
            for f in 0..30u32 {
                let h = ecmp_mix(f as u64, 0xAB);
                let pkt = Packet::data(f, 0, h, HostId(0), HostId(2), 0, 1460, SimTime::ZERO);
                crate::engine::inject(net, pkt);
            }
        };
        let times = |net: &Network<TestEcmp, SinkAgent>| -> Vec<SimTime> {
            let idle = (0..net.topo.channels.len() as u32).all(|i| !net.port(ChannelId(i)).busy);
            assert!(idle, "a serializer is still busy");
            assert_eq!(net.now(), SimTime::MAX);
            net.agent.received.iter().map(|r| r.0).collect()
        };
        let mut one = Network::new(topo(), TestEcmp, SinkAgent::default(), 1);
        burst(&mut one);
        one.run_until(SimTime::MAX);
        let whole = times(&one);
        assert_eq!(whole.len(), 30);

        let mut two = sharded(2);
        burst(two.domain_mut(0));
        two.run_until(SimTime::MAX);
        assert_eq!(two.now(), SimTime::MAX);
        assert!(times(two.domain(0)).is_empty());
        assert_eq!(times(two.domain(1)), whole);
    }

    /// A requested worker count that does not divide the leaves must not
    /// leave a thread waiting for a worker with no group: 6 leaves on 4
    /// workers are 3 groups of 2 (this hung on a 4-party barrier).
    #[test]
    fn uneven_worker_count_runs_on_the_non_empty_groups() {
        let topo = LeafSpineBuilder::new(6, 2, 1).build();
        let mut net = ShardedNetwork::partition(&topo, 1, 4, QueueKind::Heap, |_| {
            (TestEcmp, SinkAgent::default())
        });
        assert_eq!(net.n_domains(), 3);
        // Host h hangs off leaf h, and leaf 5 is in the third group:
        // domain 0 → domain 2 crosses the fabric.
        assert_eq!(net.table().host_domain(HostId(5)), 2);
        crate::engine::inject(
            net.domain_mut(0),
            Packet::data(0, 0, 7, HostId(0), HostId(5), 0, 100, SimTime::ZERO),
        );
        net.run_until(SimTime::from_millis(1));
        assert_eq!(net.domain(2).agent.received.len(), 1);
    }

    /// The partition follows the worker count: one worker is one domain,
    /// the monolithic engine with no lookahead, and two workers on
    /// `clos3_shards2`'s fabric (4 pods of 4 leaves, 2 cores) are two
    /// domains of two whole pods each, one core apiece, so that only
    /// spine–core channels cross between them.
    #[test]
    fn one_domain_per_worker_of_whole_pods() {
        use crate::ids::CoreId;
        use crate::topology::TopologyBuilder;
        let topo = TopologyBuilder::three_tier(4, 4, 2, 2, 16).build();
        let build = |workers| {
            ShardedNetwork::partition(&topo, 1, workers, QueueKind::Heap, |_| {
                (TestEcmp, SinkAgent::default())
            })
        };
        let one = build(1);
        assert_eq!((one.n_domains(), one.table().lookahead()), (1, None));

        let two = build(2);
        assert_eq!(two.n_domains(), 2);
        // Two groups of eight leaves.
        let of = |node| domain_of(&topo, 8, 2, node) as usize;
        for l in 0..16 {
            assert_eq!(of(NodeId::Leaf(LeafId(l))), l as usize / 8, "leaf {l}");
        }
        for s in 0..8 {
            assert_eq!(of(NodeId::Spine(SpineId(s))), s as usize / 4, "spine {s}");
        }
        assert_eq!(
            (of(NodeId::Core(CoreId(0))), of(NodeId::Core(CoreId(1)))),
            (0, 1)
        );
        for (i, c) in topo.channels.iter().enumerate() {
            let ch = ChannelId(i as u32);
            if two.tx_domain(ch) != two.table().rx_domain(ch) {
                let ends = (c.src, c.dst);
                assert!(
                    matches!(
                        ends,
                        (NodeId::Spine(_), NodeId::Core(_)) | (NodeId::Core(_), NodeId::Spine(_))
                    ),
                    "{} → {} crosses domains",
                    c.src,
                    c.dst
                );
            }
        }
        assert_eq!(build(16).n_domains(), 16, "one domain per leaf");
    }

    /// More threads than cores must park, not livelock: every generation
    /// needs all eight scheduled, and nothing here is timed.
    #[test]
    fn barrier_keeps_eight_threads_within_one_generation() {
        const THREADS: usize = 8;
        const GENERATIONS: usize = 10_000;
        let barrier = Rendezvous::new(THREADS);
        let at: Vec<AtomicUsize> = (0..THREADS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for me in 0..THREADS {
                let (barrier, at) = (&barrier, &at);
                s.spawn(move || {
                    for g in 1..=GENERATIONS {
                        at[me].store(g, Ordering::Relaxed);
                        barrier.wait();
                        // Every peer has reached g; none can have passed
                        // wait g + 1, which this thread has yet to join.
                        for peer in at {
                            let p = peer.load(Ordering::Relaxed);
                            assert!(p == g || p == g + 1, "peer at {p} after wait {g}");
                        }
                    }
                });
            }
        });
    }

    /// `run_until(a); run_until(b)` is `run_until(b)`, with cross-domain
    /// packets on the wire at `a`: the last window's mail is in the event
    /// queues, not in a lane, when `run_until` returns.
    #[test]
    fn slicing_a_run_does_not_change_it() {
        // Per receiving host: `(time, packet id)` of each delivery; then
        // the events and deliveries summed over domains.
        type Run = (Vec<Vec<(u64, u64)>>, u64, u64);
        let run = |workers: usize, slices: &[SimTime]| -> Run {
            let mut net = sharded(workers);
            // 30 full-size packets each way take ~36 us to leave the
            // 10G hosts, so both directions are mid-fabric at 20 us.
            for f in 0..30u32 {
                let h = ecmp_mix(f as u64, 0xAB);
                let east = Packet::data(f, 0, h, HostId(0), HostId(2), 0, 1460, SimTime::ZERO);
                crate::engine::inject(net.domain_mut(0), east);
                let west = Packet::data(30 + f, 0, h, HostId(3), HostId(1), 0, 1460, SimTime::ZERO);
                let d = net.table().host_domain(HostId(3));
                crate::engine::inject(net.domain_mut(d), west);
            }
            for &t in slices {
                net.run_until(t);
            }
            let mut got = vec![Vec::new(); 4];
            let (mut events, mut delivered) = (0, 0);
            for d in 0..net.n_domains() {
                let dom = net.domain(d);
                assert_eq!(dom.now(), net.now());
                events += dom.stats.events;
                delivered += dom.stats.delivered_pkts;
                for (t, p) in &dom.agent.received {
                    got[p.dst.idx()].push((t.as_nanos(), p.id));
                }
            }
            (got, events, delivered)
        };
        let (a, b) = (SimTime::from_micros(20), SimTime::from_millis(10));
        let whole = run(1, &[b]);
        assert_eq!(whole.2, 60);
        let until_a = run(1, &[a]);
        assert!(
            [1, 2]
                .iter()
                .all(|&h| (1..30).contains(&until_a.0[h].len())),
            "the burst is neither all in nor all out at the cut"
        );
        for workers in [1, 2] {
            assert_eq!(run(workers, &[a]), until_a, "{workers} workers to a");
            assert_eq!(run(workers, &[a, b]), whole, "{workers} workers");
        }
    }

    /// A packet id is its source host's, above the count of the host's
    /// earlier emissions: the same in any domain.
    #[test]
    fn packet_ids_name_their_source_host() {
        let mut net = sharded(2);
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
        assert_eq!(a, 0, "host 0's first packet");
        assert_eq!(b, 2 << 40, "host 2's first packet");
    }

    /// A leaf index past 255 must not alias: narrowed to `u8`, leaf 256
    /// would be leaf 0 and its arrivals would be scheduled in the wrong
    /// replica. 257 leaves on three workers are groups of 86, 86 and 85,
    /// and leaf 256 is in the last.
    #[test]
    fn domains_above_256_leaves_do_not_alias() {
        let topo = LeafSpineBuilder::new(257, 1, 1).build();
        let mut net = ShardedNetwork::partition(&topo, 1, 3, QueueKind::Heap, |_| {
            (TestEcmp, SinkAgent::default())
        });
        assert_eq!(net.n_domains(), 3);
        let into_leaf_256 = topo
            .channels
            .iter()
            .position(|c| c.dst == NodeId::Leaf(LeafId(256)))
            .expect("leaf 256 has an inbound channel");
        let ch = ChannelId(into_leaf_256 as u32);
        assert_eq!(net.table().rx_domain(ch), 2);
        let from_leaf_256 = topo
            .channels
            .iter()
            .position(|c| c.src == NodeId::Leaf(LeafId(256)))
            .expect("leaf 256 has an outbound channel");
        assert_eq!(net.tx_domain(ChannelId(from_leaf_256 as u32)), 2);
        // Host h hangs off leaf h. One packet each way between the first
        // and the last domain: both arrive, each with its host's id.
        assert_eq!(net.table().host_domain(HostId(256)), 2);
        crate::engine::inject(
            net.domain_mut(0),
            Packet::data(0, 0, 7, HostId(0), HostId(256), 0, 100, SimTime::ZERO),
        );
        crate::engine::inject(
            net.domain_mut(2),
            Packet::data(1, 0, 9, HostId(256), HostId(0), 0, 100, SimTime::ZERO),
        );
        net.run_until(SimTime::from_millis(1));
        let at_256 = &net.domain(2).agent.received;
        let at_0 = &net.domain(0).agent.received;
        assert_eq!((at_256.len(), at_0.len()), (1, 1));
        assert_eq!(at_256[0].1.id >> 40, 0, "sent by host 0");
        assert_eq!(at_0[0].1.id >> 40, 256, "sent by host 256");
    }

    #[test]
    fn three_tier_worker_count_does_not_change_the_run() {
        use crate::topology::TopologyBuilder;
        // 2 pods x (2 leaves + 2 spines), 2 cores, 2 hosts/leaf; host 0
        // (pod 0) → host 4 (leaf 2, pod 1) crosses the core tier.
        let run = |workers: usize| {
            let topo = TopologyBuilder::three_tier(2, 2, 2, 2, 2).build();
            let mut net = ShardedNetwork::partition(&topo, 1, workers, QueueKind::Heap, |_| {
                (TestEcmp, SinkAgent::default())
            });
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
            // Host 4 hangs off leaf 2: domain 0, 1 and 2 at 1, 2 and 4
            // workers.
            let rx = net.table().host_domain(HostId(4));
            assert_eq!(rx, 2 * workers / 4, "host 4's domain at {workers} workers");
            assert!(got.iter().all(|&(_, d, _, _)| d == rx));
            undomained((got, injected, delivered))
        };
        let one = run(1);
        assert_eq!(one.1, 30);
        assert_eq!(one.2, 30, "all inter-pod packets delivered");
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn three_tier_domain_assignment_reduces_to_two_tier_rule() {
        use crate::ids::CoreId;
        use crate::topology::TopologyBuilder;
        // Per-leaf domains (groups of one) on a two-tier fabric: spine s
        // goes with leaf s % n_leaves.
        let two = topo();
        let spine = |s| NodeId::Spine(SpineId(s));
        assert_eq!(domain_of(&two, 1, 2, spine(0)), 0);
        assert_eq!(domain_of(&two, 1, 2, spine(1)), 1);
        // Three-tier, per leaf: spines stay inside their pod's leaf range,
        // cores round-robin over the domains.
        let three = TopologyBuilder::three_tier(2, 2, 2, 3, 2).build();
        let per_leaf = |node| domain_of(&three, 1, 4, node);
        assert_eq!([0, 1, 2, 3].map(|s| per_leaf(spine(s))), [0, 1, 2, 3]);
        assert_eq!(
            [0, 1, 2].map(|c| per_leaf(NodeId::Core(CoreId(c)))),
            [0, 1, 2]
        );
        // Two groups of two leaves are the two pods; the three cores
        // alternate between them.
        let per_pod = |node| domain_of(&three, 2, 2, node);
        assert_eq!([0, 1, 2, 3].map(|s| per_pod(spine(s))), [0, 0, 1, 1]);
        assert_eq!(
            [0, 1, 2].map(|c| per_pod(NodeId::Core(CoreId(c)))),
            [0, 1, 0]
        );
    }

    #[test]
    fn replicated_fault_schedule_counts_transitions_once() {
        let run = |workers: usize| -> (u64, u64, u64) {
            let mut net = sharded(workers);
            // At two workers leaf0-spine1 is cross-domain (spine1 lives in
            // domain 1).
            let link = Link::new(NodeId::Leaf(LeafId(0)), NodeId::Spine(SpineId(1)), 0);
            net.each(|_, n| {
                n.schedule_link(SimTime::from_micros(20), link, false);
                n.schedule_link(SimTime::from_micros(400), link, true);
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
        let (transitions, blackholed, delivered) = run(2);
        assert_eq!(transitions, 4, "2 fail + 2 recover, owner-counted once");
        assert_eq!(delivered + blackholed, 20, "conservation through the fault");
        assert_eq!(run(1), run(2));
    }

    /// A packet that reaches a port at exactly the time the port's
    /// serializer completes queues behind the packet on the wire: an
    /// arrival sorts before a completion at the same time, so the folded
    /// completion becomes an event. The second packet arrives on host 3's
    /// access channel at leaf 1, bound for host 2 behind the first; its
    /// arrival is scheduled before the first one is dispatched, or after.
    /// Both orders, on the monolithic engine and on two domains, deliver
    /// at the same times and count the same `events + tx_done_folded`;
    /// before the second arrival is scheduled, `peek_time` reports the
    /// folded completion.
    #[test]
    fn a_packet_at_the_completion_time_queues_by_key_order() {
        let topo = topo();
        let fib = topo.fib();
        let (up3, down2) = (fib.host_access[3], fib.host_down[2]);
        let pkt = |seq| {
            Box::new(Packet::data(
                0,
                0,
                7,
                HostId(3),
                HostId(2),
                seq,
                1460,
                SimTime::ZERO,
            ))
        };
        let down = &topo.channels[down2.idx()];
        let ser = SimDuration::serialization(pkt(0).size as u64, down.rate_bps);
        let done = SimTime::ZERO + ser;
        let want_rx = vec![done + down.delay, done + ser + down.delay];
        let end = SimTime::from_millis(1);
        let folded = |net: &Network<TestEcmp, SinkAgent>| -> u64 {
            (0..net.topo.channels.len() as u32)
                .map(|i| net.port(ChannelId(i)).tx_done_folded)
                .sum()
        };
        for before in [true, false] {
            // (events, folded) once `done` is dispatched, then at the end.
            let want = [(3, 0), (5, 1)];

            let mut net = Network::new(topo.clone(), TestEcmp, SinkAgent::default(), 1);
            net.deliver_remote(SimTime::ZERO, up3, pkt(0), 0);
            if before {
                net.deliver_remote(done, up3, pkt(1), 0);
            }
            net.run_until(SimTime::ZERO);
            // The folded completion is the earliest thing pending.
            assert_eq!(net.peek_time(), Some(done));
            if !before {
                net.deliver_remote(done, up3, pkt(1), 0);
            }
            net.run_until(done);
            let mid = (net.stats.events, folded(&net));
            net.run_until(end);
            assert_eq!(
                [mid, (net.stats.events, folded(&net))],
                want,
                "monolithic, before={before}"
            );
            let rx: Vec<SimTime> = net.agent.received.iter().map(|r| r.0).collect();
            assert_eq!(rx, want_rx, "monolithic, before={before}");

            // On two workers leaf 1 and hosts 2 and 3 are domain 1.
            let mut run = ShardedNetwork::partition(&topo, 1, 2, QueueKind::Heap, |_| {
                (TestEcmp, SinkAgent::default())
            });
            run.domain_mut(1)
                .deliver_remote(SimTime::ZERO, up3, pkt(0), 0);
            if before {
                run.domain_mut(1).deliver_remote(done, up3, pkt(1), 0);
            }
            run.run_until(SimTime::ZERO);
            if !before {
                run.domain_mut(1).deliver_remote(done, up3, pkt(1), 0);
            }
            let counts = |run: &ShardedNetwork<TestEcmp, SinkAgent>| {
                let events = (0..2).map(|d| run.domain(d).stats.events).sum::<u64>();
                (events, (0..2).map(|d| folded(run.domain(d))).sum::<u64>())
            };
            run.run_until(done);
            let mid = counts(&run);
            run.run_until(end);
            assert_eq!([mid, counts(&run)], want, "sharded, before={before}");
            let rx: Vec<SimTime> = run.domain(1).agent.received.iter().map(|r| r.0).collect();
            assert_eq!(rx, want_rx, "sharded, before={before}");
        }
    }
}
