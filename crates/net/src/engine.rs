//! The network engine: an event-driven packet-level simulation of a fabric.
//!
//! The engine owns the topology, one [`TxPort`] per simplex channel, and the
//! future-event list. Two plug-in points make it policy- and
//! transport-agnostic:
//!
//! * [`Dataplane`] — the switch dataplane logic. Implementations live in
//!   `conga-core`: CONGA itself plus the baselines (ECMP, local
//!   congestion-aware, per-packet spray, weighted random). The engine tells
//!   the dataplane *which* ports are valid (routing); the dataplane picks
//!   *one* (load balancing) and maintains its own state (DREs, flowlet
//!   table, congestion tables).
//! * [`HostAgent`] — the end-host stack. Implementations live in
//!   `conga-transport` (TCP and MPTCP).
//!
//! Forwarding pipeline for a fabric-crossing packet:
//!
//! ```text
//! host --access--> source leaf --[leaf_ingress: encap + pick uplink]-->
//!   spine --[spine_forward: pick downlink]--> dest leaf --[leaf_egress:
//!   decap + harvest CE/feedback]--> host
//! ```
//!
//! On every *fabric* transmission the engine calls
//! [`Dataplane::on_fabric_tx`] so the policy can update that link's DRE and
//! fold the link's congestion into the packet's CE field — exactly the
//! hop-by-hop CE update of paper §3.3.

use crate::ids::{ChannelId, LeafId, Link, NodeId, SpineId};
use crate::packet::{ecmp_mix, Overlay, Packet};
use crate::port::{Enqueue, TxPort};
use crate::shard::{Mail, PartitionTable};
use crate::topology::{Fib, Topology};
use conga_sim::{EventQueue, Key, QueueKind, SimDuration, SimRng, SimTime};
use conga_telemetry::{MetricsRegistry, SeriesRegistry};
use conga_trace::{TraceEvent, TraceHandle};
use std::collections::VecDeque;
use std::sync::Arc;

/// Switch dataplane behaviour: load-balancing choice plus congestion-state
/// maintenance. See the crate docs of `conga-core` for the implementations.
pub trait Dataplane {
    /// Called once before the simulation starts; size internal tables from
    /// the topology (number of channels, leaves, uplinks, link rates...).
    fn install(&mut self, topo: &Topology, fib: &Fib);

    /// A packet is entering the fabric at its source leaf. `candidates` are
    /// the uplink channels that can reach the packet's destination leaf.
    /// The engine never passes an empty slice (it counts the packet
    /// `unroutable` first) and always encapsulates before calling; a direct
    /// caller that does pass one gets the implementation's deterministic
    /// fallback channel, not a panic. The packet's overlay header is
    /// initialized with src/dst TEPs and CE = 0; the implementation must
    /// set `overlay.lbtag`, may stamp feedback fields, and returns the
    /// chosen uplink channel.
    fn leaf_ingress(
        &mut self,
        leaf: LeafId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId;

    /// A packet at a spine must be forwarded toward its destination leaf;
    /// pick among the parallel downlinks (paper: spines use ECMP regardless
    /// of the leaf policy, footnote 3).
    fn spine_forward(
        &mut self,
        spine: SpineId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId;

    /// A packet starts transmission on a fabric channel: update the
    /// channel's congestion estimate and fold it into the packet's CE.
    fn on_fabric_tx(&mut self, ch: ChannelId, pkt: &mut Packet, now: SimTime);

    /// A packet reached its destination leaf: harvest its CE into the
    /// Congestion-From-Leaf table and its feedback fields into the
    /// Congestion-To-Leaf table.
    fn leaf_egress(&mut self, leaf: LeafId, pkt: &Packet, now: SimTime);

    /// Human-readable scheme name for experiment output.
    fn name(&self) -> &'static str;

    /// Export the dataplane's internal counters (DREs, flowlet tables,
    /// congestion tables...) into the run-level metrics registry under
    /// stable `dataplane.*` names. Default: no metrics.
    fn export_metrics(&self, _reg: &mut MetricsRegistry) {}

    /// Adopt a trace handle for structured event emission (decisions,
    /// flowlet transitions, DRE updates...). Default: ignore it — only
    /// dataplanes with provenance worth recording override this.
    fn set_tracer(&mut self, _tracer: TraceHandle) {}

    /// Record the dataplane's live congestion observables (DRE
    /// estimates, flowlet-table occupancy, ...) into the windowed series
    /// registry. Called on every sampling boundary when periodic
    /// sampling is enabled. In a sharded run every domain is sampled on
    /// the same boundaries; implementations must record only state this
    /// domain *owns* (replica state is idle and reads zero), so the
    /// shard-domain series merge reproduces the monolithic reading.
    /// Default: no series.
    fn sample_series(&mut self, _now: SimTime, _out: &mut SeriesRegistry) {}
}

/// Forwarding above the leaves of a three-tier Clos — a spine with no
/// direct downlink to the destination leaf climbing to a core, a core
/// descending toward the destination's pod — is plain flow-hash ECMP
/// whatever the leaf policy (paper footnote 3), so it is the engine's and
/// not a [`Dataplane`] hook. `salt` is `0x50000 + spine` or
/// `0xC0000 + core`; `candidates` is non-empty (the caller counts
/// `unroutable` first).
#[inline]
fn upper_tier_ecmp(flow_hash: u64, salt: u64, candidates: &[ChannelId]) -> ChannelId {
    candidates[(ecmp_mix(flow_hash, salt) % candidates.len() as u64) as usize]
}

/// End-host stack: receives packets addressed to its hosts and timer
/// callbacks, and emits packets/timers through the [`Emitter`].
pub trait HostAgent {
    /// A packet was delivered to `pkt.dst`.
    fn on_packet(&mut self, pkt: Packet, now: SimTime, out: &mut Emitter);
    /// A timer set through [`Emitter::set_timer`] fired.
    fn on_timer(&mut self, token: u64, now: SimTime, out: &mut Emitter);

    /// Export the agent's transport counters (retransmits, RTOs,
    /// reordering...) into the run-level metrics registry under stable
    /// `transport.*` names. Default: no metrics.
    fn export_metrics(&self, _reg: &mut MetricsRegistry) {}

    /// Adopt a trace handle for structured event emission (cwnd moves,
    /// fast retransmits, RTOs). Default: ignore it.
    fn set_tracer(&mut self, _tracer: TraceHandle) {}

    /// Record the agent's live observables (active flows, ...) into the
    /// windowed series registry on every sampling boundary. The shard
    /// rule of [`Dataplane::sample_series`] applies: count only what
    /// this domain owns so partial values sum to the monolithic total.
    /// Default: no series.
    fn sample_series(&self, _now: SimTime, _out: &mut SeriesRegistry) {}
}

/// Collects the outputs of a [`HostAgent`] callback; the engine injects the
/// packets at their source host's NIC and schedules the timers after the
/// callback returns (avoiding re-entrancy).
#[derive(Default, Debug)]
pub struct Emitter {
    packets: Vec<Packet>,
    timers: Vec<(SimDuration, u64)>,
}

impl Emitter {
    /// Transmit `pkt` from `pkt.src`'s NIC.
    #[inline]
    pub fn send(&mut self, pkt: Packet) {
        self.packets.push(pkt);
    }

    /// Request `on_timer(token)` after `delay`. The token is the timer's
    /// key among equal-time events, so an agent keeps at most one timer
    /// per token pending, and tokens stay below 2^61.
    #[inline]
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timers.push((delay, token));
    }

    /// The packets sent so far (an agent's unit tests read its answers).
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// The `(delay, token)` timers requested so far.
    pub fn timers(&self) -> &[(SimDuration, u64)] {
        &self.timers
    }
}

/// Engine events.
///
/// Deliberately small (16 bytes, so a queue entry with its `(time, tie)`
/// key is 32): every push/pop copies a whole `Scheduled<Ev>` inside the
/// future-event list, so packets are *not* carried in the event. A packet
/// in flight is referenced from its channel's wire FIFO (`Network::wire`)
/// and a jittered host emission from its host's inject FIFO
/// (`Network::inject_q`); the event stores only the index.
/// This is sound because both sequences are FIFO by construction: arrival
/// times on one channel are strictly increasing (the serializer is a
/// non-preemptive unit and each packet's arrival is scheduled after the
/// previous one's), and a host's NIC release times are monotone
/// non-decreasing with equal-time emissions popping in packet-id order.
///
/// Every event is scheduled under a key that names it ([`Network::at`]):
/// its time, then its class, then its own id within the class. Equal-time
/// events therefore pop in an order that depends on what they are, not
/// on when, or in which domain of a sharded run, they were scheduled.
#[derive(Debug)]
enum Ev {
    /// Packet finished wire traversal of `ch`; process at the channel dst.
    /// The packet (and the channel fail epoch captured at transmission
    /// start) is the head of `wire[ch]`.
    Arrive { ch: ChannelId },
    /// Serializer of `ch` finished, and a packet waits in its queue
    /// (otherwise the completion is folded into the port: see
    /// [`Network::start_tx`]).
    TxDone { ch: ChannelId },
    /// Host-agent timer.
    Timer { token: u64 },
    /// A host-emitted packet reaches its NIC queue (after emission jitter).
    /// The packet is the head of `inject_q[host]`.
    Inject { host: u32 },
    /// Periodic statistics sample.
    Sample,
    /// Scheduled link-state transition: `ch` goes down (`up = false`) or
    /// comes back up.
    Fault { ch: ChannelId, up: bool },
}

/// The classes of [`Ev`], in the order equal-time events pop in: a key's
/// tie is its class shifted into the top three bits, or'ed with the
/// event's id within the class — the index of the transition in the
/// network's fault schedule, the channel of an arrival or a completion
/// (arrivals on a channel strictly increase in time, and a channel has
/// one completion pending), a timer's token, the packet an `Inject`
/// releases, and 0 for the one pending sample tick. Timers sort before
/// injections because a timer may emit a packet released at once: every
/// event an event schedules at its own time then sorts after it, so a
/// run pops its keys in increasing order.
const CLASS_SHIFT: u32 = 61;
const FAULT: u64 = 0;
const ARRIVE: u64 = 1 << CLASS_SHIFT;
const TX_DONE: u64 = 2 << CLASS_SHIFT;
const TIMER: u64 = 3 << CLASS_SHIFT;
const INJECT: u64 = 4 << CLASS_SHIFT;
const SAMPLE: u64 = 5 << CLASS_SHIFT;

/// A packet id is its source host above this many bits and the host's
/// count of packets minted before it below: ids are unique in a run and
/// increase along each host's emissions, however the fabric is sharded.
const PKT_SEQ_BITS: u32 = 40;

/// The key of an event of `class` with id `id` at `time`.
#[inline]
fn key(time: SimTime, class: u64, id: u64) -> Key {
    debug_assert!(
        id >> CLASS_SHIFT == 0,
        "event id {id:#x} overflows its class"
    );
    Key {
        time,
        tie: class | id,
    }
}

/// Node `n`'s random stream, `SimRng::new(seed).fork(n)`, made at its
/// first draw: hosts are numbered first, then leaves, then spines.
fn node_rng(rngs: &mut [Option<Box<SimRng>>], seed: u64, n: usize) -> &mut SimRng {
    rngs[n].get_or_insert_with(|| Box::new(SimRng::new(seed).fork(n as u64)))
}

/// A host's NIC as the engine sees it.
#[derive(Debug, Default)]
struct Nic {
    /// Emitted packets awaiting their jittered release, oldest first.
    /// Heads are consumed by `Ev::Inject`.
    queue: VecDeque<Box<Packet>>,
    /// Earliest next release (see [`HOST_JITTER_NS`]).
    release: SimTime,
    /// Packets this host has emitted: the low bits of the next one's id.
    minted: u64,
}

/// Aggregate counters the engine maintains itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Packets emitted by host agents (counted once, before NIC jitter).
    pub injected_pkts: u64,
    /// Wire bytes emitted by host agents.
    pub injected_bytes: u64,
    /// Packets handed to the host agent.
    pub delivered_pkts: u64,
    /// Payload bytes handed to the host agent.
    pub delivered_payload: u64,
    /// Packets dropped because a destination became unreachable (network
    /// partition) — distinct from queue drops.
    pub unroutable: u64,
    /// Packets lost to a dead link: flushed from its queue at failure time,
    /// caught on the wire by the transition, or enqueued while it was down.
    pub blackholed: u64,
    /// Link-state transitions applied (fail + recover).
    pub fault_transitions: u64,
    /// Events processed. A sample tick or a fault transition, which every
    /// domain of a sharded run processes, is counted in one of them.
    pub events: u64,
}

/// ECN marking configuration: a data packet that joins a queue already
/// holding at least `threshold_bytes` gets its CE bit set (instantaneous
/// queue-length marking on enqueue, as DCTCP prescribes). Applies to every
/// queue in the fabric; disabled unless installed with
/// [`Network::set_ecn`].
#[derive(Clone, Copy, Debug)]
pub struct EcnConfig {
    /// Mark when the target queue holds at least this many bytes.
    pub threshold_bytes: u64,
}

/// Marking state + counters (one per engine; in a sharded run each domain
/// marks only the enqueues it owns, so the counters merge by sum).
#[derive(Clone, Copy, Debug)]
struct EcnState {
    threshold_bytes: u64,
    /// Data-packet enqueues that newly set the CE mark.
    marked: u64,
    /// Data-packet enqueues examined for marking.
    seen: u64,
    /// Counter values at the previous sampling boundary (windowed series).
    last_marked: u64,
    last_seen: u64,
}

/// Host emission jitter bound: each packet handed to the NIC is delayed by
/// a uniform random amount in `[0, 1 µs)`, never reordering a host's own
/// emissions. Models interrupt/scheduling noise and breaks the artificial
/// flow synchronization (drop-tail phase lockout) that a perfectly
/// deterministic simulation otherwise produces.
const HOST_JITTER_NS: u64 = 1_000;

/// The simulated network.
pub struct Network<D: Dataplane, A: HostAgent> {
    /// Fabric description (immutable during a run).
    pub topo: Topology,
    /// Forwarding tables.
    pub fib: Fib,
    /// The load-balancing dataplane.
    pub dataplane: D,
    /// The end-host stack.
    pub agent: A,
    /// Engine counters.
    pub stats: EngineStats,
    /// Windowed time-series gauges recorded on sampling boundaries
    /// (disabled unless sampling was enabled): per-channel queue depth
    /// and utilization plus whatever the dataplane and host agent
    /// contribute through their `sample_series` hooks.
    pub series: SeriesRegistry,

    ports: Vec<TxPort>,
    /// Ports that may hold a folded completion, each listed once
    /// (`TxPort::listed`); [`Network::settle_folded`] prunes it.
    folded: Vec<ChannelId>,
    events: EventQueue<Ev>,
    now: SimTime,
    /// The run seed, and every node's random stream ([`node_rng`]): a
    /// host's emission jitter, a leaf's or spine's dataplane decisions.
    seed: u64,
    rngs: Vec<Option<Box<SimRng>>>,
    /// Per-channel liveness; all true until a scheduled fault fires. The
    /// FIB is recomputed from this mask on every transition — the one
    /// controlled mutation of the otherwise-immutable topology state.
    link_up: Vec<bool>,
    /// Per-channel fail counter, bumped on every Fail transition; arrival
    /// events compare it against the value captured at transmission start
    /// to blackhole packets the failure caught on the wire.
    fail_epoch: Vec<u32>,
    /// What the run records over time, exported verbatim by
    /// [`Network::export_metrics`]: each sampled channel's raw
    /// `port.NNNN.{queue_bytes,tx_bytes}` and every applied link-state
    /// transition as `net.link_up.NNNN`.
    log: MetricsRegistry,
    /// Sampled channels with their tx-byte reading at the previous tick.
    sampled: Vec<(ChannelId, u64)>,
    sample_every: Option<SimDuration>,
    scratch: Emitter,
    /// Reusable buffer for packets flushed off a failing link's queue
    /// (the port's own handles: unboxing them would copy each packet just
    /// to drop it).
    #[allow(clippy::vec_box)]
    scratch_flush: Vec<Box<Packet>>,
    /// Per-channel FIFO of packets on the wire, with the fail epoch captured
    /// at transmission start. Heads are consumed by `Ev::Arrive`.
    wire: Vec<VecDeque<(Box<Packet>, u32)>>,
    /// Per-host NICs, sized at the first emission.
    nics: Vec<Nic>,
    /// Structured event tracing; disabled (one dead branch per emission
    /// site) unless [`Network::set_tracer`] installed a recording handle.
    tracer: TraceHandle,
    /// Link-state transitions scheduled so far; each one's index is its
    /// event's id. The `net.blackholed_packets` and
    /// `net.fault_transitions` counters are exported only for runs with a
    /// fault schedule, keeping fault-free report diffs clean.
    faults_scheduled: u64,
    /// The domain of the run's partition this network models, and the
    /// partition, shared by every domain. It owns the channels whose
    /// source node lies in it: it never transmits on another, and an
    /// owned channel whose destination lies elsewhere diverts its
    /// arrivals into `outbox` for barrier delivery. [`Network::new`] is
    /// the one-domain partition, where every channel is its own.
    domain: u16,
    pub(crate) part: Arc<PartitionTable>,
    /// Cross-domain transmissions captured during the current window.
    outbox: Vec<Mail>,
    /// ECN marking; `None` (the default) leaves every CE bit untouched and
    /// exports no ECN counters, keeping non-ECN reports byte-identical to
    /// pre-ECN baselines.
    ecn: Option<EcnState>,
}

impl<D: Dataplane, A: HostAgent> Network<D, A> {
    /// Build a network over `topo` with the given dataplane and host agent:
    /// the whole fabric as one domain.
    pub fn new(topo: Topology, dataplane: D, agent: A, seed: u64) -> Self {
        let part = Arc::new(PartitionTable::new(&topo, 1));
        Self::in_domain(topo, dataplane, agent, seed, part, 0, QueueKind::Heap)
    }

    /// Build domain `domain` of the partition `part` of `topo`, its
    /// future-event list of kind `queue`.
    pub(crate) fn in_domain(
        topo: Topology,
        mut dataplane: D,
        agent: A,
        seed: u64,
        part: Arc<PartitionTable>,
        domain: usize,
        queue: QueueKind,
    ) -> Self {
        assert!(
            (topo.n_hosts as u64) < 1 << (CLASS_SHIFT - PKT_SEQ_BITS),
            "{} hosts exceed the packet-id space",
            topo.n_hosts
        );
        let fib = topo.fib();
        dataplane.install(&topo, &fib);
        let ports: Vec<TxPort> = topo
            .channels
            .iter()
            .map(|c| TxPort::new(c.rate_bps, c.delay, c.queue_cap))
            .collect();
        let (nc, nodes) = (ports.len(), topo.n_hosts + topo.n_leaves + topo.n_spines);
        Network {
            topo,
            fib,
            dataplane,
            agent,
            stats: EngineStats::default(),
            series: SeriesRegistry::disabled(),
            ports,
            folded: Vec::new(),
            events: EventQueue::with_kind(queue, 1 << 16),
            now: SimTime::ZERO,
            seed,
            rngs: vec![None; nodes as usize],
            link_up: vec![true; nc],
            fail_epoch: vec![0; nc],
            log: MetricsRegistry::new(),
            sampled: Vec::new(),
            sample_every: None,
            scratch: Emitter::default(),
            scratch_flush: Vec::new(),
            wire: (0..nc).map(|_| VecDeque::new()).collect(),
            nics: Vec::new(),
            tracer: TraceHandle::disabled(),
            faults_scheduled: 0,
            domain: domain as u16,
            part,
            outbox: Vec::new(),
            ecn: None,
        }
    }

    /// Enable ECN marking at every queue. Call before injecting traffic;
    /// sharded runs install the same config in every domain (each domain
    /// marks only the enqueues it owns, so counters merge by sum).
    pub fn set_ecn(&mut self, cfg: EcnConfig) {
        self.ecn = Some(EcnState {
            threshold_bytes: cfg.threshold_bytes,
            marked: 0,
            seen: 0,
            last_marked: 0,
            last_seen: 0,
        });
    }

    /// Select the future-event-list implementation (heap vs calendar).
    ///
    /// Purely a performance knob: both kinds implement the identical
    /// `(time, tie)` ordering, so artifacts do not change. Call
    /// right after construction, before anything is scheduled — the
    /// queue is replaced, not migrated.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        assert!(
            self.events.is_empty() && self.events.total_pushed() == 0,
            "select the queue kind before scheduling events"
        );
        self.events = EventQueue::with_kind(kind, 1 << 16);
    }

    /// Install a trace handle, sharing it with the dataplane and the host
    /// agent so engine, policy, and transport events interleave into one
    /// deterministic sequence. Call before running the event loop.
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer.clone();
        self.dataplane.set_tracer(tracer.clone());
        self.agent.set_tracer(tracer);
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only access to a port (for statistics).
    #[inline]
    pub fn port(&self, ch: ChannelId) -> &TxPort {
        &self.ports[ch.idx()]
    }

    /// Mutable access to a port (for mean-queue finalization).
    #[inline]
    pub fn port_mut(&mut self, ch: ChannelId) -> &mut TxPort {
        &mut self.ports[ch.idx()]
    }

    /// Enable periodic sampling of the given channels every `every`.
    ///
    /// Also arms the windowed [`SeriesRegistry`] on the same cadence.
    /// `channels` may be empty: a sharded run enables *channel* sampling
    /// only in the domain that owns the observed uplinks, but every
    /// domain still needs the periodic tick so its dataplane/agent
    /// `sample_series` hooks fire on identical boundaries.
    pub fn enable_sampling(&mut self, channels: Vec<ChannelId>, every: SimDuration) {
        self.sampled = channels.into_iter().map(|ch| (ch, 0)).collect();
        self.sample_every = Some(every);
        self.series = SeriesRegistry::new(every);
        self.at(self.now + every, SAMPLE, 0, Ev::Sample);
    }

    /// Total queue drops across all channels.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }

    /// Export every engine-level metric into `reg`: the [`EngineStats`]
    /// counters under `engine.*`, per-port counters under `port.NNNN.*`
    /// (zero-padded channel index, so sorted keys follow channel order),
    /// the run's time log (sampled channels' `port.NNNN.queue_bytes` /
    /// `port.NNNN.tx_bytes`, link transitions as `net.link_up.NNNN`), and
    /// whatever the dataplane and host agent export under `dataplane.*` /
    /// `transport.*`.
    ///
    /// The result is a pure function of the simulation state, so two runs
    /// with identical seeds export identical registries.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("engine.injected_pkts", self.stats.injected_pkts);
        reg.set_counter("engine.injected_bytes", self.stats.injected_bytes);
        reg.set_counter("engine.delivered_pkts", self.stats.delivered_pkts);
        reg.set_counter(
            "engine.delivered_payload_bytes",
            self.stats.delivered_payload,
        );
        reg.set_counter("engine.unroutable_pkts", self.stats.unroutable);
        reg.set_counter("engine.events", self.stats.events);
        // Serializer completions folded into their port (no packet queued
        // behind them): added to `engine.events`, they give the count of
        // an engine that schedules every completion.
        let folded = self.ports.iter().map(|p| p.tx_done_folded).sum();
        reg.set_counter("engine.tx_done_folded", folded);
        reg.set_counter("engine.queue_drops", self.total_drops());
        // Fault-domain counters appear only in runs that scheduled faults:
        // fault-free reports stay free of zero-valued noise and diff clean
        // against pre-fault-subsystem baselines.
        if self.faults_scheduled > 0 {
            reg.set_counter("net.blackholed_packets", self.stats.blackholed);
            reg.set_counter("net.fault_transitions", self.stats.fault_transitions);
        }
        // ECN counters appear only when marking was enabled, for the same
        // reason as the fault-domain counters above.
        if let Some(e) = &self.ecn {
            reg.set_counter("net.ecn_marked_pkts", e.marked);
            reg.set_counter("net.ecn_seen_pkts", e.seen);
        }
        // Conservation residue: packets injected but neither delivered,
        // dropped, declared unroutable, nor blackholed by a dead link —
        // i.e. still in flight. Zero at quiescence; the invariant tests
        // assert exactly that.
        let accounted = self.stats.delivered_pkts
            + self.stats.unroutable
            + self.total_drops()
            + self.stats.blackholed;
        reg.set_gauge(
            "engine.inflight_pkts",
            self.stats.injected_pkts as i64 - accounted as i64,
        );
        reg.absorb(&self.log);
        for (i, port) in self.ports.iter().enumerate() {
            // A domain's replica of a port it neither transmits on nor
            // receives from is all zeros; the owners export its counters.
            let ch = ChannelId(i as u32);
            if !self.tx_here(ch) && self.part.rx_domain(ch) != self.domain as usize {
                continue;
            }
            port.export_metrics(&format!("port.{i:04}"), reg);
        }
        self.dataplane.export_metrics(reg);
        self.agent.export_metrics(reg);
    }

    /// Call into the host agent — from the event loop (timers, host
    /// deliveries) or from outside it (e.g. to start flows); emissions are
    /// processed immediately.
    #[inline]
    pub fn agent_call<R>(&mut self, f: impl FnOnce(&mut A, SimTime, &mut Emitter) -> R) -> R {
        let mut em = std::mem::take(&mut self.scratch);
        let r = f(&mut self.agent, self.now, &mut em);
        self.process_emissions(&mut em);
        self.scratch = em;
        r
    }

    /// Schedule an agent timer from outside the event loop (the token
    /// rule of [`Emitter::set_timer`] applies).
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        self.set_timer(self.now + delay, token);
    }

    /// Schedule `ev`, of `class`, under its key. Nothing is scheduled at
    /// [`SimTime::MAX`]: no window, whose bound is exclusive, could run it.
    #[inline]
    fn at(&mut self, time: SimTime, class: u64, id: u64, ev: Ev) {
        debug_assert!(time < SimTime::MAX, "event scheduled at SimTime::MAX");
        self.events.schedule(key(time, class, id), ev);
    }

    /// Whether this domain transmits on `ch`.
    #[inline]
    fn tx_here(&self, ch: ChannelId) -> bool {
        self.part.tx_domain(ch) == self.domain as usize
    }

    #[inline]
    fn set_timer(&mut self, time: SimTime, token: u64) {
        assert!(token >> CLASS_SHIFT == 0, "timer token {token:#x} >= 2^61");
        self.at(time, TIMER, token, Ev::Timer { token });
    }

    /// Schedule a single simplex channel to go down (`up = false`) or come
    /// back up at absolute time `at`. Transitions are ordinary events,
    /// keyed by their index in this network's fault schedule, so
    /// equal-time transitions fire in scheduling order and a fault schedule
    /// is part of the deterministic run configuration.
    pub fn schedule_channel_fault(&mut self, at: SimTime, ch: ChannelId, up: bool) {
        assert!(at >= self.now, "fault scheduled in the past");
        let index = self.faults_scheduled;
        self.faults_scheduled += 1;
        self.at(at, FAULT, index, Ev::Fault { ch, up });
    }

    /// Schedule both directions of `link`, at any tier, to go down
    /// (`up = false`) or come back up at `at` — the runtime analogue of
    /// [`crate::LeafSpineBuilder::fail_link`]. Panics if the built topology
    /// has no such link.
    pub fn schedule_link(&mut self, at: SimTime, link: Link, up: bool) {
        let pairs = self.topo.link_channels(link.a, link.b);
        let Some(&(a, b)) = pairs.get(link.parallel as usize) else {
            let (n, p) = (pairs.len(), link.parallel);
            panic!("{}-{} has {n} links, no parallel index {p}", link.a, link.b);
        };
        self.schedule_channel_fault(at, a, up);
        self.schedule_channel_fault(at, b, up);
    }

    /// Whether a channel is currently up.
    #[inline]
    pub fn link_is_up(&self, ch: ChannelId) -> bool {
        self.link_up[ch.idx()]
    }

    /// Apply a link-state transition now: flip liveness, blackhole queued
    /// packets on a failing link, and recompute the FIB from the liveness
    /// mask. LBTags are stable across transitions (see
    /// [`crate::Topology::fib_live`]), so dataplane congestion state keyed
    /// by tag stays meaningful; only candidate lists shrink and grow.
    fn apply_fault(&mut self, ch: ChannelId, up: bool) {
        if self.link_up[ch.idx()] == up {
            return; // redundant transition: nothing changed
        }
        self.link_up[ch.idx()] = up;
        // In a sharded run every domain applies the full fault schedule
        // (liveness masks, fail epochs, and FIBs must agree everywhere),
        // but only the channel's transmit-side owner records the
        // transition — merged telemetry counts each one exactly once,
        // byte-identical to the monolithic run.
        let owns = self.tx_here(ch);
        if owns {
            self.stats.fault_transitions += 1;
            let name = format!("net.link_up.{:04}", ch.idx());
            self.log.sample(&name, self.now, if up { 1.0 } else { 0.0 });
            if self.tracer.enabled() {
                self.tracer.emit(
                    self.now,
                    TraceEvent::FaultTransition {
                        ch: ch.idx() as u32,
                        up,
                    },
                );
            }
        }
        if !up {
            self.fail_epoch[ch.idx()] = self.fail_epoch[ch.idx()].wrapping_add(1);
            if owns {
                // A non-owner's replica port never transmits, so its queue
                // is empty by construction; flushing is owner-only.
                let mut flushed = std::mem::take(&mut self.scratch_flush);
                self.ports[ch.idx()].flush_dead(self.now, &mut flushed);
                for pkt in flushed.drain(..) {
                    self.blackhole(ch, &pkt);
                }
                self.scratch_flush = flushed;
            }
        }
        self.fib.refresh_live(&self.topo, &self.link_up);
    }

    /// The one exit for a packet a dead link swallows — flushed off its
    /// queue by the failure, caught on its wire, or enqueued while it is
    /// down: counted on the channel and in the engine, and traced.
    fn blackhole(&mut self, ch: ChannelId, pkt: &Packet) {
        self.ports[ch.idx()].blackholed += 1;
        self.stats.blackholed += 1;
        if self.tracer.wants_flow(pkt.flow) {
            self.tracer.emit(
                self.now,
                TraceEvent::PacketBlackhole {
                    ch: ch.idx() as u32,
                    pkt: pkt.id,
                    flow: pkt.flow,
                    size: pkt.size,
                },
            );
        }
    }

    /// Run the event loop until `t_end` (inclusive) or until no events
    /// remain, and leave the clock at `t_end`: one window to `t_end + 1 ns`.
    /// Returns the number of events processed, as [`EngineStats::events`]
    /// counts them.
    pub fn run_until(&mut self, t_end: SimTime) -> u64 {
        let n = self.run_window(t_end.saturating_add(SimDuration::from_nanos(1)));
        self.advance_to(t_end);
        n
    }

    /// Run until the event list is empty (all traffic drained, all timers
    /// fired). Only sensible when the agent stops rescheduling timers.
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Timestamp of the earliest pending event, if any (`&mut` because a
    /// calendar queue rotates buckets to find its minimum), counting the
    /// folded completions still ahead as the events they stand for. The
    /// barrier coordinator reduces this across domains to find the global
    /// minimum that anchors the next conservative window, which is
    /// therefore the same as if every completion were scheduled.
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let folded = self
            .folded
            .iter()
            .filter_map(|ch| self.ports[ch.idx()].folded);
        let folded = folded.map(|k| k.time).min();
        [self.events.peek_time(), folded]
            .into_iter()
            .flatten()
            .min()
    }

    /// Settle every folded completion earlier than `bound` once the
    /// events before `bound` are all dispatched: its serializer is idle,
    /// as the event it stands for would have left it. Prunes the list to
    /// the ports still holding one.
    fn settle_folded(&mut self, bound: SimTime) {
        let ports = &mut self.ports;
        self.folded.retain(|ch| {
            let p = &mut ports[ch.idx()];
            match p.folded {
                Some(k) if k.time >= bound => return true,
                Some(_) => p.settle(),
                None => {}
            }
            p.listed = false;
            false
        });
    }

    /// Run the event loop over one conservative window: process every
    /// event with `t < bound` (strictly — the bound is exclusive) and
    /// return the number counted. The engine's one loop: a sharded run's
    /// windows and [`Network::run_until`] both run it. The clock is *not*
    /// advanced to the bound afterwards: cross-domain deliveries injected
    /// at the next barrier may land anywhere in `[bound, ...)` and must
    /// not trip the monotonicity assertion.
    ///
    /// Out of line on purpose: this is the hot loop of every run, and
    /// inlined into the coordinator's worker closure `testbed_elephants`
    /// measured 5–10 % slower (recorded in results/perf_ledger.jsonl).
    #[inline(never)]
    pub fn run_window(&mut self, bound: SimTime) -> u64 {
        let mut n = 0;
        while let Some((t, ev)) = self.events.pop_before(bound) {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            n += self.dispatch(ev) as u64;
        }
        self.settle_folded(bound);
        self.stats.events += n;
        n
    }

    /// Advance the clock to `t` without processing anything (no-op if the
    /// clock is already past `t`): the end of a `run_until` slice, here and
    /// in every domain of a sharded run, so all report the same time.
    pub fn advance_to(&mut self, t: SimTime) {
        if self.now < t {
            self.now = t;
        }
    }

    /// Schedule the arrival of a packet transmitted by a remote domain:
    /// the barrier coordinator moves each outbox entry here, into the
    /// owning domain of the channel's destination. `epoch` is the fail
    /// epoch the *sender* captured at transmission start; the receiving
    /// domain applies the same fault schedule, so a mismatch at arrival
    /// blackholes the packet exactly as the monolithic engine would.
    pub fn deliver_remote(&mut self, at: SimTime, ch: ChannelId, pkt: Box<Packet>, epoch: u32) {
        debug_assert!(at >= self.now, "remote delivery inside the past window");
        self.wire[ch.idx()].push_back((pkt, epoch));
        self.at(at, ARRIVE, ch.0 as u64, Ev::Arrive { ch });
    }

    /// Move the accumulated cross-domain transmissions out of this
    /// domain's outbox onto the end of `into` (nothing in a one-domain
    /// run). Both vectors keep their capacity, so a window that mails no
    /// more than an earlier one allocates nothing.
    pub fn drain_outbox(&mut self, into: &mut Vec<Mail>) {
        into.append(&mut self.outbox);
    }

    /// Process one event; returns whether it counts in
    /// [`EngineStats::events`] here — not if it is a replicated sample
    /// tick or fault transition that another domain counts.
    fn dispatch(&mut self, ev: Ev) -> bool {
        if self.tracer.enabled() {
            self.tracer.at_event(self.events.last_popped().tie);
        }
        match ev {
            Ev::Arrive { ch } => {
                let (pkt, epoch) = self.wire[ch.idx()]
                    .pop_front()
                    .expect("arrive event without a packet on the wire");
                self.arrive(ch, pkt, epoch);
            }
            Ev::TxDone { ch } => {
                if self.ports[ch.idx()].tx_done() {
                    self.start_tx(ch);
                }
            }
            Ev::Timer { token } => self.agent_call(|a, now, em| a.on_timer(token, now, em)),
            Ev::Inject { host } => {
                let pkt = self.nics[host as usize]
                    .queue
                    .pop_front()
                    .expect("inject event without a pending packet");
                let access = self.fib.host_access[pkt.src.idx()];
                self.enqueue(access, pkt);
            }
            Ev::Sample => {
                self.take_sample();
                return self.domain == 0;
            }
            Ev::Fault { ch, up } => {
                self.apply_fault(ch, up);
                return self.tx_here(ch);
            }
        }
        true
    }

    fn take_sample(&mut self) {
        let every = self
            .sample_every
            .expect("only enable_sampling schedules a sample tick");
        let dt_s = every.as_secs_f64();
        for (ch, prev_tx) in &mut self.sampled {
            let p = &self.ports[ch.idx()];
            let (queue, tx) = (p.queued_bytes() as f64, p.tx_bytes);
            // Utilization over the window that just closed: tx-byte
            // delta against the previous sample (cumulative counters
            // start at zero, so the first window needs no special case).
            let rate = self.topo.channels[ch.idx()].rate_bps as f64;
            let util = ((tx - *prev_tx) as f64 * 8.0) / (rate * dt_s).max(1e-12);
            *prev_tx = tx;
            let port = format!("port.{:04}", ch.idx());
            let queue_name = format!("{port}.queue_bytes");
            self.log.sample(&queue_name, self.now, queue);
            self.log
                .sample(&format!("{port}.tx_bytes"), self.now, tx as f64);
            self.series.record(&queue_name, self.now, queue);
            self.series.record(&format!("{port}.util"), self.now, util);
        }
        // Windowed ECN mark counts (deltas, so domain merges stay additive;
        // the mark *fraction* is derived after merging). Recorded every
        // tick — zeros included — so windows align across shard domains.
        if let Some(e) = &mut self.ecn {
            let dm = (e.marked - e.last_marked) as f64;
            let ds = (e.seen - e.last_seen) as f64;
            e.last_marked = e.marked;
            e.last_seen = e.seen;
            self.series.record("ecn.marked_pkts", self.now, dm);
            self.series.record("ecn.enqueued_pkts", self.now, ds);
        }
        self.dataplane.sample_series(self.now, &mut self.series);
        self.agent.sample_series(self.now, &mut self.series);
        self.at(self.now + every, SAMPLE, 0, Ev::Sample);
    }

    /// Process packets/timers emitted by an agent callback.
    fn process_emissions(&mut self, em: &mut Emitter) {
        for (delay, token) in em.timers.drain(..) {
            self.set_timer(self.now + delay, token);
        }
        for pkt in em.packets.drain(..) {
            // The packet's one allocation: from here to its delivery, drop,
            // blackhole or unroutable exit only this handle moves.
            let mut pkt = Box::new(pkt);
            self.stats.injected_pkts += 1;
            self.stats.injected_bytes += pkt.size as u64;
            if self.nics.is_empty() {
                self.nics
                    .resize_with(self.topo.n_hosts as usize, Nic::default);
            }
            let host = pkt.src.idx();
            let nic = &mut self.nics[host];
            pkt.id = (host as u64) << PKT_SEQ_BITS | nic.minted;
            nic.minted += 1;
            let rng = node_rng(&mut self.rngs, self.seed, host);
            // Per-host monotone release times: jitter never reorders a
            // single host's emissions.
            let j = SimDuration::from_nanos(rng.range_u64(0, HOST_JITTER_NS));
            let release = (self.now + j).max(nic.release);
            nic.release = release;
            let id = pkt.id;
            nic.queue.push_back(pkt);
            self.at(release, INJECT, id, Ev::Inject { host: host as u32 });
        }
    }

    /// Packet finished traversing `ch`: process at the receiving node.
    fn arrive(&mut self, ch: ChannelId, mut pkt: Box<Packet>, epoch: u32) {
        if epoch != self.fail_epoch[ch.idx()] {
            // The link failed while the packet was on the wire: lost.
            self.blackhole(ch, &pkt);
            return;
        }
        {
            let p = &mut self.ports[ch.idx()];
            p.rx_pkts += 1;
            p.rx_bytes += pkt.size as u64;
        }
        let channel = &self.topo.channels[ch.idx()];
        match channel.dst {
            NodeId::Host(h) => {
                self.stats.delivered_pkts += 1;
                self.stats.delivered_payload += pkt.payload as u64;
                if self.tracer.wants_flow(pkt.flow) {
                    self.tracer.emit(
                        self.now,
                        TraceEvent::PacketDeliver {
                            host: h.0,
                            pkt: pkt.id,
                            flow: pkt.flow,
                            payload: pkt.payload,
                        },
                    );
                }
                self.agent_call(|a, now, em| a.on_packet(*pkt, now, em));
            }
            NodeId::Leaf(l) => {
                if channel.kind.is_fabric() {
                    // Fabric → leaf: decapsulate; harvest CE + feedback.
                    self.dataplane.leaf_egress(l, &pkt, self.now);
                    pkt.overlay = None;
                }
                let dst_leaf = self.topo.leaf_of(pkt.dst);
                if dst_leaf == l {
                    let down = self.fib.host_down[pkt.dst.idx()];
                    self.enqueue(down, pkt);
                } else {
                    // Source leaf: encapsulate and load-balance.
                    let cands = &self.fib.up_candidates[l.idx()][dst_leaf.idx()];
                    if cands.is_empty() {
                        self.stats.unroutable += 1;
                        return;
                    }
                    pkt.overlay = Some(Overlay::new(l, dst_leaf));
                    let n = (self.topo.n_hosts + l.0) as usize;
                    let rng = node_rng(&mut self.rngs, self.seed, n);
                    let chosen = self
                        .dataplane
                        .leaf_ingress(l, &mut pkt, cands, self.now, rng);
                    debug_assert!(cands.contains(&chosen), "dataplane chose a non-candidate");
                    self.enqueue(chosen, pkt);
                }
            }
            NodeId::Spine(s) => {
                let dst_leaf = pkt
                    .overlay
                    .as_ref()
                    .expect("fabric packet without overlay at spine")
                    .dst_tep;
                let cands = &self.fib.spine_down[s.idx()][dst_leaf.idx()];
                if !cands.is_empty() {
                    let n = (self.topo.n_hosts + self.topo.n_leaves + s.0) as usize;
                    let rng = node_rng(&mut self.rngs, self.seed, n);
                    let chosen = self
                        .dataplane
                        .spine_forward(s, &mut pkt, cands, self.now, rng);
                    debug_assert!(cands.contains(&chosen), "dataplane chose a non-candidate");
                    self.enqueue(chosen, pkt);
                    return;
                }
                // No direct downlink: detour through the core tier
                // (inter-pod traffic, or a pod downlink failure).
                let ups = &self.fib.spine_up_candidates[s.idx()][dst_leaf.idx()];
                if ups.is_empty() {
                    self.stats.unroutable += 1;
                    return;
                }
                let chosen = upper_tier_ecmp(pkt.flow_hash, 0x50000 + s.0 as u64, ups);
                self.enqueue(chosen, pkt);
            }
            NodeId::Core(co) => {
                let dst_leaf = pkt
                    .overlay
                    .as_ref()
                    .expect("fabric packet without overlay at core")
                    .dst_tep;
                let cands = &self.fib.core_down[co.idx()][dst_leaf.idx()];
                if cands.is_empty() {
                    self.stats.unroutable += 1;
                    return;
                }
                let chosen = upper_tier_ecmp(pkt.flow_hash, 0xC0000 + co.0 as u64, cands);
                self.enqueue(chosen, pkt);
            }
        }
    }

    fn enqueue(&mut self, ch: ChannelId, mut pkt: Box<Packet>) {
        // ECN: mark on enqueue against the instantaneous queue depth. This
        // runs in whichever domain owns the target port, exactly once per
        // hop, so marking decisions and counters are shard-invariant.
        if let Some(e) = &mut self.ecn {
            if pkt.is_data() {
                e.seen += 1;
                if !pkt.ecn_ce && self.ports[ch.idx()].queued_bytes() >= e.threshold_bytes {
                    pkt.ecn_ce = true;
                    e.marked += 1;
                }
            }
        }
        if !self.link_up[ch.idx()] {
            // The FIB excludes dead fabric channels, but a dead access
            // link — or a race the dataplane cannot see — still swallows
            // the packet.
            self.blackhole(ch, &pkt);
            return;
        }
        let traced = self.tracer.wants_flow(pkt.flow);
        // The port consumes the packet; capture identity first if traced.
        let (pid, flow, size) = (pkt.id, pkt.flow, pkt.size);
        let port = &mut self.ports[ch.idx()];
        if port.folded.is_some_and(|k| self.events.passed(k)) {
            // The completion fired before this event, with nothing waiting.
            port.settle();
        }
        let outcome = port.enqueue(pkt, self.now);
        if traced {
            let ev = match outcome {
                Enqueue::StartTx | Enqueue::Queued => TraceEvent::PacketEnqueue {
                    ch: ch.idx() as u32,
                    pkt: pid,
                    flow,
                    size,
                },
                Enqueue::Dropped => TraceEvent::PacketDrop {
                    ch: ch.idx() as u32,
                    pkt: pid,
                    flow,
                    size,
                },
            };
            self.tracer.emit(self.now, ev);
        }
        match outcome {
            Enqueue::StartTx => self.start_tx(ch),
            // The first packet behind a folded completion schedules it,
            // under its key.
            Enqueue::Queued => {
                if let Some(k) = self.ports[ch.idx()].folded.take() {
                    self.events.schedule(k, Ev::TxDone { ch });
                }
            }
            Enqueue::Dropped => {}
        }
    }

    /// Put the head of `ch`'s queue on the wire. Its completion is an
    /// event only if another packet waits behind it; otherwise the port
    /// keeps the completion's key, and the completion becomes an event
    /// only if a packet queues before it ([`Network::enqueue`]).
    fn start_tx(&mut self, ch: ChannelId) {
        let (mut pkt, ser) = self.ports[ch.idx()].begin_tx(self.now);
        if self.tracer.wants_flow(pkt.flow) {
            self.tracer.emit(
                self.now,
                TraceEvent::PacketTx {
                    ch: ch.idx() as u32,
                    pkt: pkt.id,
                    flow: pkt.flow,
                    size: pkt.size,
                },
            );
        }
        if self.topo.channels[ch.idx()].kind.is_fabric() {
            self.dataplane.on_fabric_tx(ch, &mut pkt, self.now);
        }
        let port = &mut self.ports[ch.idx()];
        let delay = port.delay;
        let done = key(self.now + ser, TX_DONE, ch.0 as u64);
        if port.queued_pkts() > 0 {
            self.events.schedule(done, Ev::TxDone { ch });
        } else {
            port.folded = Some(done);
            if !port.listed {
                port.listed = true;
                self.folded.push(ch);
            }
        }
        let epoch = self.fail_epoch[ch.idx()];
        let arrival = self.now + ser + delay;
        if self.part.rx_domain(ch) != self.domain as usize {
            // Cross-domain channel: the arrival happens in the remote
            // domain. Serializer occupancy and TxDone stay local (the port
            // is owned here); the packet rides the barrier.
            self.outbox.push((arrival, ch, pkt, epoch));
            return;
        }
        self.wire[ch.idx()].push_back((pkt, epoch));
        self.at(arrival, ARRIVE, ch.0 as u64, Ev::Arrive { ch });
    }
}

/// A do-nothing host agent: packets are absorbed, timers ignored. Useful in
/// tests that drive raw packets through the fabric.
#[derive(Default, Debug)]
pub struct SinkAgent {
    /// Packets received, in arrival order.
    pub received: Vec<(SimTime, Packet)>,
}

impl HostAgent for SinkAgent {
    fn on_packet(&mut self, pkt: Packet, now: SimTime, _out: &mut Emitter) {
        self.received.push((now, pkt));
    }
    fn on_timer(&mut self, _token: u64, _now: SimTime, _out: &mut Emitter) {}
}

/// Helper used across tests and benches: inject a raw packet from its
/// source host.
pub fn inject<D: Dataplane, A: HostAgent>(net: &mut Network<D, A>, pkt: Packet) {
    net.agent_call(move |_a, _now, em| em.send(pkt));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CoreId, HostId};
    use crate::packet::{ecmp_mix, PacketKind};
    use crate::topology::{ChannelKind, LeafSpineBuilder, QueueProfile, TopologyBuilder};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// The system allocator, counting per thread the heap blocks shaped
    /// like a `Packet` — which on the engine's paths are exactly its
    /// `Box<Packet>` handles (packet `Vec`s start at four elements). Each
    /// test runs on its own thread, so concurrent tests do not disturb
    /// one another's counts.
    struct CountPackets;

    thread_local! {
        static PACKETS_ALLOCATED: Cell<u64> = const { Cell::new(0) };
        static PACKETS_FREED: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every request is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the counters are `const`
    // thread-locals without destructors, so touching them neither
    // allocates nor can observe a torn-down slot.
    unsafe impl GlobalAlloc for CountPackets {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            if layout == Layout::new::<Packet>() {
                PACKETS_ALLOCATED.with(|c| c.set(c.get() + 1));
            }
            // SAFETY: the caller's obligations are passed through as given.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            if layout == Layout::new::<Packet>() {
                PACKETS_FREED.with(|c| c.set(c.get() + 1));
            }
            // SAFETY: `ptr` came from `alloc` above, i.e. from `System`,
            // with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static ALLOCATOR: CountPackets = CountPackets;

    /// Minimal ECMP-only dataplane for engine tests (the real policies live
    /// in conga-core).
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

    fn small_net() -> Network<TestEcmp, SinkAgent> {
        let topo = LeafSpineBuilder::new(2, 2, 2)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .build();
        Network::new(topo, TestEcmp, SinkAgent::default(), 1)
    }

    #[test]
    fn packet_crosses_fabric_and_arrives() {
        let mut net = small_net();
        let pkt = Packet::data(0, 0, 7, HostId(0), HostId(2), 0, 1460, SimTime::ZERO);
        inject(&mut net, pkt);
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        let (t, p) = &net.agent.received[0];
        assert_eq!(p.dst, HostId(2));
        assert_eq!(p.payload, 1460);
        // 4 hops of serialization + 4 propagation delays; must be non-zero.
        assert!(t.as_nanos() > 4_000);
        assert_eq!(net.stats.delivered_pkts, 1);
        assert_eq!(net.stats.delivered_payload, 1460);
    }

    #[test]
    fn same_leaf_traffic_skips_fabric() {
        let mut net = small_net();
        let pkt = Packet::data(0, 0, 7, HostId(0), HostId(1), 0, 1000, SimTime::ZERO);
        inject(&mut net, pkt);
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        // No fabric channel transmitted anything.
        for (i, c) in net.topo.channels.clone().iter().enumerate() {
            if c.kind.is_fabric() {
                assert_eq!(net.port(ChannelId(i as u32)).tx_pkts, 0);
            }
        }
    }

    #[test]
    fn overlay_is_stripped_at_destination_leaf() {
        let mut net = small_net();
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(1), HostId(3), 0, 100, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert!(net.agent.received[0].1.overlay.is_none());
    }

    #[test]
    fn arrival_order_preserved_on_one_path() {
        let mut net = small_net();
        for seq in 0..50u64 {
            inject(
                &mut net,
                Packet::data(0, 0, 7, HostId(0), HostId(2), seq, 1460, SimTime::ZERO),
            );
        }
        net.run_to_quiescence();
        let seqs: Vec<u64> = net.agent.received.iter().map(|(_, p)| p.seq).collect();
        assert_eq!(
            seqs,
            (0..50).collect::<Vec<_>>(),
            "single flow must not reorder"
        );
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerLog {
            fired: Vec<(SimTime, u64)>,
        }
        impl HostAgent for TimerLog {
            fn on_packet(&mut self, _p: Packet, _n: SimTime, _o: &mut Emitter) {}
            fn on_timer(&mut self, token: u64, now: SimTime, _o: &mut Emitter) {
                self.fired.push((now, token));
            }
        }
        let topo = LeafSpineBuilder::new(2, 1, 1).build();
        let mut net = Network::new(topo, TestEcmp, TimerLog { fired: Vec::new() }, 3);
        net.schedule_timer(SimDuration::from_micros(30), 3);
        net.schedule_timer(SimDuration::from_micros(10), 1);
        net.schedule_timer(SimDuration::from_micros(20), 2);
        net.run_to_quiescence();
        let tokens: Vec<u64> = net.agent.fired.iter().map(|&(_, t)| t).collect();
        assert_eq!(tokens, vec![1, 2, 3]);
    }

    #[test]
    fn sampling_records_rows() {
        let mut net = small_net();
        let up0 = net.fib.leaf_uplinks[0].clone();
        net.enable_sampling(up0, SimDuration::from_micros(100));
        for _ in 0..10 {
            inject(
                &mut net,
                Packet::data(0, 0, 9, HostId(0), HostId(2), 0, 1460, SimTime::ZERO),
            );
        }
        net.run_until(SimTime::from_millis(1));
        let mut reg = MetricsRegistry::new();
        net.export_metrics(&mut reg);
        let rows: Vec<(&str, usize)> = reg.all_series().map(|(n, s)| (n, s.len())).collect();
        assert_eq!(rows.len(), 4, "queue and tx bytes of two uplinks: {rows:?}");
        assert!(
            rows.iter()
                .all(|&(n, len)| n.starts_with("port.") && len >= 9),
            "{rows:?}"
        );
    }

    #[test]
    fn unroutable_counted_when_partitioned() {
        // Fail every spine's link to leaf 1: leaf 0 cannot reach leaf 1.
        let topo = LeafSpineBuilder::new(2, 2, 1)
            .fail_link(1, 0, 0)
            .fail_link(1, 1, 0)
            .build();
        let mut net = Network::new(topo, TestEcmp, SinkAgent::default(), 5);
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(1), 0, 100, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert_eq!(net.stats.unroutable, 1);
        assert!(net.agent.received.is_empty());
    }

    #[test]
    fn ack_packets_flow_reverse() {
        let mut net = small_net();
        let ack = Packet::ack_for(0, 0, 7, HostId(2), HostId(0), 1460, SimTime::ZERO);
        inject(&mut net, ack);
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        assert_eq!(net.agent.received[0].1.kind, PacketKind::Ack);
    }

    #[test]
    fn fault_blackholes_queued_and_inflight_packets() {
        // Long propagation delays keep packets on the wire for 50 us, so a
        // mid-stream failure is guaranteed to catch some in flight.
        let topo = LeafSpineBuilder::new(2, 2, 2)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .link_delay(SimDuration::from_micros(50))
            .build();
        let mut net = Network::new(topo, TestEcmp, SinkAgent::default(), 1);
        let n = 30u64;
        for seq in 0..n {
            inject(
                &mut net,
                Packet::data(0, 0, 7, HostId(0), HostId(2), seq, 1460, SimTime::ZERO),
            );
        }
        // The 10G access link feeds one packet every ~1.2 us from ~51 us on,
        // and each rides an uplink wire for 50 us. Killing both uplinks at
        // 70 us therefore catches packets mid-flight (blackholed) while the
        // tail of the burst is still arriving at the leaf (unroutable).
        for &u in &net.fib.leaf_uplinks[0].clone() {
            net.schedule_channel_fault(SimTime::from_micros(70), u, false);
        }
        net.run_to_quiescence();
        let s = net.stats;
        assert!(s.blackholed >= 1, "no packet caught by the transition");
        assert!(s.unroutable >= 1, "no packet stranded at the leaf");
        assert_eq!(
            s.injected_pkts,
            s.delivered_pkts + s.unroutable + s.blackholed + net.total_drops(),
            "conservation through a failure"
        );
        assert!((net.agent.received.len() as u64) < n);
        // Per-port blackhole counters agree with the engine total.
        let per_port: u64 = (0..net.topo.channels.len())
            .map(|i| net.port(ChannelId(i as u32)).blackholed)
            .sum();
        assert_eq!(per_port, s.blackholed);
    }

    /// A packet is allocated once, at emission, and freed once, at
    /// whichever of its four exits it takes: delivery, tail drop,
    /// blackhole (flushed off a failing link's queue, caught on its wire,
    /// or enqueued while it is down) and unroutable.
    #[test]
    fn every_exit_frees_the_packet_it_takes() {
        // 40G of hosts into 2x10G uplinks with four-packet queues: tail
        // drops from the first microseconds. 50 us wires keep dozens of
        // packets in flight when the links go.
        let topo = LeafSpineBuilder::new(2, 2, 4)
            .host_rate_gbps(10)
            .fabric_rate_gbps(10)
            .link_delay(SimDuration::from_micros(50))
            .queue_profile(QueueProfile {
                access_bytes: 6_240,
                fabric_bytes: 6_240,
                host_nic_bytes: 1 << 20,
            })
            .build();
        let mut net = Network::new(topo, TestEcmp, SinkAgent::default(), 1);
        let (alloc0, freed0) = (PACKETS_ALLOCATED.get(), PACKETS_FREED.get());
        let live = || (PACKETS_ALLOCATED.get() - alloc0) - (PACKETS_FREED.get() - freed0);
        for i in 0..400u32 {
            let flow_hash = ecmp_mix(i as u64, 0xAB);
            let (src, dst) = (HostId(i % 4), HostId(4 + i % 4));
            inject(
                &mut net,
                Packet::data(i, 0, flow_hash, src, dst, 0, 1460, SimTime::ZERO),
            );
        }
        assert_eq!(live(), 400, "one allocation per emitted packet");
        let ups = net.fib.leaf_uplinks[0].clone();
        let access3 = net.fib.host_access[3];
        // Host 3's access link dies with most of its burst still queued at
        // the NIC (early enough that the packet caught on its wire is
        // counted before the 100 us snapshot below); uplink 0 dies under
        // load (queue flushed, wire caught); then uplink 1, and what still
        // reaches the leaf has nowhere to go.
        net.schedule_channel_fault(SimTime::from_micros(40), access3, false);
        net.schedule_channel_fault(SimTime::from_micros(120), ups[0], false);
        net.schedule_channel_fault(SimTime::from_micros(160), ups[1], false);
        net.run_until(SimTime::from_micros(100));
        assert!(
            live() > 0 && live() < 400,
            "mid-run: some exited, some live"
        );
        // Eight more from host 3: enqueued into a channel that is down.
        let flushed_at_nic = net.port(access3).blackholed;
        for i in 400..408u32 {
            let pkt = Packet::data(i, 0, i as u64, HostId(3), HostId(7), 0, 1460, net.now());
            inject(&mut net, pkt);
        }
        net.run_to_quiescence();
        let s = net.stats;
        let drops = net.total_drops();
        assert!(s.delivered_pkts >= 1, "no delivery");
        assert!(drops >= 1, "no tail drop");
        assert!(
            flushed_at_nic >= 1,
            "nothing flushed off the dying NIC queue"
        );
        assert_eq!(net.port(access3).blackholed, flushed_at_nic + 8);
        assert!(
            net.port(ups[0]).blackholed >= 2,
            "nothing flushed or caught"
        );
        assert!(s.unroutable >= 1, "no unroutable packet");
        assert_eq!(
            s.injected_pkts,
            s.delivered_pkts + drops + s.blackholed + s.unroutable,
            "conservation"
        );
        assert_eq!(live(), 0, "a packet outlived its exit");
        assert_eq!(
            PACKETS_ALLOCATED.get() - alloc0,
            s.injected_pkts,
            "a packet was allocated more than once"
        );
    }

    #[test]
    fn link_recovery_restores_forwarding_and_keeps_lbtags() {
        let mut net = small_net();
        let before = (net.fib.up_candidates.clone(), net.fib.lbtag_of.clone());
        // Kill both directions of leaf0-spine0 at 1 us; recover at 1 ms.
        let link = Link::new(NodeId::Leaf(LeafId(0)), NodeId::Spine(SpineId(0)), 0);
        net.schedule_link(SimTime::from_micros(1), link, false);
        net.schedule_link(SimTime::from_millis(1), link, true);
        net.run_until(SimTime::from_micros(10));
        // During the outage: spine0 is unusable in both directions, tags
        // unchanged.
        assert_eq!(net.fib.up_candidates[0][1].len(), 1);
        assert_eq!(net.fib.up_candidates[1][0].len(), 1);
        assert_eq!(net.fib.lbtag_of, before.1);
        let up0 = net.fib.leaf_uplinks[0][0];
        assert!(!net.link_is_up(up0));
        // After recovery the original FIB is back and traffic flows.
        net.run_until(SimTime::from_millis(2));
        assert_eq!(net.fib.up_candidates, before.0);
        assert!(net.link_is_up(up0));
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(2), 0, 1460, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        assert_eq!(net.stats.fault_transitions, 4, "2 fail + 2 recover");
    }

    #[test]
    fn enqueue_into_dead_channel_is_blackholed() {
        let mut net = small_net();
        // Kill host 0's access uplink: its emissions die at the NIC.
        let access = net.fib.host_access[0];
        net.schedule_channel_fault(SimTime::from_nanos(1), access, false);
        net.run_until(SimTime::from_micros(1));
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(2), 0, 1460, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert_eq!(net.stats.blackholed, 1);
        assert_eq!(net.port(access).blackholed, 1);
        assert!(net.agent.received.is_empty());
    }

    #[test]
    fn redundant_transitions_are_no_ops() {
        let mut net = small_net();
        let up0 = net.fib.leaf_uplinks[0][0];
        net.schedule_channel_fault(SimTime::from_micros(1), up0, true); // already up
        net.schedule_channel_fault(SimTime::from_micros(2), up0, false);
        net.schedule_channel_fault(SimTime::from_micros(3), up0, false); // already down
        net.run_until(SimTime::from_micros(10));
        assert_eq!(net.stats.fault_transitions, 1);
    }

    #[test]
    fn deterministic_through_fail_recover_cycle() {
        let run = || -> (Vec<u64>, u64, u64) {
            let mut net = small_net();
            let up0 = net.fib.leaf_uplinks[0][0];
            net.schedule_channel_fault(SimTime::from_micros(20), up0, false);
            net.schedule_channel_fault(SimTime::from_micros(200), up0, true);
            for f in 0..40u32 {
                inject(
                    &mut net,
                    Packet::data(
                        f,
                        0,
                        ecmp_mix(f as u64, 0xAB),
                        HostId(0),
                        HostId(2),
                        0,
                        1460,
                        SimTime::ZERO,
                    ),
                );
            }
            net.run_to_quiescence();
            let times = net
                .agent
                .received
                .iter()
                .map(|(t, _)| t.as_nanos())
                .collect();
            (times, net.stats.blackholed, net.stats.delivered_pkts)
        };
        assert_eq!(run(), run());
    }

    /// 2 pods x (2 leaves + 2 spines), 2 cores, 2 hosts/leaf. Host 0 is
    /// under leaf 0 (pod 0); host 4 is under leaf 2 (pod 1).
    fn three_tier_net() -> Network<TestEcmp, SinkAgent> {
        let topo = TopologyBuilder::three_tier(2, 2, 2, 2, 2).build();
        Network::new(topo, TestEcmp, SinkAgent::default(), 1)
    }

    #[test]
    fn three_tier_inter_pod_traffic_rides_the_core() {
        let mut net = three_tier_net();
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(4), 0, 1460, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        assert!(
            net.agent.received[0].1.overlay.is_none(),
            "decapped at dst leaf"
        );
        // The packet must have crossed one spine-up and one core-down hop.
        let (mut spine_up_tx, mut core_down_tx) = (0, 0);
        for (i, c) in net.topo.channels.clone().iter().enumerate() {
            match c.kind {
                ChannelKind::SpineUp => spine_up_tx += net.port(ChannelId(i as u32)).tx_pkts,
                ChannelKind::CoreDown => core_down_tx += net.port(ChannelId(i as u32)).tx_pkts,
                _ => {}
            }
        }
        assert_eq!(spine_up_tx, 1);
        assert_eq!(core_down_tx, 1);
    }

    #[test]
    fn three_tier_intra_pod_traffic_skips_the_core() {
        let mut net = three_tier_net();
        // Host 0 (leaf 0) → host 2 (leaf 1), same pod.
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(2), 0, 1460, SimTime::ZERO),
        );
        net.run_to_quiescence();
        assert_eq!(net.agent.received.len(), 1);
        for (i, c) in net.topo.channels.clone().iter().enumerate() {
            if matches!(c.kind, ChannelKind::SpineUp | ChannelKind::CoreDown) {
                assert_eq!(net.port(ChannelId(i as u32)).tx_pkts, 0);
            }
        }
    }

    #[test]
    fn core_link_fault_conserves_packets_and_recovery_restores_paths() {
        let mut net = three_tier_net();
        // Kill every core link of spine 0 and spine 1 toward core 0 early,
        // recover later; traffic in between survives via core 1.
        for s in 0..2 {
            let link = Link::new(NodeId::Spine(SpineId(s)), NodeId::Core(CoreId(0)), 0);
            net.schedule_link(SimTime::from_micros(1), link, false);
            net.schedule_link(SimTime::from_millis(2), link, true);
        }
        net.run_until(SimTime::from_micros(10));
        // During the outage: pod-0 spines detour only through core 1.
        assert_eq!(net.fib.spine_up_candidates[0][2].len(), 1);
        for f in 0..20u32 {
            inject(
                &mut net,
                Packet::data(
                    f,
                    0,
                    ecmp_mix(f as u64, 0xAB),
                    HostId(0),
                    HostId(4),
                    0,
                    1460,
                    SimTime::ZERO,
                ),
            );
        }
        net.run_to_quiescence();
        let s = net.stats;
        assert_eq!(
            s.injected_pkts,
            s.delivered_pkts + s.unroutable + s.blackholed + net.total_drops(),
            "conservation through a core fault"
        );
        assert_eq!(s.delivered_pkts, 20, "core 1 carries everything");
        // After recovery the full candidate set is back.
        assert_eq!(net.fib.spine_up_candidates[0][2].len(), 2);
        assert_eq!(s.fault_transitions, 8, "4 fail + 4 recover");
    }

    #[test]
    fn core_partition_counts_unroutable() {
        let mut net = three_tier_net();
        // Kill every spine-up link in pod 0: inter-pod traffic is stranded
        // at the spines.
        for s in 0..2 {
            for c in 0..2 {
                let link = Link::new(NodeId::Spine(SpineId(s)), NodeId::Core(CoreId(c)), 0);
                net.schedule_link(SimTime::from_nanos(1), link, false);
            }
        }
        net.run_until(SimTime::from_micros(1));
        inject(
            &mut net,
            Packet::data(0, 0, 7, HostId(0), HostId(4), 0, 1460, SimTime::ZERO),
        );
        net.run_to_quiescence();
        // The leaf sees no viable uplink at all (candidates prune through
        // the recursion), so the packet is unroutable at the source leaf.
        assert_eq!(net.stats.unroutable, 1);
        assert!(net.agent.received.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let topo = LeafSpineBuilder::new(2, 2, 2).build();
            let mut net = Network::new(topo, TestEcmp, SinkAgent::default(), seed);
            for f in 0..20u32 {
                inject(
                    &mut net,
                    Packet::data(
                        f,
                        0,
                        ecmp_mix(f as u64, 0xAB),
                        HostId(0),
                        HostId(2),
                        0,
                        1460,
                        SimTime::ZERO,
                    ),
                );
            }
            net.run_to_quiescence();
            net.agent
                .received
                .iter()
                .map(|(t, _)| t.as_nanos())
                .collect()
        };
        assert_eq!(run(11), run(11));
    }

    /// `run_until`, counting the `TxDone` events each channel dispatches
    /// and the fail transitions that find the channel's completion folded.
    fn run_counting(
        net: &mut Network<TestEcmp, SinkAgent>,
        t_end: SimTime,
        tx_done: &mut [u64],
        failed_folded: &mut u32,
    ) {
        let bound = t_end.saturating_add(SimDuration::from_nanos(1));
        while let Some((t, ev)) = net.events.pop_before(bound) {
            net.now = t;
            match ev {
                Ev::TxDone { ch } => tx_done[ch.idx()] += 1,
                Ev::Fault { ch, up: false } if net.ports[ch.idx()].folded.is_some() => {
                    *failed_folded += 1;
                }
                _ => {}
            }
            net.stats.events += net.dispatch(ev) as u64;
        }
        net.now = net.now.max(t_end);
        net.settle_folded(bound);
    }

    /// Every transmission's completion is accounted exactly once: at
    /// quiescence each port's `tx_pkts` is the `TxDone` events it
    /// dispatched plus the completions it folded, and every serializer is
    /// idle. A contended three-tier cell (tail drops at four-packet
    /// queues) with link faults at both tiers — one of them failing a
    /// channel while its completion is folded.
    #[test]
    fn every_completion_is_an_event_or_folded() {
        let topo = TopologyBuilder::three_tier(2, 2, 2, 2, 2)
            .fabric_rate_gbps(10)
            .queue_profile(QueueProfile {
                access_bytes: 6_240,
                fabric_bytes: 6_240,
                host_nic_bytes: 1 << 20,
            })
            .build();
        let mut net = Network::new(topo, TestEcmp, SinkAgent::default(), 1);
        for i in 0..600u32 {
            let (src, dst) = (i % 8, (i % 8 + 1 + i / 8 % 7) % 8);
            let pkt = Packet::data(
                i % 40,
                0,
                ecmp_mix(i as u64 % 40, 0xAB),
                HostId(src),
                HostId(dst),
                0,
                1460,
                SimTime::ZERO,
            );
            inject(&mut net, pkt);
        }
        let leaf_spine = Link::new(NodeId::Leaf(LeafId(0)), NodeId::Spine(SpineId(0)), 0);
        net.schedule_link(SimTime::from_micros(30), leaf_spine, false);
        net.schedule_link(SimTime::from_micros(400), leaf_spine, true);
        let nc = net.topo.channels.len();
        let (mut tx_done, mut failed_folded) = (vec![0; nc], 0);
        run_counting(
            &mut net,
            SimTime::from_micros(60),
            &mut tx_done,
            &mut failed_folded,
        );
        // Fail a busy spine-core channel before its folded completion.
        let (ch, done_at) = (0..nc)
            .filter(|&i| matches!(net.topo.channels[i].kind, ChannelKind::SpineUp))
            .find_map(|i| Some((ChannelId(i as u32), net.ports[i].folded?.time)))
            .expect("a spine-core channel mid-transmission with nothing queued");
        let fail_at = net.now() + SimDuration::from_nanos(1);
        assert!(fail_at < done_at);
        net.schedule_channel_fault(fail_at, ch, false);
        net.schedule_channel_fault(SimTime::from_micros(500), ch, true);
        run_counting(&mut net, SimTime::MAX, &mut tx_done, &mut failed_folded);

        assert!(
            failed_folded >= 1,
            "no channel failed with its completion folded"
        );
        let s = net.stats;
        assert!(net.total_drops() >= 1 && s.blackholed >= 1, "{s:?}");
        assert_eq!(
            s.injected_pkts,
            s.delivered_pkts + s.unroutable + s.blackholed + net.total_drops(),
        );
        let mut folded = 0;
        for (i, p) in net.ports.iter().enumerate() {
            assert_eq!(p.tx_pkts, tx_done[i] + p.tx_done_folded, "channel {i}");
            assert!(!p.busy && p.folded.is_none(), "channel {i} still busy");
            folded += p.tx_done_folded;
        }
        let events = tx_done.iter().sum::<u64>();
        assert!(
            folded > 0 && events > 0,
            "{folded} folded, {events} TxDone events"
        );
        let mut reg = MetricsRegistry::new();
        net.export_metrics(&mut reg);
        assert_eq!(reg.counter("engine.tx_done_folded"), folded);
    }
}
