//! The end-host stack: a [`conga_net::HostAgent`] that runs every flow in
//! the simulation — plain TCP and MPTCP (N subflows with LIA coupling) —
//! and records per-flow completion times.
//!
//! Flow identities map directly onto packets: `Packet::flow` indexes
//! [`TransportLayer::records`], and `Packet::subflow` selects the MPTCP
//! subflow (0 for plain TCP). Each subflow has a distinct `flow_hash`
//! (standing in for its 5-tuple), which is what lets ECMP place MPTCP
//! subflows on distinct paths.

use crate::cc::CongestionController;
use crate::config::{MptcpConfig, TcpConfig};
use crate::schedule::Schedule;
use crate::tcp::{Lia, Segment, TcpRx, TcpTx};
use conga_net::{
    flow_tuple_hash, Emitter, HostAgent, HostId, Packet, PacketKind, SackBlocks, WIRE_OVERHEAD,
};
use conga_sim::{SimDuration, SimTime};
use conga_telemetry::{MetricsRegistry, SeriesRegistry};
use conga_trace::{TraceEvent, TraceHandle};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Which transport a flow uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TransportKind {
    /// Single-path TCP.
    Tcp(TcpConfig),
    /// Multipath TCP with LIA coupled congestion control.
    Mptcp(MptcpConfig),
}

/// A flow to start: who, to whom, how much, and over which transport.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes to transfer.
    pub bytes: u64,
    /// Transport.
    pub kind: TransportKind,
}

/// Completion record for one flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowRecord {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Application bytes.
    pub bytes: u64,
    /// Start time.
    pub start: SimTime,
    /// When the receiver had every byte (the FCT endpoint used throughout
    /// the experiments).
    pub rx_done: Option<SimTime>,
    /// Total bytes retransmitted across subflows.
    pub retx_bytes: u64,
    /// Total RTO firings across subflows.
    pub timeouts: u64,
}

impl FlowRecord {
    /// The record of a flow that has not run yet.
    pub(crate) fn planned(src: HostId, dst: HostId, bytes: u64, start: SimTime) -> Self {
        FlowRecord {
            src,
            dst,
            bytes,
            start,
            rx_done: None,
            retx_bytes: 0,
            timeouts: 0,
        }
    }

    /// Receiver-side flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<SimDuration> {
        self.rx_done.map(|t| t.saturating_since(self.start))
    }
}

/// An open-loop workload: a pre-materialized list of arrivals.
pub struct ListSource {
    items: Vec<(SimDuration, FlowSpec)>,
}

impl ListSource {
    /// Wrap a list of `(inter-arrival gap, spec)` pairs: each flow starts
    /// its gap after the one before it, the first one after time zero.
    pub fn new(items: Vec<(SimDuration, FlowSpec)>) -> Self {
        ListSource { items }
    }
}

// ---- timer token layout -----------------------------------------------
// [60:28] flow | [27:12] subflow | [3:0] kind. A token is its timer's key
// among equal-time events: a subflow keeps at most one RTO and one pace
// timer pending, and a flow one start.
const KIND_RTO: u64 = 1;
/// Activation timer of a registered flow, set in its sender's domain only
/// (see [`TransportLayer::attach_schedule`] and
/// [`TransportLayer::preregister`]).
const KIND_START: u64 = 3;
/// Pacing-release timer for controllers that pace (the BBR-style one):
/// fires when the subflow's next paced segment may go on the wire.
const KIND_PACE: u64 = 4;

fn token(flow: usize, sub: usize, kind: u64) -> u64 {
    ((flow as u64) << 28) | ((sub as u64) << 12) | kind
}

fn untoken(t: u64) -> (usize, usize, u64) {
    ((t >> 28) as usize, ((t >> 12) & 0xFFFF) as usize, t & 0xF)
}

#[derive(Debug)]
struct SubflowRt {
    tx: TcpTx,
    rx: TcpRx,
    flow_hash: u64,
    /// The retransmission timer: a single pending event per subflow. Every
    /// ACK pushes `rto_deadline` forward; when the event fires early it
    /// simply re-sleeps until the current deadline (avoiding one event per
    /// ACK, and the aliasing bugs of generation counters).
    rto_deadline: SimTime,
    rto_pending: bool,
    rto_armed: bool,
    /// Segments awaiting their paced release (empty for window-driven
    /// controllers, which emit ACK-clocked bursts directly).
    pace_q: VecDeque<Segment>,
    /// Earliest time the next paced segment may be emitted.
    pace_next: SimTime,
    /// Whether a [`KIND_PACE`] timer is outstanding.
    pace_pending: bool,
}

impl SubflowRt {
    fn new(tx: TcpTx, flow_hash: u64) -> Self {
        SubflowRt {
            tx,
            rx: TcpRx::default(),
            flow_hash,
            rto_deadline: SimTime::ZERO,
            rto_pending: false,
            rto_armed: false,
            pace_q: VecDeque::new(),
            pace_next: SimTime::ZERO,
            pace_pending: false,
        }
    }
}

/// `FlowSlot::live` of a flow with no heavy state (not yet in use here, or
/// retired); also `FlowLive::id` of a parked entry.
const NONE: u32 = u32::MAX;

/// What every stack instance keeps for every registered flow, for the whole
/// run, beside its public [`FlowRecord`]: flow ids index packets and
/// records, so this array is dense — and therefore small. Everything a
/// flow needs only while packets of it are in flight lives in a
/// [`FlowLive`], from first use to retirement.
#[derive(Debug)]
struct FlowSlot {
    /// Index into `live`, or [`NONE`].
    live: u32,
    /// Index into `kinds` (the flow's transport, interned).
    kind: u32,
    /// MPTCP receiver, after retirement: where in `final_acks` its
    /// per-subflow final cumulative ACKs start.
    final_acks: u32,
    /// Out-of-order arrivals the flow's receiver(s) saw, from retirement
    /// on (before that the live state answers).
    rx_ooo: u32,
    /// Whether this stack instance drives the flow's sender. Always true
    /// in a monolithic run; in a sharded run only the sender domain's
    /// replica activates the flow, and tx-side exports (the `subflows`
    /// count, active flows) are gated on it so merged registries match the
    /// monolithic totals.
    tx_local: bool,
    tx_complete: bool,
    rx_complete: bool,
    /// Whether a data packet of the flow ever arrived at this instance.
    rx_seen: bool,
}

impl FlowSlot {
    fn new(kind: u32, tx_local: bool) -> Self {
        FlowSlot {
            live: NONE,
            kind,
            final_acks: 0,
            rx_ooo: 0,
            tx_local,
            tx_complete: false,
            rx_complete: false,
            rx_seen: false,
        }
    }
}

/// A flow's heavy state: built by `activate` on the sender side and by the
/// first data packet on the receiver side (one entry serves both when they
/// are the same stack instance), parked for reuse the moment nothing can
/// read it again (see `maybe_retire`).
#[derive(Debug, Default)]
struct FlowLive {
    /// The flow this entry serves, [`NONE`] while parked.
    id: u32,
    subflows: Vec<SubflowRt>,
    /// MPTCP: bytes not yet assigned to any subflow.
    unassigned: u64,
}

/// The additive transport counters, as `export_metrics` reports them:
/// retired flows fold theirs in here, live ones are added on export.
#[derive(Clone, Debug, Default)]
struct Totals {
    bytes_retx: u64,
    recovery_entries: u64,
    recovery_exits: u64,
    rx_ooo: u64,
    rx_bytes: u64,
    /// (RTO firings, fast retransmits) by controller name.
    per_cc: BTreeMap<&'static str, (u64, u64)>,
}

impl Totals {
    fn absorb(&mut self, s: &SubflowRt) {
        self.bytes_retx += s.tx.bytes_retx;
        if s.tx.timeouts > 0 || s.tx.fast_retx > 0 {
            let e = self.per_cc.entry(s.tx.cc().name()).or_default();
            e.0 += s.tx.timeouts;
            e.1 += s.tx.fast_retx;
        }
        self.recovery_entries += s.tx.recovery_entries;
        self.recovery_exits += s.tx.recovery_exits;
        self.rx_ooo += s.rx.ooo_segments;
        self.rx_bytes += s.rx.bytes_received;
    }
}

/// `kind`'s index among the interned `kinds`, pushed on first sight, and
/// the subflows a flow of it runs: how a stack and a [`Schedule`] alike
/// file a flow's transport.
pub(crate) fn intern(kinds: &mut Vec<TransportKind>, kind: TransportKind) -> (usize, u64) {
    // Arrivals repeat the last kind, so the search is one comparison.
    let k = match kinds.iter().rposition(|k| *k == kind) {
        Some(k) => k,
        None => {
            kinds.push(kind);
            kinds.len() - 1
        }
    };
    let subflows = match kind {
        TransportKind::Tcp(_) => 1,
        TransportKind::Mptcp(c) => c.subflows as u64,
    };
    (k, subflows)
}

/// The end-host transport stack for the whole simulation.
#[derive(Default)]
pub struct TransportLayer {
    flows: Vec<FlowSlot>,
    /// The distinct transports of the registered flows; a cell has a
    /// handful, so the slot holds an index instead of an 80-byte copy.
    kinds: Vec<TransportKind>,
    /// Heavy state of the flows in flight, with parked entries listed in
    /// `free` and reused before the array grows: its length is the peak
    /// number of flows this instance ever had in flight at once.
    live: Vec<FlowLive>,
    free: Vec<u32>,
    /// Final per-subflow cumulative ACKs of retired MPTCP receivers.
    final_acks: Vec<u64>,
    /// Counters of retired flows.
    retired: Totals,
    /// Subflows of every `tx_local` flow, started or not — the
    /// `transport.subflows` export.
    tx_subflows: u64,
    /// Flows whose sender has every byte ACKed.
    tx_complete: u64,
    /// Flows completed at this receiver since the last
    /// [`TransportLayer::drain_completions`].
    completions: Vec<u32>,
    /// One record per started flow, indexed by flow id.
    pub records: Vec<FlowRecord>,
    /// Flows whose receiver has every byte.
    pub completed_rx: usize,
    /// Flows activated (kickoff emitted) by this stack instance — the
    /// `transport.flows_started` export. Distinct from `flows.len()`:
    /// sharded runs register a flow in every domain it reaches but
    /// activate it exactly once, in its sender's domain.
    activated: u64,
    /// The shared schedule flows are registered from, if one is attached.
    attached: Option<Attached>,
    /// Structured event tracing (cwnd moves, fast retransmits, RTOs);
    /// disabled by default.
    tracer: TraceHandle,
    /// Reusable segment buffer for the ACK/RTO/pump paths (checked out with
    /// `mem::take`, checked back in when the call finishes) — the hot path
    /// would otherwise allocate a fresh `Vec` per ACK.
    scratch_segs: Vec<Segment>,
}

/// An attached [`Schedule`] and this stack's place in it.
struct Attached {
    schedule: Arc<Schedule>,
    /// The domain this stack runs in: it starts the flows sent from it.
    domain: u16,
}

impl TransportLayer {
    /// An empty stack; start flows with [`TransportLayer::start_flow`] or
    /// attach a workload with [`TransportLayer::attach_source`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Run an arrival list on a monolithic network: the whole fabric is
    /// one domain, which starts every flow of the list as a one-domain
    /// [`Schedule`]. Kick it off with [`TransportLayer::begin_source`].
    /// Boxed because `congabench`'s replay passes
    /// `Box::new(ListSource::new(..))`.
    #[allow(clippy::boxed_local)]
    pub fn attach_source(&mut self, source: Box<ListSource>) {
        let mut t = SimTime::ZERO;
        let starts = source.items.iter().map(|&(gap, spec)| {
            t += gap;
            (t, spec)
        });
        self.attach(Arc::new(Schedule::over(starts, 1, |_| 0)), 0);
    }

    /// The delay from time zero to the first flow's start timer, and its
    /// token, for the caller to schedule (`net.schedule_timer(delay,
    /// token)`); every start sets the next one. `None` for an empty list.
    pub fn begin_source(&mut self) -> Option<(SimDuration, u64)> {
        let first = self.attached.as_ref()?.schedule.flows.first()?;
        Some((first.start - SimTime::ZERO, Self::start_token(0)))
    }

    /// Number of flows started so far.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Flows holding heavy state in this stack instance right now, and the
    /// most that ever did at once.
    pub fn live_flows(&self) -> (usize, usize) {
        (self.live.len() - self.free.len(), self.live.len())
    }

    /// The flows whose receiver got its last byte here since the previous
    /// call, in completion order.
    pub fn drain_completions(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.completions.drain(..)
    }

    fn state(&self, flow: usize) -> Option<&FlowLive> {
        self.live.get(self.flows[flow].live as usize)
    }

    /// Out-of-order segment arrivals observed by `flow`'s receiver(s) — a
    /// direct measure of path-induced reordering.
    pub fn rx_ooo_segments(&self, flow: usize) -> u64 {
        match self.state(flow) {
            Some(l) => l.subflows.iter().map(|s| s.rx.ooo_segments).sum(),
            None => self.flows[flow].rx_ooo as u64,
        }
    }

    /// Payload bytes delivered so far for `flow` (across subflows).
    pub fn rx_bytes(&self, flow: usize) -> u64 {
        match self.state(flow) {
            Some(l) => l.subflows.iter().map(|s| s.rx.bytes_received).sum(),
            // Retired: a receiver that finished holds exactly the flow's
            // bytes (`bytes_received` counts distinct bytes), one that
            // never saw a packet holds none.
            None if self.flows[flow].rx_complete => self.records[flow].bytes,
            None => 0,
        }
    }

    /// Start a flow immediately; returns its id.
    pub fn start_flow(&mut self, spec: FlowSpec, now: SimTime, em: &mut Emitter) -> usize {
        let id = self.preregister(spec, now, true);
        self.activate(id, now, em);
        id
    }

    /// Run the flows of `schedule` in one domain of a sharded run, where
    /// every domain attaches the same schedule. Nothing is registered
    /// here: a flow is registered, with every flow before it so that ids
    /// stay aligned across domains, when this domain's start timer for it
    /// fires or when its first packet lands here. Only the next start
    /// timer is ever set, and each sets its successor when it fires (the
    /// first one is set into `em` here, at time zero).
    pub fn attach_schedule(&mut self, schedule: Arc<Schedule>, domain: usize, em: &mut Emitter) {
        self.attach(schedule, domain);
        self.set_next_start(0, SimTime::ZERO, em);
    }

    fn attach(&mut self, schedule: Arc<Schedule>, domain: usize) {
        assert!(
            self.flows.is_empty() && self.attached.is_none(),
            "a schedule is attached to a fresh stack"
        );
        // Exactly the schedule's size: doubling up to it would leave the
        // outgrown steps behind in every replica. Reserved pages become
        // resident only as flows are registered.
        self.records.reserve_exact(schedule.len());
        self.flows.reserve_exact(schedule.len());
        self.kinds.clone_from(&schedule.kinds);
        // Counted up front, as if every local flow were registered now.
        self.tx_subflows = schedule.local(domain);
        self.attached = Some(Attached {
            schedule,
            domain: domain as u16,
        });
    }

    /// At `now`, set the start timer of the first flow from `from` on that
    /// this domain starts.
    fn set_next_start(&self, from: usize, now: SimTime, em: &mut Emitter) {
        let Some(p) = &self.attached else { return };
        let flows = &p.schedule.flows;
        let rest = flows.get(from..).unwrap_or_default();
        if let Some(k) = rest.iter().position(|f| f.tx_domain == p.domain) {
            let id = from + k;
            em.set_timer(flows[id].start - now, Self::start_token(id));
        }
    }

    /// Register the attached schedule's flows up to and including `last`
    /// (or its end) that are not registered yet.
    fn register_through(&mut self, last: usize) {
        let Some(p) = &self.attached else { return };
        let (schedule, domain) = (Arc::clone(&p.schedule), p.domain);
        let end = schedule.len().min(last.saturating_add(1));
        let flows = schedule.flows.get(self.flows.len()..end);
        for f in flows.unwrap_or_default() {
            self.register(f.record(), f.kind as usize, f.tx_domain == domain);
        }
    }

    /// Register every flow of the attached schedule not registered yet,
    /// so that the next [`TransportLayer::preregister`] takes the id after
    /// the schedule's last.
    pub fn register_schedule(&mut self) {
        self.register_through(usize::MAX);
    }

    /// Register a flow that starts later, without emitting anything yet:
    /// a flow added to a sharded run mid-run, registered in every domain
    /// in the same order (aligning flow ids), with `tx_local` set only in
    /// the sender's domain, which also schedules a
    /// [`TransportLayer::start_token`] timer for the start time; the timer
    /// activates the flow. `start` is the planned absolute start time
    /// recorded for FCT measurement. Registration stores the record and a
    /// small slot; the flow's TCP/MPTCP state is built when it is first
    /// used.
    pub fn preregister(&mut self, spec: FlowSpec, start: SimTime, tx_local: bool) -> usize {
        let (kind, subflows) = intern(&mut self.kinds, spec.kind);
        if tx_local {
            self.tx_subflows += subflows;
        }
        let record = FlowRecord::planned(spec.src, spec.dst, spec.bytes, start);
        self.register(record, kind, tx_local)
    }

    /// The one registration: flow `flows.len()`'s record and slot.
    fn register(&mut self, record: FlowRecord, kind: usize, tx_local: bool) -> usize {
        self.records.push(record);
        self.flows.push(FlowSlot::new(kind as u32, tx_local));
        self.flows.len() - 1
    }

    /// The timer token whose firing activates registered flow `flow`.
    pub fn start_token(flow: usize) -> u64 {
        token(flow, 0, KIND_START)
    }

    /// The flow's heavy state, built now if it has none: the same initial
    /// state whichever side asks first.
    fn ensure_state(&mut self, flow: usize) -> usize {
        let slot = &mut self.flows[flow];
        if slot.live != NONE {
            return slot.live as usize;
        }
        let li = match self.free.pop() {
            Some(li) => li as usize,
            None => {
                self.live.push(FlowLive::default());
                self.live.len() - 1
            }
        };
        slot.live = li as u32;
        let l = &mut self.live[li];
        let (id, bytes) = (flow as u32, self.records[flow].bytes);
        l.id = id;
        match self.kinds[slot.kind as usize] {
            TransportKind::Tcp(cfg) => l.subflows.push(SubflowRt::new(
                TcpTx::new(cfg, bytes),
                flow_tuple_hash(id, 0),
            )),
            TransportKind::Mptcp(cfg) => {
                l.subflows.extend((0..cfg.subflows).map(|s| {
                    SubflowRt::new(TcpTx::new_open_ended(cfg.tcp), flow_tuple_hash(id, s))
                }));
                l.unassigned = bytes;
            }
        }
        li
    }

    /// Emit a registered flow's kickoff: the initial window (TCP) or the
    /// first allocation round (MPTCP).
    fn activate(&mut self, id: usize, now: SimTime, em: &mut Emitter) {
        self.activated += 1;
        let li = self.ensure_state(id);
        match self.kinds[self.flows[id].kind as usize] {
            TransportKind::Tcp(_) => {
                let mut segs = std::mem::take(&mut self.scratch_segs);
                segs.clear();
                self.live[li].subflows[0].tx.pump(&mut segs);
                self.dispatch_segments(id, li, 0, &segs, now, em);
                self.scratch_segs = segs;
                self.arm_rto(id, li, 0, now, true, em);
            }
            TransportKind::Mptcp(cfg) => {
                self.mp_allocate_and_pump(id, li, cfg, now, em);
            }
        }
    }

    fn emit_segments(
        &self,
        flow: usize,
        li: usize,
        sub: usize,
        segs: &[Segment],
        now: SimTime,
        em: &mut Emitter,
    ) {
        let r = &self.records[flow];
        let flow_hash = self.live[li].subflows[sub].flow_hash;
        for seg in segs {
            let mut p = Packet::data(
                flow as u32,
                sub as u16,
                flow_hash,
                r.src,
                r.dst,
                seg.seq,
                seg.len,
                now,
            );
            if seg.retx {
                p.kind = PacketKind::Retransmit;
            }
            em.send(p);
        }
    }

    /// Route fresh segments to the wire: window-driven controllers (no
    /// pacing rate) emit immediately — the historical ACK-clocked hot path,
    /// untouched — while pacing controllers enqueue and release at the
    /// controller's rate via [`KIND_PACE`] timers.
    fn dispatch_segments(
        &mut self,
        flow: usize,
        li: usize,
        sub: usize,
        segs: &[Segment],
        now: SimTime,
        em: &mut Emitter,
    ) {
        if segs.is_empty() {
            return;
        }
        let s = &mut self.live[li].subflows[sub];
        if s.tx.pacing_rate_bps().is_none() && s.pace_q.is_empty() {
            self.emit_segments(flow, li, sub, segs, now, em);
            return;
        }
        s.pace_q.extend(segs.iter().copied());
        self.pace_drain(flow, li, sub, now, em);
    }

    /// Emit queued paced segments whose release time has come; arm a
    /// pacing timer for the rest. A controller that stops pacing mid-flow
    /// gets its backlog flushed directly.
    fn pace_drain(&mut self, flow: usize, li: usize, sub: usize, now: SimTime, em: &mut Emitter) {
        loop {
            let seg = {
                let Some(s) = self.live[li].subflows.get_mut(sub) else {
                    return;
                };
                if s.pace_q.is_empty() {
                    return;
                }
                if now < s.pace_next {
                    if !s.pace_pending {
                        s.pace_pending = true;
                        em.set_timer(
                            s.pace_next.saturating_since(now),
                            token(flow, sub, KIND_PACE),
                        );
                    }
                    return;
                }
                match s.tx.pacing_rate_bps() {
                    Some(rate) if rate > 0.0 => {
                        let Some(seg) = s.pace_q.pop_front() else {
                            return;
                        };
                        let wire_bits = (seg.len + WIRE_OVERHEAD) as f64 * 8.0;
                        let gap_ns = wire_bits * 1e9 / rate;
                        s.pace_next = now + SimDuration::from_nanos(gap_ns.ceil() as u64);
                        seg
                    }
                    _ => {
                        // No pacing rate any more: flush the backlog.
                        let rest: Vec<Segment> = s.pace_q.drain(..).collect();
                        self.emit_segments(flow, li, sub, &rest, now, em);
                        return;
                    }
                }
            };
            self.emit_segments(flow, li, sub, &[seg], now, em);
        }
    }

    /// Arm or restart the retransmission timer. `restart` pushes the
    /// deadline forward (done only when an ACK makes progress — a stalled
    /// flow must eventually fire its RTO even while dupacks stream in);
    /// otherwise the existing deadline is kept.
    fn arm_rto(
        &mut self,
        flow: usize,
        li: usize,
        sub: usize,
        now: SimTime,
        restart: bool,
        em: &mut Emitter,
    ) {
        let s = &mut self.live[li].subflows[sub];
        if s.tx.in_flight() == 0 || s.tx.done() {
            s.rto_armed = false;
            return;
        }
        if restart || !s.rto_armed {
            s.rto_deadline = now + s.tx.rto();
        }
        s.rto_armed = true;
        if !s.rto_pending {
            s.rto_pending = true;
            em.set_timer(
                s.rto_deadline.saturating_since(now),
                token(flow, sub, KIND_RTO),
            );
        }
    }

    /// MPTCP LIA alpha over a flow's subflows (RFC 6356 formulation).
    fn lia(&self, li: usize) -> Lia {
        const DEFAULT_RTT_S: f64 = 100e-6;
        let mut cwnd_total = 0.0;
        let mut best = 0.0f64;
        let mut denom = 0.0;
        for s in &self.live[li].subflows {
            let cw = s.tx.cwnd();
            let rtt = s.tx.srtt().map(|ns| ns / 1e9).unwrap_or(DEFAULT_RTT_S);
            cwnd_total += cw;
            best = best.max(cw / (rtt * rtt));
            denom += cw / rtt;
        }
        let alpha = if denom > 0.0 {
            cwnd_total * best / (denom * denom)
        } else {
            1.0
        };
        Lia { alpha, cwnd_total }
    }

    /// MPTCP: hand unassigned bytes to subflows whose window is open, then
    /// pump them.
    fn mp_allocate_and_pump(
        &mut self,
        flow: usize,
        li: usize,
        cfg: MptcpConfig,
        now: SimTime,
        em: &mut Emitter,
    ) {
        let n_subs = self.live[li].subflows.len();
        let (mss, conn_rwnd) = (cfg.tcp.mss as u64, cfg.tcp.rwnd);
        let mut segs = std::mem::take(&mut self.scratch_segs);
        for sub in 0..n_subs {
            segs.clear();
            {
                let f = &mut self.live[li];
                loop {
                    // Connection-level receive window: the subflows share
                    // one receive buffer, so aggregate unacknowledged data
                    // is capped (this is what keeps real MPTCP from
                    // self-incasting an idle path with 8 windows at once).
                    let inflight_total: u64 = f.subflows.iter().map(|x| x.tx.in_flight()).sum();
                    let s = &mut f.subflows[sub];
                    // Assign while this subflow could send more right now.
                    if f.unassigned > 0
                        && s.tx.next_seq >= s.tx.total
                        && s.tx.window_open()
                        && inflight_total < conn_rwnd
                    {
                        let chunk = mss.min(f.unassigned);
                        s.tx.assign(chunk);
                        f.unassigned -= chunk;
                    }
                    let before = segs.len();
                    s.tx.pump(&mut segs);
                    if segs.len() == before {
                        break;
                    }
                }
                if f.unassigned == 0 {
                    for s in &mut f.subflows {
                        s.tx.finalize();
                    }
                }
            }
            if !segs.is_empty() {
                self.dispatch_segments(flow, li, sub, &segs, now, em);
                self.arm_rto(flow, li, sub, now, false, em);
            }
        }
        self.scratch_segs = segs;
    }

    fn maybe_finish(&mut self, flow: usize, li: usize, now: SimTime) {
        let (slot, f, r) = (
            &mut self.flows[flow],
            &self.live[li],
            &mut self.records[flow],
        );
        if !slot.rx_complete {
            let rx: u64 = f.subflows.iter().map(|s| s.rx.bytes_received).sum();
            if rx >= r.bytes {
                slot.rx_complete = true;
                r.rx_done = Some(now);
                self.completed_rx += 1;
                self.completions.push(flow as u32);
            }
        }
        if !slot.tx_complete && f.unassigned == 0 && f.subflows.iter().all(|s| s.tx.done()) {
            slot.tx_complete = true;
            self.tx_complete += 1;
            r.retx_bytes = f.subflows.iter().map(|s| s.tx.bytes_retx).sum();
            r.timeouts = f.subflows.iter().map(|s| s.tx.timeouts).sum();
        }
        self.maybe_retire(flow, li);
    }

    /// Park the flow's heavy state if nothing can read it again: the
    /// sender side is dead (not ours, or every byte ACKed with nothing
    /// left to pace out) and the receiver side is dead (no data ever
    /// arrived here, or every byte did). What stays observable moves to
    /// the slot and the running totals first; from here on ACKs and timers
    /// of the flow are no-ops, as they already were for a finished sender,
    /// and duplicate data is answered by `ack_retired`.
    fn maybe_retire(&mut self, flow: usize, li: usize) {
        let slot = &mut self.flows[flow];
        if (slot.rx_seen && !slot.rx_complete) || (slot.tx_local && !slot.tx_complete) {
            return;
        }
        let f = &mut self.live[li];
        if slot.tx_local
            && f.subflows
                .iter()
                .any(|s| !s.pace_q.is_empty() || s.pace_pending)
        {
            return;
        }
        let mut ooo = 0;
        for s in &f.subflows {
            self.retired.absorb(s);
            ooo += s.rx.ooo_segments;
        }
        slot.rx_ooo = u32::try_from(ooo).unwrap_or(u32::MAX);
        if slot.rx_seen && matches!(self.kinds[slot.kind as usize], TransportKind::Mptcp(_)) {
            slot.final_acks = self.final_acks.len() as u32;
            self.final_acks
                .extend(f.subflows.iter().map(|s| s.rx.rcv_nxt));
        }
        f.subflows.clear();
        f.unassigned = 0;
        f.id = NONE;
        self.free.push(slot.live);
        slot.live = NONE;
    }

    /// Answer duplicate data of a flow whose receiver finished and was
    /// retired, exactly as the live receiver would: the final cumulative
    /// ACK — every byte arrived, so there is nothing to SACK.
    fn ack_retired(&self, pkt: &Packet, em: &mut Emitter) {
        let slot = &self.flows[pkt.flow as usize];
        let ack = match self.kinds[slot.kind as usize] {
            TransportKind::Tcp(_) if pkt.subflow == 0 => self.records[pkt.flow as usize].bytes,
            TransportKind::Mptcp(c) if pkt.subflow < c.subflows => {
                self.final_acks[slot.final_acks as usize + pkt.subflow as usize]
            }
            _ => return,
        };
        let hash = flow_tuple_hash(pkt.flow, pkt.subflow);
        send_ack(pkt, hash, ack, SackBlocks::default(), em);
    }
}

/// Cumulative ACK `ack` for data packet `pkt`, back to its sender,
/// advertising the first holes (SACK-lite): echoes the timestamp and the
/// packet's CE mark (a no-op when the dataplane never marks).
fn send_ack(pkt: &Packet, flow_hash: u64, ack: u64, sack: SackBlocks, em: &mut Emitter) {
    let mut ackp = Packet::ack_for(
        pkt.flow,
        pkt.subflow,
        flow_hash,
        pkt.dst,
        pkt.src,
        ack,
        pkt.ts_echo,
    );
    ackp.sack = sack;
    ackp.ecn_echo = pkt.ecn_ce;
    em.send(ackp);
}

impl HostAgent for TransportLayer {
    /// Aggregate transport counters across every flow and subflow into
    /// `reg` under `transport.*` names: retransmission work (`bytes_retx`,
    /// `fast_retx`, `rto_timeouts`), congestion-control state transitions
    /// (`recovery_entries` / `recovery_exits`), path-induced reordering
    /// (`rx_ooo_segments`), and flow lifecycle counts.
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let mut t = self.retired.clone();
        for s in self.live.iter().flat_map(|f| &f.subflows) {
            t.absorb(s);
        }
        // Retransmission-timer accounting is namespaced per controller:
        // `cc.<name>.rto_fired` / `cc.<name>.fast_retx`, emitted only when
        // nonzero. The aimd default keeps the historical flat
        // `transport.rto_timeouts` / `transport.fast_retx` names so the
        // pre-refactor golden reports stay byte-identical.
        let (rto_timeouts, fast_retx) = t.per_cc.remove("aimd").unwrap_or_default();
        reg.set_counter("transport.flows_started", self.activated);
        reg.set_counter("transport.flows_rx_complete", self.completed_rx as u64);
        reg.set_counter("transport.flows_tx_complete", self.tx_complete);
        // Sharded runs register every flow in every domain; only the
        // sender's replica counts its subflows.
        reg.set_counter("transport.subflows", self.tx_subflows);
        reg.set_counter("transport.bytes_retx", t.bytes_retx);
        reg.set_counter("transport.rto_timeouts", rto_timeouts);
        reg.set_counter("transport.fast_retx", fast_retx);
        reg.set_counter("transport.recovery_entries", t.recovery_entries);
        reg.set_counter("transport.recovery_exits", t.recovery_exits);
        reg.set_counter("transport.rx_ooo_segments", t.rx_ooo);
        reg.set_counter("transport.rx_bytes", t.rx_bytes);
        for (name, (rto, fr)) in t.per_cc {
            if rto > 0 {
                reg.set_counter(&format!("cc.{name}.rto_fired"), rto);
            }
            if fr > 0 {
                reg.set_counter(&format!("cc.{name}.fast_retx"), fr);
            }
        }
    }

    fn sample_series(&self, now: SimTime, out: &mut SeriesRegistry) {
        // A flow is active from its start until its sender has every byte
        // ACKed: exactly the live flows whose sender is here and unfinished
        // (activation builds the state, retirement waits for the sender).
        // Gating on `tx_local` counts each flow in exactly one shard
        // domain, so the by-window sum-merge equals the monolithic count.
        // The controller gauges below are `f64` sums: flow-id order.
        let mut active: Vec<&FlowLive> = self
            .live
            .iter()
            .filter(|f| {
                self.flows
                    .get(f.id as usize)
                    .is_some_and(|slot| slot.tx_local && !slot.tx_complete)
            })
            .collect();
        if active.is_empty() {
            return;
        }
        active.sort_unstable_by_key(|f| f.id);
        out.record("transport.active_flows", now, active.len() as f64);
        // Per-controller gauges for the non-default controllers: additive
        // partial values (sums and counts, never means — fractions are
        // derived after the domain merge). An all-aimd run records nothing
        // here, keeping default-report series byte-identical to baseline.
        let mut per: BTreeMap<&'static str, (f64, f64, f64, f64)> = BTreeMap::new();
        for s in active.iter().flat_map(|f| &f.subflows) {
            let name = s.tx.cc().name();
            if name == "aimd" {
                continue;
            }
            let e = per.entry(name).or_default();
            e.0 += s.tx.cwnd();
            e.1 += 1.0;
            if let Some(a) = s.tx.cc().alpha() {
                e.2 += a;
            }
            if let Some(p) = s.tx.pacing_rate_bps() {
                e.3 += p;
            }
        }
        for (name, (cwnd, n, alpha, pace)) in per {
            out.record(&format!("cc.{name}.cwnd_bytes"), now, cwnd);
            out.record(&format!("cc.{name}.subflows"), now, n);
            if name == "dctcp" {
                out.record("cc.dctcp.alpha_sum", now, alpha);
            }
            if name == "bbr" && pace > 0.0 {
                out.record("cc.bbr.pacing_rate_bps", now, pace);
            }
        }
    }

    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.tracer = tracer;
    }

    fn on_packet(&mut self, pkt: Packet, now: SimTime, em: &mut Emitter) {
        let flow = pkt.flow as usize;
        if flow >= self.flows.len() {
            // The flow's first packet here.
            self.register_through(flow);
        }
        let Some(slot) = self.flows.get_mut(flow) else {
            return;
        };
        let kind = self.kinds[slot.kind as usize];
        match pkt.kind {
            PacketKind::Data | PacketKind::Retransmit => {
                if slot.live == NONE && slot.rx_complete {
                    self.ack_retired(&pkt, em);
                    return;
                }
                slot.rx_seen = true;
                let li = self.ensure_state(flow);
                let Some(s) = self.live[li].subflows.get_mut(pkt.subflow as usize) else {
                    return;
                };
                let ack = s.rx.on_data(pkt.seq, pkt.payload);
                send_ack(&pkt, s.flow_hash, ack, s.rx.sack_blocks(), em);
                self.maybe_finish(flow, li, now);
            }
            PacketKind::Ack => {
                // No state: retired, and a finished sender ignores ACKs.
                let li = slot.live as usize;
                if li >= self.live.len() {
                    return;
                }
                let sub = pkt.subflow as usize;
                let mp = match kind {
                    TransportKind::Mptcp(cfg) => Some(cfg),
                    _ => None,
                };
                let lia = mp.map(|_| self.lia(li));
                let traced = self.tracer.wants_flow(pkt.flow);
                let mut segs = std::mem::take(&mut self.scratch_segs);
                segs.clear();
                let progressed;
                {
                    let Some(s) = self.live[li].subflows.get_mut(sub) else {
                        self.scratch_segs = segs;
                        return;
                    };
                    if s.tx.done() {
                        self.scratch_segs = segs;
                        return;
                    }
                    let prev_una = s.tx.snd_una;
                    let (prev_cwnd, prev_fr) = if traced {
                        (s.tx.cwnd(), s.tx.fast_retx)
                    } else {
                        (0.0, 0)
                    };
                    s.tx.on_ack(
                        pkt.ack,
                        pkt.ts_echo,
                        now,
                        lia,
                        &pkt.sack,
                        pkt.ecn_echo,
                        &mut segs,
                    );
                    progressed = s.tx.snd_una > prev_una;
                    if traced {
                        if s.tx.fast_retx > prev_fr {
                            self.tracer.emit(
                                now,
                                TraceEvent::FastRetx {
                                    flow: pkt.flow,
                                    subflow: pkt.subflow,
                                },
                            );
                        }
                        let cwnd = s.tx.cwnd();
                        if cwnd != prev_cwnd {
                            self.tracer.emit(
                                now,
                                TraceEvent::CwndUpdate {
                                    flow: pkt.flow,
                                    subflow: pkt.subflow,
                                    cwnd,
                                },
                            );
                        }
                    }
                }
                self.dispatch_segments(flow, li, sub, &segs, now, em);
                self.scratch_segs = segs;
                if let Some(cfg) = mp {
                    self.mp_allocate_and_pump(flow, li, cfg, now, em);
                }
                self.arm_rto(flow, li, sub, now, progressed, em);
                self.maybe_finish(flow, li, now);
            }
        }
    }

    fn on_timer(&mut self, t: u64, now: SimTime, em: &mut Emitter) {
        let (flow, sub, kind) = untoken(t);
        if kind == KIND_START {
            self.register_through(flow);
        }
        let Some(slot) = self.flows.get(flow) else {
            return;
        };
        // RTO and pace timers of a retired flow find no state: no-ops, as
        // they were for its finished sender.
        let li = slot.live as usize;
        match kind {
            KIND_RTO if li < self.live.len() => {
                let mut segs = std::mem::take(&mut self.scratch_segs);
                segs.clear();
                {
                    let Some(s) = self.live[li].subflows.get_mut(sub) else {
                        self.scratch_segs = segs;
                        return;
                    };
                    s.rto_pending = false;
                    if !s.rto_armed || s.tx.done() {
                        self.scratch_segs = segs;
                        return; // timer was cancelled
                    }
                    if now < s.rto_deadline {
                        // ACKs pushed the deadline forward; sleep the rest.
                        s.rto_pending = true;
                        em.set_timer(
                            s.rto_deadline.saturating_since(now),
                            token(flow, sub, KIND_RTO),
                        );
                        self.scratch_segs = segs;
                        return;
                    }
                    // Go-back-N rewinds the send point: queued paced
                    // segments are stale, and the single retransmission
                    // below goes out directly (never paced) so recovery is
                    // not delayed behind a slack pacing schedule.
                    s.pace_q.clear();
                    s.tx.on_rto(&mut segs);
                    if self.tracer.wants_flow(flow as u32) {
                        self.tracer.emit(
                            now,
                            TraceEvent::Rto {
                                flow: flow as u32,
                                subflow: sub as u16,
                            },
                        );
                        self.tracer.emit(
                            now,
                            TraceEvent::CwndUpdate {
                                flow: flow as u32,
                                subflow: sub as u16,
                                cwnd: s.tx.cwnd(),
                            },
                        );
                    }
                }
                self.emit_segments(flow, li, sub, &segs, now, em);
                self.scratch_segs = segs;
                self.arm_rto(flow, li, sub, now, true, em);
            }
            KIND_PACE if li < self.live.len() => {
                let Some(s) = self.live[li].subflows.get_mut(sub) else {
                    return;
                };
                s.pace_pending = false;
                self.pace_drain(flow, li, sub, now, em);
                // The last paced segment of a finished sender is out.
                self.maybe_retire(flow, li);
            }
            KIND_START => {
                self.activate(flow, now, em);
                self.set_next_start(flow + 1, now, em);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcKind;

    fn spec(bytes: u64, kind: TransportKind) -> FlowSpec {
        FlowSpec {
            src: HostId(1),
            dst: HostId(9),
            bytes,
            kind,
        }
    }

    fn tcp(bytes: u64) -> FlowSpec {
        spec(bytes, TransportKind::Tcp(TcpConfig::standard()))
    }

    fn data(flow: u32, sub: u16, seq: u64, len: u32, at_ns: u64) -> Packet {
        let hash = flow_tuple_hash(flow, sub);
        let t = SimTime::from_nanos(at_ns);
        Packet::data(flow, sub, hash, HostId(1), HostId(9), seq, len, t)
    }

    /// Deliver `pkts` to `layer` one by one; what it sent back, as text.
    fn feed(layer: &mut TransportLayer, pkts: &[Packet]) -> Vec<String> {
        let mut em = Emitter::default();
        for (i, p) in pkts.iter().enumerate() {
            layer.on_packet(p.clone(), SimTime::from_micros(10 + i as u64), &mut em);
        }
        em.packets().iter().map(|p| format!("{p:?}")).collect()
    }

    fn counters(layer: &TransportLayer) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        layer.export_metrics(&mut reg);
        reg
    }

    #[test]
    fn the_per_flow_slot_stays_small() {
        assert_eq!(std::mem::size_of::<FlowSlot>(), 20);
    }

    /// A receiver-only replica retires the flow at its last byte; a twin
    /// whose sender side is "ours but never started" cannot retire it, so
    /// it answers from live state. Late duplicates must get the same ACKs
    /// from both: final cumulative ACK, no SACK, the packet's own echoes.
    #[test]
    fn duplicate_data_after_retirement_gets_the_live_receivers_answer() {
        let mptcp = TransportKind::Mptcp(MptcpConfig {
            tcp: TcpConfig::standard(),
            subflows: 3,
        });
        // (spec, the flow's data, late duplicates)
        let cases = [
            (
                tcp(3000),
                vec![
                    data(0, 0, 1460, 1460, 1), // out of order first
                    data(0, 0, 0, 1460, 2),
                    data(0, 0, 2920, 80, 3),
                ],
                vec![data(0, 0, 1460, 1460, 7), data(0, 0, 2920, 80, 8)],
            ),
            (
                spec(5000, mptcp),
                vec![
                    data(0, 0, 0, 1460, 1),
                    data(0, 1, 0, 1460, 2),
                    data(0, 0, 1460, 1460, 3),
                    data(0, 1, 1460, 620, 4),
                ],
                vec![
                    data(0, 1, 0, 1460, 7),
                    data(0, 0, 1460, 1460, 8),
                    data(0, 3, 0, 1460, 9), // no such subflow: ignored
                ],
            ),
        ];
        for (spec, flow_data, mut dups) in cases {
            dups[0].ecn_ce = true;
            let mut retiring = TransportLayer::new();
            retiring.preregister(spec, SimTime::ZERO, false);
            let mut keeping = TransportLayer::new();
            keeping.preregister(spec, SimTime::ZERO, true);

            assert_eq!(
                feed(&mut retiring, &flow_data),
                feed(&mut keeping, &flow_data)
            );
            assert_eq!(retiring.completed_rx, 1);
            assert_eq!(retiring.live_flows(), (0, 1), "retired at the last byte");
            assert_eq!(keeping.live_flows(), (1, 1));
            assert_eq!(retiring.drain_completions().collect::<Vec<_>>(), [0]);

            let answers = feed(&mut retiring, &dups);
            assert_eq!(answers, feed(&mut keeping, &dups));
            assert_eq!(answers.len(), 2);
            assert!(answers[0].contains("ecn_echo: true"), "{}", answers[0]);
            assert_eq!(retiring.live_flows(), (0, 1), "duplicates build no state");
            for f in [TransportLayer::rx_bytes, TransportLayer::rx_ooo_segments] {
                assert_eq!(f(&retiring, 0), f(&keeping, 0));
            }
            // `subflows` counts the sender's flows, started or not; every
            // other counter is the same whether or not the state retired.
            let (mut retired, kept) = (counters(&retiring), counters(&keeping));
            assert_eq!(retired.counter("transport.subflows"), 0);
            let n = intern(&mut Vec::new(), spec.kind).1;
            assert_eq!(kept.counter("transport.subflows"), n);
            retired.set_counter("transport.subflows", n);
            assert_eq!(retired, kept);
        }
    }

    /// One stack instance holding both ends: the flow retires when its
    /// last ACK arrives, and everything still addressed to it afterwards —
    /// a duplicate ACK, the RTO timer armed at kickoff, a pace timer —
    /// changes and emits nothing.
    #[test]
    fn acks_and_timers_of_a_retired_flow_are_no_ops() {
        let mut layer = TransportLayer::new();
        let mut em = Emitter::default();
        let id = layer.start_flow(tcp(1000), SimTime::ZERO, &mut em);
        assert_eq!(layer.live_flows(), (1, 1));
        let rto_token = em.timers()[0].1;
        assert_eq!(rto_token, token(id, 0, KIND_RTO));
        let segment = em.packets()[0].clone();

        let mut acks = Emitter::default();
        layer.on_packet(segment, SimTime::from_micros(5), &mut acks);
        assert_eq!(layer.live_flows(), (1, 1), "received, not yet ACKed");
        let ack = acks.packets()[0].clone();
        let mut em = Emitter::default();
        layer.on_packet(ack.clone(), SimTime::from_micros(10), &mut em);
        assert_eq!(layer.live_flows(), (0, 1));
        assert!(layer.flows[id].tx_complete);

        let before = counters(&layer);
        layer.on_packet(ack, SimTime::from_micros(11), &mut em);
        layer.on_timer(rto_token, SimTime::from_millis(200), &mut em);
        layer.on_timer(token(id, 0, KIND_PACE), SimTime::from_millis(201), &mut em);
        assert!(em.packets().is_empty() && em.timers().is_empty());
        assert_eq!(counters(&layer), before);
        assert_eq!(layer.live_flows(), (0, 1));
        assert_eq!(layer.rx_bytes(id), 1000);

        // The parked entry serves the next flow.
        layer.start_flow(tcp(1000), SimTime::from_millis(300), &mut em);
        assert_eq!(layer.live_flows(), (1, 1));
    }

    /// A pacing sender can have every byte ACKed while a (now needless)
    /// retransmission still waits in its pace queue. That segment goes
    /// out when its timer fires, as it always did — so the flow's state
    /// has to outlive `tx_complete` until the queue is empty.
    #[test]
    fn a_finished_pacing_sender_is_retired_only_once_its_pace_queue_drains() {
        let cfg = TcpConfig::standard().with_cc(CcKind::Bbr);
        let mut layer = TransportLayer::new();
        let id = layer.preregister(spec(2920, TransportKind::Tcp(cfg)), SimTime::ZERO, true);
        let li = layer.ensure_state(id);
        let late = Segment {
            seq: 0,
            len: 1460,
            retx: true,
        };
        let s = &mut layer.live[li].subflows[0];
        (s.tx.next_seq, s.tx.snd_una) = (2920, 2920);
        s.pace_q.push_back(late);
        s.pace_next = SimTime::from_micros(50);
        s.pace_pending = true;

        layer.maybe_finish(id, li, SimTime::from_micros(40));
        assert!(layer.flows[id].tx_complete);
        assert_eq!(layer.live_flows(), (1, 1), "a segment is still queued");

        let mut em = Emitter::default();
        layer.on_timer(token(id, 0, KIND_PACE), SimTime::from_micros(50), &mut em);
        assert_eq!(em.packets().len(), 1);
        assert_eq!(em.packets()[0].kind, PacketKind::Retransmit);
        assert_eq!(layer.live_flows(), (0, 1));
    }
}
