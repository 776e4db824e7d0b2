//! Deterministic structured event tracing for the CONGA simulator.
//!
//! The simulator's telemetry layer (`conga-telemetry`) answers *how much*
//! — aggregate counters at quiescence. This crate answers *why*: a typed
//! event stream recording every load-balancing decision with its full
//! candidate congestion vector, every flowlet transition, DRE update,
//! feedback exchange, queue event, loss, and fault transition — enough to
//! reconstruct the causal chain behind any packet's path through the
//! fabric.
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** The instrumented crates hold a
//!    [`TraceHandle`], a newtype over `Option<Arc<Mutex<..>>>`. The
//!    default handle is `None`; every emission site guards on
//!    [`TraceHandle::enabled`]/[`TraceHandle::wants_flow`] (one branch on
//!    a local field) before building an event. No payload is constructed,
//!    no allocation happens, on the disabled path.
//! 2. **Determinism.** Events are recorded in simulation order with a
//!    monotonic sequence number; both exporters are pure functions of the
//!    recorded stream. Same seed + same config ⇒ byte-identical JSONL and
//!    Chrome traces (asserted in `tests/trace.rs`).
//! 3. **No dependency cycle.** Events carry plain integers (channel
//!    indices, flow ids, quantized congestion bytes) rather than types
//!    from `conga-net`/`conga-core`, so this crate sits directly above
//!    `conga-sim` and below everything it instruments.
//!
//! Two exporters ship with the recorder: newline-delimited JSON
//! ([`TraceHandle::export_jsonl`]) for grepping and programmatic replay,
//! and the Chrome `trace_event` format ([`TraceHandle::export_chrome`])
//! which opens directly in `chrome://tracing` or Perfetto with one lane
//! per fabric channel and one per sampled flow. The `trace_explain`
//! binary replays a JSONL trace and prints the decision provenance for a
//! chosen flow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod explain;
pub mod json;

use conga_sim::SimTime;
use json::{write_json_f64, write_json_string};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One candidate uplink considered by a CONGA routing decision.
///
/// `metric = max(local, remote)` is the value the decision minimizes: the
/// worst congestion the packet would see along that path (leaf→spine DRE
/// locally, spine→leaf extent from the Congestion-To-Leaf table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Global channel index of the candidate uplink.
    pub ch: u32,
    /// The LBTag the packet would carry on this uplink.
    pub lbtag: u8,
    /// Quantized local DRE register for the uplink (leaf→spine hop).
    pub local: u8,
    /// Remote congestion metric from the Congestion-To-Leaf table.
    pub remote: u8,
    /// `max(local, remote)` — the path metric actually compared.
    pub metric: u8,
}

/// A typed trace event. Every variant carries plain integers so the event
/// layer has no dependency on the network/core crates it instruments.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A packet was accepted into a channel's transmit queue.
    PacketEnqueue {
        /// Global channel index.
        ch: u32,
        /// Engine-assigned packet id.
        pkt: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Wire size in bytes.
        size: u32,
    },
    /// A packet began serialization onto the wire (dequeue).
    PacketTx {
        /// Global channel index.
        ch: u32,
        /// Engine-assigned packet id.
        pkt: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Wire size in bytes.
        size: u32,
    },
    /// A packet was tail-dropped by a full transmit queue.
    PacketDrop {
        /// Global channel index.
        ch: u32,
        /// Engine-assigned packet id.
        pkt: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Wire size in bytes.
        size: u32,
    },
    /// A packet was lost to a dead link (queued, in flight, or enqueued
    /// into a failed channel). Every such event corresponds to one
    /// increment of the engine's `net.blackholed_packets` counter.
    PacketBlackhole {
        /// Global channel index of the dead channel.
        ch: u32,
        /// Engine-assigned packet id.
        pkt: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Wire size in bytes.
        size: u32,
    },
    /// A packet was delivered to its destination host.
    PacketDeliver {
        /// Destination host id.
        host: u32,
        /// Engine-assigned packet id.
        pkt: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Payload bytes (excluding wire overhead).
        payload: u32,
    },
    /// A leaf's DRE register absorbed bytes for an uplink transmission.
    DreUpdate {
        /// Global channel index whose DRE was updated.
        ch: u32,
        /// Flow of the packet that caused the update.
        flow: u32,
        /// Bytes added to the register.
        bytes: u32,
        /// Quantized register value immediately after the update.
        quantized: u8,
    },
    /// A new flowlet was committed to an uplink. `prev` is the port the
    /// previous flowlet of this flow used, if one existed (its presence
    /// means the previous flowlet aged out — expiry is lazy, detectable
    /// only at the next lookup).
    FlowletNew {
        /// Source leaf index.
        leaf: u32,
        /// Flow id.
        flow: u32,
        /// Channel the new flowlet was committed to.
        ch: u32,
        /// Channel the expired previous flowlet used, if any.
        prev: Option<u32>,
    },
    /// A flowlet aged out (observed at lookup time, immediately before
    /// the matching [`TraceEvent::FlowletNew`]).
    FlowletExpire {
        /// Source leaf index.
        leaf: u32,
        /// Flow id.
        flow: u32,
        /// Channel the expired flowlet had used.
        ch: u32,
    },
    /// A CONGA routing decision with its full provenance: every candidate
    /// uplink with the congestion metrics compared, and the winner.
    Decision {
        /// Source leaf index making the decision.
        leaf: u32,
        /// Flow id.
        flow: u32,
        /// Destination leaf index.
        dst_leaf: u32,
        /// Per-candidate congestion vector, in candidate order.
        candidates: Vec<Candidate>,
        /// Channel index of the chosen uplink.
        chosen: u32,
        /// LBTag the packet will carry.
        lbtag: u8,
        /// True if the tie-break kept the flow's previous port (sticky).
        sticky: bool,
    },
    /// Feedback was piggybacked onto an outgoing packet's overlay header.
    FeedbackPiggyback {
        /// Leaf originating the feedback.
        leaf: u32,
        /// Flow of the carrying packet.
        flow: u32,
        /// Destination leaf the feedback is addressed to.
        dst_leaf: u32,
        /// LBTag the feedback describes.
        lbtag: u8,
        /// Congestion metric being fed back.
        metric: u8,
    },
    /// Piggybacked feedback was harvested into a Congestion-To-Leaf table.
    FeedbackApply {
        /// Leaf applying the feedback (the original sender).
        leaf: u32,
        /// Flow of the carrying packet.
        flow: u32,
        /// Leaf the feedback came from.
        src_leaf: u32,
        /// LBTag the feedback describes.
        lbtag: u8,
        /// Congestion metric applied.
        metric: u8,
    },
    /// A subflow's congestion window changed while processing an ACK or a
    /// retransmission timeout.
    CwndUpdate {
        /// Flow id.
        flow: u32,
        /// Subflow index within the flow.
        subflow: u16,
        /// New congestion window, in bytes (fractional during congestion
        /// avoidance).
        cwnd: f64,
    },
    /// A subflow entered fast retransmit (triple duplicate ACK / SACK).
    FastRetx {
        /// Flow id.
        flow: u32,
        /// Subflow index within the flow.
        subflow: u16,
    },
    /// A subflow's retransmission timer fired.
    Rto {
        /// Flow id.
        flow: u32,
        /// Subflow index within the flow.
        subflow: u16,
    },
    /// A fabric channel changed liveness (link failure or recovery).
    /// Never subject to flow sampling.
    FaultTransition {
        /// Global channel index.
        ch: u32,
        /// New liveness state.
        up: bool,
    },
}

impl TraceEvent {
    /// The flow this event is attributed to for sampling purposes, if any.
    /// Events returning `None` (fault transitions) bypass the flow filter.
    pub fn flow(&self) -> Option<u32> {
        match *self {
            TraceEvent::PacketEnqueue { flow, .. }
            | TraceEvent::PacketTx { flow, .. }
            | TraceEvent::PacketDrop { flow, .. }
            | TraceEvent::PacketBlackhole { flow, .. }
            | TraceEvent::PacketDeliver { flow, .. }
            | TraceEvent::DreUpdate { flow, .. }
            | TraceEvent::FlowletNew { flow, .. }
            | TraceEvent::FlowletExpire { flow, .. }
            | TraceEvent::Decision { flow, .. }
            | TraceEvent::FeedbackPiggyback { flow, .. }
            | TraceEvent::FeedbackApply { flow, .. }
            | TraceEvent::CwndUpdate { flow, .. }
            | TraceEvent::FastRetx { flow, .. }
            | TraceEvent::Rto { flow, .. } => Some(flow),
            TraceEvent::FaultTransition { .. } => None,
        }
    }

    /// The stable type tag used in the JSONL `"ev"` field and as the
    /// Chrome event name.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketEnqueue { .. } => "enqueue",
            TraceEvent::PacketTx { .. } => "tx",
            TraceEvent::PacketDrop { .. } => "drop",
            TraceEvent::PacketBlackhole { .. } => "blackhole",
            TraceEvent::PacketDeliver { .. } => "deliver",
            TraceEvent::DreUpdate { .. } => "dre",
            TraceEvent::FlowletNew { .. } => "flowlet_new",
            TraceEvent::FlowletExpire { .. } => "flowlet_expire",
            TraceEvent::Decision { .. } => "decision",
            TraceEvent::FeedbackPiggyback { .. } => "fb_piggyback",
            TraceEvent::FeedbackApply { .. } => "fb_apply",
            TraceEvent::CwndUpdate { .. } => "cwnd",
            TraceEvent::FastRetx { .. } => "fast_retx",
            TraceEvent::Rto { .. } => "rto",
            TraceEvent::FaultTransition { .. } => "fault",
        }
    }
}

/// One recorded event: sequence number, simulation timestamp, payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    /// Monotonically increasing sequence number (emission order). Gaps
    /// appear only when the ring buffer evicted older records.
    pub seq: u64,
    /// Simulation time the event was emitted.
    pub t: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

/// Per-run trace configuration: which flows to sample and whether to
/// bound the recorder as a flight-recorder ring.
#[derive(Clone, Debug, Default)]
pub struct TraceConfig {
    /// Flow-id sampling filter: `None` records every flow; `Some(set)`
    /// records only events attributed to a flow in the set. Fault
    /// transitions are always recorded.
    pub flows: Option<BTreeSet<u32>>,
    /// Flight-recorder mode: `Some(cap)` keeps only the most recent
    /// `cap` records, evicting the oldest and counting evictions in
    /// [`TraceHandle::dropped`]. `None` is unbounded.
    pub ring: Option<usize>,
}

impl TraceConfig {
    /// Record every flow, unbounded.
    pub fn all() -> Self {
        Self::default()
    }

    /// Bound the recorder to the most recent `cap` records.
    pub fn with_ring(mut self, cap: usize) -> Self {
        self.ring = Some(cap);
        self
    }
}

/// The in-memory recorder behind an enabled [`TraceHandle`].
#[derive(Debug)]
struct Recorder {
    cfg: TraceConfig,
    next_seq: u64,
    dropped: u64,
    records: VecDeque<TraceRecord>,
}

impl Recorder {
    /// Accept one event at simulation time `now`.
    fn record(&mut self, now: SimTime, event: TraceEvent) {
        if let (Some(set), Some(flow)) = (&self.cfg.flows, event.flow()) {
            if !set.contains(&flow) {
                return;
            }
        }
        if let Some(cap) = self.cfg.ring {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.records.len() >= cap {
                self.records.pop_front();
                self.dropped += 1;
            }
        }
        self.records.push_back(TraceRecord {
            seq: self.next_seq,
            t: now,
            event,
        });
        self.next_seq += 1;
    }
}

/// A cheap-to-clone handle to a shared trace recorder.
///
/// The default handle is *disabled*: [`enabled`](Self::enabled) and
/// [`wants_flow`](Self::wants_flow) return `false` after one branch, and
/// [`emit`](Self::emit) is a no-op. Instrumented code holds a clone and
/// guards every emission site on `wants_flow`/`enabled` so that the
/// disabled path constructs no event payloads at all.
///
/// All clones within one shard share one recorder, so events from the
/// engine, the fabric policy, and the transport interleave into a single
/// sequence in simulation order. The recorder sits behind a mutex so a
/// handle can move into a shard worker thread; emission is still
/// effectively uncontended because every shard records into its own
/// handle, merged deterministically afterwards with
/// [`TraceHandle::merged`].
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<Recorder>>>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "TraceHandle(disabled)"),
            Some(r) => write!(f, "TraceHandle({} events)", lock(r).records.len()),
        }
    }
}

/// Lock a recorder; a poisoned mutex is unrecoverable for a deterministic
/// artifact, so propagate the panic.
fn lock(r: &Arc<Mutex<Recorder>>) -> std::sync::MutexGuard<'_, Recorder> {
    r.lock().expect("trace recorder mutex poisoned")
}

impl TraceHandle {
    /// A disabled handle (same as `TraceHandle::default()`).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// An enabled handle recording under the given configuration.
    pub fn recording(cfg: TraceConfig) -> Self {
        Self(Some(Arc::new(Mutex::new(Recorder {
            cfg,
            next_seq: 0,
            dropped: 0,
            records: VecDeque::new(),
        }))))
    }

    /// Deterministically merge per-shard trace streams into one handle.
    ///
    /// Records are ordered by `(time, shard index, shard-local seq)` and
    /// renumbered from zero; eviction counts sum. Because each shard's
    /// stream is itself a pure function of `(code, seed, config)` — the
    /// shard schedule does not depend on the worker count — the merged
    /// stream is byte-stable for any `--shards N`.
    pub fn merged(cfg: TraceConfig, parts: &[TraceHandle]) -> TraceHandle {
        let mut all: Vec<(u64, usize, TraceRecord)> = Vec::new();
        let mut dropped = 0u64;
        for (idx, part) in parts.iter().enumerate() {
            dropped += part.dropped();
            for rec in part.records() {
                all.push((rec.t.as_nanos(), idx, rec));
            }
        }
        all.sort_by_key(|a| (a.0, a.1, a.2.seq));
        // Re-apply the ring bound to the *merged* stream: each shard kept
        // its own newest `cap` records, so the union can exceed the cap —
        // evict the oldest of the union, exactly as one recorder would have.
        if let Some(cap) = cfg.ring {
            if all.len() > cap {
                let evict = all.len() - cap;
                dropped += evict as u64;
                all.drain(..evict);
            }
        }
        let records: VecDeque<TraceRecord> = all
            .into_iter()
            .enumerate()
            .map(|(seq, (_, _, mut rec))| {
                rec.seq = seq as u64;
                rec
            })
            .collect();
        let next_seq = records.len() as u64;
        Self(Some(Arc::new(Mutex::new(Recorder {
            cfg,
            next_seq,
            dropped,
            records,
        }))))
    }

    /// Whether any recording is active. Call sites for events without a
    /// flow attribution (fault transitions) guard on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether events attributed to `flow` would be recorded. Call sites
    /// guard on this *before* building event payloads, so a disabled or
    /// non-matching handle costs one branch and no allocation.
    #[inline]
    pub fn wants_flow(&self, flow: u32) -> bool {
        match &self.0 {
            None => false,
            Some(r) => match &lock(r).cfg.flows {
                None => true,
                Some(set) => set.contains(&flow),
            },
        }
    }

    /// Record one event at simulation time `now`. No-op when disabled;
    /// applies the flow filter and ring bound when enabled.
    pub fn emit(&self, now: SimTime, event: TraceEvent) {
        if let Some(r) = &self.0 {
            lock(r).record(now, event);
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |r| lock(r).records.len())
    }

    /// True when no records are held (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the ring bound (0 when unbounded or disabled).
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |r| lock(r).dropped)
    }

    /// Snapshot of the recorded stream, in sequence order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |r| lock(r).records.iter().cloned().collect())
    }

    /// Export the trace as newline-delimited JSON, one event per line,
    /// or `None` when disabled. Deterministic: a pure function of the
    /// recorded stream.
    pub fn export_jsonl(&self) -> Option<String> {
        let r = self.0.as_ref()?;
        let r = lock(r);
        let mut out = String::new();
        for rec in &r.records {
            write_jsonl_record(&mut out, rec);
            out.push('\n');
        }
        Some(out)
    }

    /// Export the trace in Chrome `trace_event` JSON format (openable in
    /// `chrome://tracing` / Perfetto), or `None` when disabled.
    ///
    /// Lanes: process 1 ("fabric") has one thread per channel carrying
    /// queue/DRE/fault events; process 2 ("flows") has one thread per
    /// sampled flow carrying decisions, flowlet transitions, feedback,
    /// and transport events. Congestion windows additionally render as
    /// counter tracks. Deterministic: a pure function of the stream.
    pub fn export_chrome(&self) -> Option<String> {
        let r = self.0.as_ref()?;
        let r = lock(r);
        Some(export_chrome_trace(&r.records))
    }
}

// ---------------------------------------------------------------------------
// JSONL exporter
// ---------------------------------------------------------------------------

fn write_jsonl_record(out: &mut String, rec: &TraceRecord) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"t_ns\":{},\"ev\":",
        rec.seq,
        rec.t.as_nanos()
    );
    write_json_string(out, rec.event.kind());
    match &rec.event {
        TraceEvent::PacketEnqueue {
            ch,
            pkt,
            flow,
            size,
        }
        | TraceEvent::PacketTx {
            ch,
            pkt,
            flow,
            size,
        }
        | TraceEvent::PacketDrop {
            ch,
            pkt,
            flow,
            size,
        }
        | TraceEvent::PacketBlackhole {
            ch,
            pkt,
            flow,
            size,
        } => {
            let _ = write!(
                out,
                ",\"ch\":{ch},\"pkt\":{pkt},\"flow\":{flow},\"size\":{size}"
            );
        }
        TraceEvent::PacketDeliver {
            host,
            pkt,
            flow,
            payload,
        } => {
            let _ = write!(
                out,
                ",\"host\":{host},\"pkt\":{pkt},\"flow\":{flow},\"payload\":{payload}"
            );
        }
        TraceEvent::DreUpdate {
            ch,
            flow,
            bytes,
            quantized,
        } => {
            let _ = write!(
                out,
                ",\"ch\":{ch},\"flow\":{flow},\"bytes\":{bytes},\"q\":{quantized}"
            );
        }
        TraceEvent::FlowletNew {
            leaf,
            flow,
            ch,
            prev,
        } => {
            let _ = write!(
                out,
                ",\"leaf\":{leaf},\"flow\":{flow},\"ch\":{ch},\"prev\":"
            );
            match prev {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
        }
        TraceEvent::FlowletExpire { leaf, flow, ch } => {
            let _ = write!(out, ",\"leaf\":{leaf},\"flow\":{flow},\"ch\":{ch}");
        }
        TraceEvent::Decision {
            leaf,
            flow,
            dst_leaf,
            candidates,
            chosen,
            lbtag,
            sticky,
        } => {
            let _ = write!(
                out,
                ",\"leaf\":{leaf},\"flow\":{flow},\"dst_leaf\":{dst_leaf},\"cand\":["
            );
            for (i, c) in candidates.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"ch\":{},\"lbtag\":{},\"local\":{},\"remote\":{},\"metric\":{}}}",
                    c.ch, c.lbtag, c.local, c.remote, c.metric
                );
            }
            let _ = write!(
                out,
                "],\"chosen\":{chosen},\"lbtag\":{lbtag},\"sticky\":{sticky}"
            );
        }
        TraceEvent::FeedbackPiggyback {
            leaf,
            flow,
            dst_leaf,
            lbtag,
            metric,
        } => {
            let _ = write!(
                out,
                ",\"leaf\":{leaf},\"flow\":{flow},\"dst_leaf\":{dst_leaf},\"lbtag\":{lbtag},\"metric\":{metric}"
            );
        }
        TraceEvent::FeedbackApply {
            leaf,
            flow,
            src_leaf,
            lbtag,
            metric,
        } => {
            let _ = write!(
                out,
                ",\"leaf\":{leaf},\"flow\":{flow},\"src_leaf\":{src_leaf},\"lbtag\":{lbtag},\"metric\":{metric}"
            );
        }
        TraceEvent::CwndUpdate {
            flow,
            subflow,
            cwnd,
        } => {
            let _ = write!(out, ",\"flow\":{flow},\"sub\":{subflow},\"cwnd\":");
            write_json_f64(out, *cwnd);
        }
        TraceEvent::FastRetx { flow, subflow } | TraceEvent::Rto { flow, subflow } => {
            let _ = write!(out, ",\"flow\":{flow},\"sub\":{subflow}");
        }
        TraceEvent::FaultTransition { ch, up } => {
            let _ = write!(out, ",\"ch\":{ch},\"up\":{up}");
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Chrome trace_event exporter
// ---------------------------------------------------------------------------

/// Chrome process id used for per-channel fabric lanes.
const PID_FABRIC: u32 = 1;
/// Chrome process id used for per-flow lanes.
const PID_FLOWS: u32 = 2;

/// Write a Chrome `ts` value: microseconds with exactly three decimals,
/// computed from integer nanoseconds so the text is deterministic.
fn write_chrome_ts(out: &mut String, t: SimTime) {
    let ns = t.as_nanos();
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

fn chrome_lane(event: &TraceEvent) -> (u32, u32) {
    match *event {
        TraceEvent::PacketEnqueue { ch, .. }
        | TraceEvent::PacketTx { ch, .. }
        | TraceEvent::PacketDrop { ch, .. }
        | TraceEvent::PacketBlackhole { ch, .. }
        | TraceEvent::DreUpdate { ch, .. }
        | TraceEvent::FaultTransition { ch, .. } => (PID_FABRIC, ch),
        TraceEvent::PacketDeliver { flow, .. }
        | TraceEvent::FlowletNew { flow, .. }
        | TraceEvent::FlowletExpire { flow, .. }
        | TraceEvent::Decision { flow, .. }
        | TraceEvent::FeedbackPiggyback { flow, .. }
        | TraceEvent::FeedbackApply { flow, .. }
        | TraceEvent::CwndUpdate { flow, .. }
        | TraceEvent::FastRetx { flow, .. }
        | TraceEvent::Rto { flow, .. } => (PID_FLOWS, flow),
    }
}

fn write_chrome_args(out: &mut String, rec: &TraceRecord) {
    // Reuse the JSONL object as the args payload: it already serializes
    // every field deterministically.
    let mut line = String::new();
    write_jsonl_record(&mut line, rec);
    out.push_str(&line);
}

fn write_metadata(out: &mut String, first: &mut bool, pid: u32, tid: Option<u32>, name: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    match tid {
        None => {
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
            );
        }
        Some(t) => {
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{t},\"args\":{{\"name\":"
            );
        }
    }
    write_json_string(out, name);
    out.push_str("}}");
}

fn export_chrome_trace(records: &VecDeque<TraceRecord>) -> String {
    // Collect lanes first so metadata naming is complete and ordered.
    let mut fabric_lanes: BTreeSet<u32> = BTreeSet::new();
    let mut flow_lanes: BTreeSet<u32> = BTreeSet::new();
    for rec in records {
        let (pid, tid) = chrome_lane(&rec.event);
        if pid == PID_FABRIC {
            fabric_lanes.insert(tid);
        } else {
            flow_lanes.insert(tid);
        }
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    write_metadata(&mut out, &mut first, PID_FABRIC, None, "fabric");
    write_metadata(&mut out, &mut first, PID_FLOWS, None, "flows");
    for &ch in &fabric_lanes {
        write_metadata(
            &mut out,
            &mut first,
            PID_FABRIC,
            Some(ch),
            &format!("channel {ch}"),
        );
    }
    for &f in &flow_lanes {
        write_metadata(
            &mut out,
            &mut first,
            PID_FLOWS,
            Some(f),
            &format!("flow {f}"),
        );
    }
    for rec in records {
        let (pid, tid) = chrome_lane(&rec.event);
        out.push_str(",\n");
        let _ = write!(out, "{{\"name\":");
        write_json_string(&mut out, rec.event.kind());
        let _ = write!(out, ",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
        write_chrome_ts(&mut out, rec.t);
        let _ = write!(out, ",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"event\":");
        write_chrome_args(&mut out, rec);
        out.push_str("}}");
        // Congestion windows additionally render as a counter track so
        // Perfetto draws the sawtooth.
        if let TraceEvent::CwndUpdate {
            flow,
            subflow,
            cwnd,
        } = rec.event
        {
            out.push_str(",\n");
            let _ = write!(out, "{{\"name\":");
            write_json_string(&mut out, &format!("cwnd flow {flow}/{subflow}"));
            let _ = write!(out, ",\"ph\":\"C\",\"ts\":");
            write_chrome_ts(&mut out, rec.t);
            let _ = write!(
                out,
                ",\"pid\":{PID_FLOWS},\"tid\":{flow},\"args\":{{\"cwnd\":"
            );
            write_json_f64(&mut out, cwnd);
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_handle_records_nothing_and_exports_none() {
        let h = TraceHandle::default();
        assert!(!h.enabled());
        assert!(!h.wants_flow(0));
        h.emit(t(1), TraceEvent::FaultTransition { ch: 0, up: false });
        assert!(h.is_empty());
        assert!(h.export_jsonl().is_none());
        assert!(h.export_chrome().is_none());
    }

    #[test]
    fn flow_filter_drops_unsampled_flows_but_keeps_faults() {
        let h = TraceHandle::recording(TraceConfig {
            flows: Some([7].into()),
            ring: None,
        });
        assert!(h.wants_flow(7));
        assert!(!h.wants_flow(8));
        h.emit(
            t(1),
            TraceEvent::PacketTx {
                ch: 0,
                pkt: 1,
                flow: 8,
                size: 100,
            },
        );
        h.emit(
            t(2),
            TraceEvent::PacketTx {
                ch: 0,
                pkt: 2,
                flow: 7,
                size: 100,
            },
        );
        h.emit(t(3), TraceEvent::FaultTransition { ch: 4, up: false });
        let recs = h.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event.flow(), Some(7));
        assert_eq!(recs[1].event.flow(), None);
        // Sequence numbers are assigned to accepted events only.
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[1].seq, 1);
    }

    #[test]
    fn ring_mode_keeps_the_most_recent_records() {
        let h = TraceHandle::recording(TraceConfig::all().with_ring(3));
        for i in 0..10u64 {
            h.emit(
                t(i),
                TraceEvent::PacketTx {
                    ch: 0,
                    pkt: i,
                    flow: 0,
                    size: 1,
                },
            );
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.dropped(), 7);
        let recs = h.records();
        assert_eq!(recs[0].seq, 7);
        assert_eq!(recs[2].seq, 9);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_decision_provenance() {
        let h = TraceHandle::recording(TraceConfig::all());
        h.emit(
            t(1500),
            TraceEvent::Decision {
                leaf: 0,
                flow: 3,
                dst_leaf: 1,
                candidates: vec![
                    Candidate {
                        ch: 4,
                        lbtag: 0,
                        local: 1,
                        remote: 2,
                        metric: 2,
                    },
                    Candidate {
                        ch: 5,
                        lbtag: 1,
                        local: 0,
                        remote: 0,
                        metric: 0,
                    },
                ],
                chosen: 5,
                lbtag: 1,
                sticky: false,
            },
        );
        let text = h.export_jsonl().unwrap();
        let v = json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("ev").and_then(json::Value::as_str), Some("decision"));
        let cand = v.get("cand").and_then(json::Value::as_arr).unwrap();
        assert_eq!(cand.len(), 2);
        assert_eq!(cand[1].get("metric").and_then(json::Value::as_u64), Some(0));
        assert_eq!(v.get("chosen").and_then(json::Value::as_u64), Some(5));
    }

    #[test]
    fn chrome_export_is_valid_json_with_lane_metadata() {
        let h = TraceHandle::recording(TraceConfig::all());
        h.emit(
            t(1_000_000),
            TraceEvent::PacketEnqueue {
                ch: 2,
                pkt: 0,
                flow: 1,
                size: 1500,
            },
        );
        h.emit(
            t(2_000_500),
            TraceEvent::CwndUpdate {
                flow: 1,
                subflow: 0,
                cwnd: 10.5,
            },
        );
        let text = h.export_chrome().unwrap();
        let v = json::parse(&text).expect("chrome export must be valid JSON");
        let events = v.get("traceEvents").and_then(json::Value::as_arr).unwrap();
        // 2 process_name + 1 channel lane + 1 flow lane + 2 events + 1 counter.
        assert_eq!(events.len(), 7);
        assert_eq!(events[0].get("ph").and_then(json::Value::as_str), Some("M"));
        // ts is microseconds with three deterministic decimals.
        let text_has_ts = text.contains("\"ts\":2000.500");
        assert!(text_has_ts, "expected deterministic ts formatting");
    }
}
