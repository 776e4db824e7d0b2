//! A per-packet TCP model: the loss-detection/recovery state machine
//! (fast retransmit, NewReno recovery, SACK scoreboard repair, an RFC
//! 6298 retransmission timer), with every congestion-window decision
//! delegated to a pluggable [`CongestionController`] (see [`crate::cc`]).
//!
//! The machinery is split into a sender ([`TcpTx`]) and receiver
//! ([`TcpRx`]) state machine that are *pure* — they know nothing about the
//! simulator. `transport::TransportLayer` drives them from network events.
//! MPTCP reuses `TcpTx` per subflow, injecting its coupled (LIA)
//! congestion-avoidance increase through the [`Lia`] parameter.

use crate::cc::{AckCtx, Cc, CongestionController};
use crate::config::TcpConfig;
use conga_net::SackBlocks;
use conga_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A segment the sender wants on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First payload byte.
    pub seq: u64,
    /// Payload length.
    pub len: u32,
    /// Whether this is a retransmission.
    pub retx: bool,
}

/// Coupled-increase context for MPTCP's Linked Increases Algorithm: the
/// connection-level `alpha` and the total congestion window across subflows
/// (both in bytes). `None` means plain NewReno.
#[derive(Clone, Copy, Debug)]
pub struct Lia {
    /// The LIA aggressiveness factor.
    pub alpha: f64,
    /// Sum of subflow congestion windows, bytes.
    pub cwnd_total: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CcState {
    /// Normal operation (slow start or congestion avoidance by cwnd).
    Open,
    /// NewReno fast recovery until `recover` is cumulatively ACKed.
    Recovery { recover: u64 },
}

/// TCP sender state machine.
#[derive(Debug, Clone)]
pub struct TcpTx {
    cfg: TcpConfig,
    /// Total bytes this sender must deliver. MPTCP grows this as chunks are
    /// assigned to the subflow; `finalized` marks that no more will come.
    pub total: u64,
    /// Whether `total` is final (always true for plain TCP).
    pub finalized: bool,
    /// Next new byte to transmit.
    pub next_seq: u64,
    /// Highest cumulatively ACKed byte.
    pub snd_una: u64,
    cc: Cc,
    state: CcState,
    dup_acks: u32,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    retx_since_ack: bool,
    /// SACK scoreboard: byte ranges above `snd_una` the receiver has
    /// reported holding (merged; pruned as `snd_una` advances).
    sacked: BTreeMap<u64, u64>,
    /// Repair cursor: everything un-SACKed below it has been retransmitted
    /// in the current recovery episode.
    repair_cursor: u64,

    // ---- statistics ----
    /// Bytes retransmitted.
    pub bytes_retx: u64,
    /// RTO firings.
    pub timeouts: u64,
    /// Fast retransmits triggered.
    pub fast_retx: u64,
    /// State transitions Open → Recovery (== fast-recovery episodes).
    pub recovery_entries: u64,
    /// State transitions Recovery → Open (full ACK or RTO collapse).
    pub recovery_exits: u64,
}

impl TcpTx {
    /// A sender with `total` bytes to deliver.
    pub fn new(cfg: TcpConfig, total: u64) -> Self {
        TcpTx {
            cfg,
            total,
            finalized: true,
            next_seq: 0,
            snd_una: 0,
            cc: Cc::from_config(&cfg),
            state: CcState::Open,
            dup_acks: 0,
            srtt: None,
            rttvar: 0.0,
            rto: cfg.min_rto,
            retx_since_ack: false,
            sacked: BTreeMap::new(),
            repair_cursor: 0,
            bytes_retx: 0,
            timeouts: 0,
            fast_retx: 0,
            recovery_entries: 0,
            recovery_exits: 0,
        }
    }

    /// A sender whose byte budget will be assigned incrementally (MPTCP
    /// subflow).
    pub fn new_open_ended(cfg: TcpConfig) -> Self {
        let mut t = Self::new(cfg, 0);
        t.finalized = false;
        t
    }

    /// All assigned bytes are ACKed and no more are coming.
    #[inline]
    pub fn done(&self) -> bool {
        self.finalized && self.snd_una >= self.total
    }

    /// Bytes in flight (sent, not yet cumulatively ACKed).
    #[inline]
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.snd_una
    }

    /// Current congestion window in bytes.
    #[inline]
    pub fn cwnd(&self) -> f64 {
        self.cc.cwnd()
    }

    /// Current slow-start threshold in bytes.
    #[inline]
    pub fn ssthresh(&self) -> f64 {
        self.cc.ssthresh()
    }

    /// The congestion controller driving this sender (telemetry reads its
    /// name, `alpha`, and pacing rate through this).
    #[inline]
    pub fn cc(&self) -> &Cc {
        &self.cc
    }

    /// The pacing rate the controller requests, in bits per second.
    /// `None` means ACK-clocked bursts (every window-driven controller).
    #[inline]
    pub fn pacing_rate_bps(&self) -> Option<f64> {
        self.cc.pacing_rate_bps()
    }

    /// Overwrite the controller's window state (tests and diagnostics).
    pub fn force_window(&mut self, cwnd: f64, ssthresh: f64) {
        self.cc.force_window(cwnd, ssthresh);
    }

    /// Current retransmission timeout (with backoff applied).
    #[inline]
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT estimate, if a sample exists.
    #[inline]
    pub fn srtt(&self) -> Option<f64> {
        self.srtt
    }

    /// The effective send window: congestion window clamped by the
    /// receiver's advertised window.
    #[inline]
    fn send_window(&self) -> u64 {
        (self.cc.cwnd() as u64).min(self.cfg.rwnd)
    }

    /// Whether the window allows sending at least one new byte right now,
    /// were more data assigned (used by MPTCP's chunk allocator).
    pub fn window_open(&self) -> bool {
        self.next_seq - self.snd_una < self.send_window()
    }

    /// Pull the new segments the window currently permits. During fast
    /// recovery no *new* data is sent (conservative RFC 6675-style
    /// behaviour): the flood otherwise keeps the bottleneck queue full and
    /// drops the very retransmissions that must heal the holes.
    pub fn pump(&mut self, out: &mut Vec<Segment>) {
        if !matches!(self.state, CcState::Open) {
            return;
        }
        let mut burst = 0;
        loop {
            if burst >= self.cfg.max_burst {
                return;
            }
            let win_edge = self.snd_una + self.send_window();
            if self.next_seq >= win_edge || self.next_seq >= self.total {
                return;
            }
            let len = (self.total - self.next_seq).min(self.cfg.mss as u64) as u32;
            // Avoid silly-window syndrome: a segment is sent only when it
            // fits in the window whole (the fractional-cwnd growth of
            // congestion avoidance would otherwise emit a few-byte sliver
            // per ACK, burning the wire on headers).
            if self.next_seq + len as u64 > win_edge {
                return;
            }
            out.push(Segment {
                seq: self.next_seq,
                len,
                retx: false,
            });
            self.next_seq += len as u64;
            burst += 1;
        }
    }

    fn update_rtt(&mut self, sample_ns: f64) {
        // RFC 6298 smoothing.
        match self.srtt {
            None => {
                self.srtt = Some(sample_ns);
                self.rttvar = sample_ns / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample_ns).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample_ns);
            }
        }
        let rto_ns = self.srtt.expect("just set") + (4.0 * self.rttvar).max(1_000.0);
        let rto = SimDuration::from_nanos(rto_ns as u64);
        self.rto = rto.max(self.cfg.min_rto).min(self.cfg.max_rto);
    }

    /// Process a cumulative ACK for byte `ack`, where `ts_echo` is the send
    /// timestamp echoed by the receiver and `ecn_echo` its echoed
    /// congestion-experienced mark. Returns segments to (re)transmit.
    /// `lia` switches congestion avoidance to MPTCP's coupled increase.
    #[allow(clippy::too_many_arguments)]
    pub fn on_ack(
        &mut self,
        ack: u64,
        ts_echo: SimTime,
        now: SimTime,
        lia: Option<Lia>,
        sack: &SackBlocks,
        ecn_echo: bool,
        out: &mut Vec<Segment>,
    ) {
        self.absorb_sack(sack);
        if ack > self.snd_una {
            let acked = (ack - self.snd_una) as f64;
            self.snd_una = ack;
            self.dup_acks = 0;
            // An ACK may cover data sent before an RTO rewound next_seq
            // (go-back-N): never let the send point fall behind the ACK.
            if self.next_seq < self.snd_una {
                self.next_seq = self.snd_una;
            }

            // Karn: skip RTT samples while a retransmission is outstanding.
            let rtt_ns = if !self.retx_since_ack {
                let sample = now.saturating_since(ts_echo).as_nanos() as f64;
                self.update_rtt(sample);
                Some(sample)
            } else {
                self.retx_since_ack = false;
                None
            };

            let ctx = AckCtx {
                acked,
                ack,
                next_seq: self.next_seq,
                now,
                rtt_ns,
                ecn_echo,
                lia,
            };
            if ecn_echo {
                self.cc.on_ecn(&ctx);
            }
            self.cc.on_bytes_acked(&ctx);

            match self.state {
                CcState::Recovery { recover } if ack >= recover => {
                    // Full ACK: leave recovery, deflate to ssthresh.
                    self.state = CcState::Open;
                    self.recovery_exits += 1;
                    self.cc.on_recovery_exit();
                }
                CcState::Recovery { .. } => {
                    // Partial ACK: repair more holes, deflate by the amount
                    // ACKed (NewReno), stay in recovery.
                    self.repair_cursor = self.repair_cursor.max(self.snd_una);
                    self.sack_repair(2, out);
                    self.cc.on_partial_ack(acked);
                }
                CcState::Open => {
                    self.cc.on_ack(&ctx);
                }
            }
            self.pump(out);
        } else if ack == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            match self.state {
                CcState::Open if self.dup_acks == self.cfg.dupack_thresh => {
                    // Fast retransmit + enter recovery.
                    let flight = self.in_flight() as f64;
                    self.cc.on_loss(flight);
                    self.state = CcState::Recovery {
                        recover: self.next_seq,
                    };
                    self.repair_cursor = self.snd_una;
                    self.fast_retx += 1;
                    self.recovery_entries += 1;
                    self.sack_repair(2, out);
                }
                CcState::Recovery { .. } => {
                    // Each dupack confirms one delivery; repair up to two
                    // more un-SACKed segments (self-clocked recovery).
                    let before = out.len();
                    self.sack_repair(2, out);
                    // Lost-retransmission heuristic: everything below the
                    // cursor was repaired once, yet the ACK point is stuck —
                    // a repair itself was dropped. Rescue the head hole, at
                    // most once per stall point (otherwise in-flight repairs
                    // get duplicated en masse).
                    if out.len() == before && self.dup_acks.is_multiple_of(32) {
                        let save = self.repair_cursor;
                        self.repair_cursor = self.snd_una;
                        self.sack_repair(1, out);
                        self.repair_cursor = save;
                    }
                }
                CcState::Open => {}
            }
        }
    }

    /// Merge the receiver-reported SACK blocks into the scoreboard and
    /// prune everything at or below `snd_una`.
    fn absorb_sack(&mut self, sack: &SackBlocks) {
        for (start, end) in sack.iter() {
            if end <= self.snd_una {
                continue;
            }
            merge_range(&mut self.sacked, start.max(self.snd_una), end);
        }
        // Prune below the cumulative ACK.
        while let Some((&s, &e)) = self.sacked.first_key_value() {
            if e <= self.snd_una {
                self.sacked.remove(&s);
            } else if s < self.snd_una {
                self.sacked.remove(&s);
                self.sacked.insert(self.snd_una, e);
            } else {
                break;
            }
        }
    }

    /// Retransmit up to `budget` MSS-sized pieces of the next bytes that
    /// are (a) above the repair cursor, (b) below the recovery point, and
    /// (c) not reported held by the receiver (RFC 6675-style scoreboard
    /// walk). Advances the cursor so nothing is repaired twice per episode.
    fn sack_repair(&mut self, budget: u32, out: &mut Vec<Segment>) {
        let limit = match self.state {
            CcState::Recovery { recover } => recover.min(self.total),
            CcState::Open => self.total,
        };
        let mut seq = self.repair_cursor.max(self.snd_una);
        let mut budget = budget;
        while budget > 0 && seq < limit {
            // Skip over SACKed ranges covering `seq`.
            if let Some((&s, &e)) = self.sacked.range(..=seq).next_back() {
                if seq >= s && seq < e {
                    seq = e;
                    continue;
                }
            }
            // Bound the segment by the next SACKed range start.
            let next_sacked = self
                .sacked
                .range(seq..)
                .next()
                .map(|(&s, _)| s)
                .unwrap_or(u64::MAX);
            let len = (limit - seq)
                .min(self.cfg.mss as u64)
                .min(next_sacked - seq) as u32;
            if len == 0 {
                break;
            }
            out.push(Segment {
                seq,
                len,
                retx: true,
            });
            self.bytes_retx += len as u64;
            self.retx_since_ack = true;
            seq += len as u64;
            budget -= 1;
        }
        self.repair_cursor = self.repair_cursor.max(seq);
    }

    /// The retransmission timer fired: collapse to one segment and back off.
    pub fn on_rto(&mut self, out: &mut Vec<Segment>) {
        if self.done() || self.in_flight() == 0 && self.next_seq >= self.total {
            return;
        }
        let flight = self.in_flight() as f64;
        self.cc.on_rto(flight);
        if matches!(self.state, CcState::Recovery { .. }) {
            self.recovery_exits += 1;
        }
        self.state = CcState::Open;
        self.dup_acks = 0;
        self.timeouts += 1;
        self.retx_since_ack = true;
        self.sacked.clear();
        self.repair_cursor = self.snd_una;
        self.rto = (self.rto * 2).min(self.cfg.max_rto);
        // Go-back-N from the last cumulative ACK: retransmit one segment;
        // further holes are driven by subsequent ACKs.
        self.next_seq = self.snd_una; // classic RTO: resend window from una
        let len = (self.total - self.snd_una).min(self.cfg.mss as u64) as u32;
        if len > 0 {
            out.push(Segment {
                seq: self.snd_una,
                len,
                retx: true,
            });
            self.bytes_retx += len as u64;
            self.next_seq = self.snd_una + len as u64;
        }
    }

    /// MPTCP: grant this subflow `bytes` more to send.
    pub fn assign(&mut self, bytes: u64) {
        debug_assert!(!self.finalized);
        self.total += bytes;
    }

    /// MPTCP: no more bytes will be assigned.
    pub fn finalize(&mut self) {
        self.finalized = true;
    }
}

/// Insert `[start, end)` into `ranges` — disjoint, non-touching `start →
/// end` byte ranges, the sender's SACK scoreboard or the receiver's
/// out-of-order map — merging every range it overlaps or touches into one.
/// Those form a run at the top of `ranges.range(..=end)`, since the stored
/// ranges neither overlap nor touch one another.
fn merge_range(ranges: &mut BTreeMap<u64, u64>, mut start: u64, mut end: u64) {
    while let Some((&s, &e)) = ranges.range(..=end).next_back() {
        if e < start {
            break;
        }
        ranges.remove(&s);
        start = start.min(s);
        end = end.max(e);
    }
    ranges.insert(start, end);
}

/// TCP receiver: tracks the in-order prefix and out-of-order segments,
/// producing cumulative ACKs.
#[derive(Debug, Clone, Default)]
pub struct TcpRx {
    /// Next expected byte (== cumulative ACK value).
    pub rcv_nxt: u64,
    /// Out-of-order segments: start → end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// Total distinct payload bytes received (in-order or not).
    pub bytes_received: u64,
    /// Segments that arrived out of order (reordering indicator).
    pub ooo_segments: u64,
}

impl TcpRx {
    /// Up to three SACK blocks describing out-of-order data held above
    /// `rcv_nxt` (the lowest blocks, which is what the sender's repair
    /// walk wants).
    pub fn sack_blocks(&self) -> SackBlocks {
        let mut b = SackBlocks::default();
        for (&s, &e) in self.ooo.iter().take(3) {
            b.push(s, e);
        }
        b
    }

    /// Process an arriving data segment; returns the new cumulative ACK.
    pub fn on_data(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if end <= self.rcv_nxt {
            // Entirely duplicate (e.g. spurious retransmission).
            return self.rcv_nxt;
        }
        // Fast path: in-order data with no out-of-order ranges held. The
        // general path below would insert the range into the map and
        // immediately pop it back out — two B-tree node (de)allocations on
        // every packet of a loss-free flow.
        if seq <= self.rcv_nxt && self.ooo.is_empty() {
            self.bytes_received += end - self.rcv_nxt;
            self.rcv_nxt = end;
            return self.rcv_nxt;
        }
        let new_start = seq.max(self.rcv_nxt);
        if seq > self.rcv_nxt {
            self.ooo_segments += 1;
        }
        // Count only bytes not previously seen (approximate via overlap with
        // stored ranges; exact for non-overlapping traffic).
        let mut new_bytes = end - new_start;
        for (&s, &e) in self.ooo.range(..end) {
            if e > new_start {
                let ov_start = new_start.max(s);
                let ov_end = end.min(e);
                if ov_end > ov_start {
                    new_bytes = new_bytes.saturating_sub(ov_end - ov_start);
                }
            }
        }
        self.bytes_received += new_bytes;
        merge_range(&mut self.ooo, new_start, end);
        // Advance the in-order prefix.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.remove(&s);
            } else {
                break;
            }
        }
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::standard()
    }

    fn seg(seq: u64, len: u32) -> Segment {
        Segment {
            seq,
            len,
            retx: false,
        }
    }

    // ------------------------------ sender ------------------------------

    #[test]
    fn initial_window_sends_iw_segments() {
        let mut tx = TcpTx::new(cfg(), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        assert_eq!(out.len(), 10, "IW=10");
        assert_eq!(out[0], seg(0, 1460));
        assert_eq!(out[9].seq, 9 * 1460);
        assert_eq!(tx.in_flight(), 14_600);
    }

    #[test]
    fn short_flow_sends_exact_bytes() {
        let mut tx = TcpTx::new(cfg(), 3000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        let total: u64 = out.iter().map(|s| s.len as u64).sum();
        assert_eq!(total, 3000);
        assert_eq!(out.last().unwrap().len, 80); // 1460 + 1460 + 80
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut tx = TcpTx::new(cfg(), 10_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_micros(100);
        // ACK all of the initial window: cwnd should roughly double.
        let before = tx.cwnd();
        tx.on_ack(
            tx.in_flight(),
            t0,
            t1,
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        assert!((tx.cwnd() - 2.0 * before).abs() < 1.0, "cwnd {}", tx.cwnd());
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut tx = TcpTx::new(cfg(), 100_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        // Force CA by setting ssthresh below cwnd via an RTO + regrowth.
        tx.force_window(20.0 * 1460.0, 10.0 * 1460.0);
        let w0 = tx.cwnd();
        // One full window of ACKs in MSS-sized chunks ~= +1 MSS total.
        let mut acked = tx.snd_una;
        for _ in 0..20 {
            acked += 1460;
            tx.on_ack(
                acked,
                SimTime::ZERO,
                SimTime::from_micros(50),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
        }
        let growth = tx.cwnd() - w0;
        assert!(
            (growth - 1460.0).abs() < 160.0,
            "CA grew {growth} bytes per RTT"
        );
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut tx = TcpTx::new(cfg(), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        out.clear();
        for _ in 0..2 {
            tx.on_ack(
                0,
                SimTime::ZERO,
                SimTime::from_micros(10),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
            assert!(out.iter().all(|s| !s.retx));
        }
        tx.on_ack(
            0,
            SimTime::ZERO,
            SimTime::from_micros(10),
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        let rtx: Vec<&Segment> = out.iter().filter(|s| s.retx).collect();
        assert_eq!(rtx.len(), 2, "repair budget is two segments per ACK");
        assert_eq!(rtx[0].seq, 0, "retransmit the lost head segment");
        assert_eq!(tx.fast_retx, 1);
        // ssthresh = half the flight.
        assert!((tx.ssthresh() - 7300.0).abs() < 1.0);
    }

    #[test]
    fn recovery_exits_on_full_ack_with_halved_window() {
        let mut tx = TcpTx::new(cfg(), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        let recover = tx.next_seq;
        for _ in 0..3 {
            tx.on_ack(
                0,
                SimTime::ZERO,
                SimTime::from_micros(10),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
        }
        assert_eq!(tx.state, CcState::Recovery { recover });
        out.clear();
        tx.on_ack(
            recover,
            SimTime::ZERO,
            SimTime::from_micros(30),
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        assert_eq!(tx.state, CcState::Open);
        assert!(
            (tx.cwnd() - 7300.0).abs() < 1.0,
            "cwnd = ssthresh after recovery"
        );
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut tx = TcpTx::new(cfg(), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        for _ in 0..3 {
            tx.on_ack(
                0,
                SimTime::ZERO,
                SimTime::from_micros(10),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
        }
        out.clear();
        // Partial ACK: the retransmissions filled [0,2920) only; the walk
        // continues from the repair cursor.
        tx.on_ack(
            2920,
            SimTime::ZERO,
            SimTime::from_micros(40),
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        let rtx: Vec<&Segment> = out.iter().filter(|s| s.retx).collect();
        assert!(!rtx.is_empty());
        assert_eq!(rtx[0].seq, 2920, "repair resumes at the next hole");
        assert!(matches!(tx.state, CcState::Recovery { .. }));
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut tx = TcpTx::new(cfg(), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        out.clear();
        let rto0 = tx.rto();
        tx.on_rto(&mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].retx);
        assert_eq!(out[0].seq, 0);
        assert!((tx.cwnd() - 1460.0).abs() < 1.0);
        assert_eq!(tx.rto(), (rto0 * 2).min(TcpConfig::standard().max_rto));
        assert_eq!(tx.timeouts, 1);
    }

    #[test]
    fn rtt_estimator_sets_rto_above_min() {
        let mut tx = TcpTx::new(cfg().with_min_rto(SimDuration::from_millis(1)), 1_000_000);
        let mut out = Vec::new();
        tx.pump(&mut out);
        // 100 us RTT samples: RTO should clamp to the 1 ms floor.
        let mut acked = 0;
        for i in 1..=5u64 {
            acked += 1460;
            tx.on_ack(
                acked,
                SimTime::from_micros((i - 1) * 100),
                SimTime::from_micros(i * 100 + 100),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
        }
        assert!(tx.srtt().unwrap() > 0.0);
        assert_eq!(tx.rto(), SimDuration::from_millis(1), "clamped to minRTO");
    }

    #[test]
    fn lia_increase_is_capped_by_uncoupled() {
        let mut a = TcpTx::new(cfg(), 100_000_000);
        let mut b = TcpTx::new(cfg(), 100_000_000);
        for t in [&mut a, &mut b] {
            t.force_window(14_600.0, 1460.0);
        }
        let mut out = Vec::new();
        // Uncoupled CA increase.
        a.on_ack(
            1460,
            SimTime::ZERO,
            SimTime::from_micros(10),
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        // Coupled with a huge alpha: capped at the uncoupled increase.
        b.on_ack(
            1460,
            SimTime::ZERO,
            SimTime::from_micros(10),
            Some(Lia {
                alpha: 1e9,
                cwnd_total: 14_600.0 * 8.0,
            }),
            &SackBlocks::default(),
            false,
            &mut out,
        );
        assert!((a.cwnd() - b.cwnd()).abs() < 1e-6);
        // Coupled with small alpha: strictly less aggressive.
        let mut c = TcpTx::new(cfg(), 100_000_000);
        c.force_window(14_600.0, 1460.0);
        c.on_ack(
            1460,
            SimTime::ZERO,
            SimTime::from_micros(10),
            Some(Lia {
                alpha: 0.1,
                cwnd_total: 14_600.0 * 8.0,
            }),
            &SackBlocks::default(),
            false,
            &mut out,
        );
        assert!(c.cwnd() < a.cwnd());
    }

    #[test]
    fn open_ended_assignment_for_mptcp() {
        let mut tx = TcpTx::new_open_ended(cfg());
        let mut out = Vec::new();
        tx.pump(&mut out);
        assert!(out.is_empty(), "nothing assigned yet");
        tx.assign(2920);
        tx.pump(&mut out);
        assert_eq!(out.len(), 2);
        assert!(!tx.done(), "not finalized");
        tx.finalize();
        tx.on_ack(
            2920,
            SimTime::ZERO,
            SimTime::from_micros(10),
            None,
            &SackBlocks::default(),
            false,
            &mut out,
        );
        assert!(tx.done());
    }

    // ----------------------------- receiver -----------------------------

    #[test]
    fn in_order_delivery_advances_ack() {
        let mut rx = TcpRx::default();
        assert_eq!(rx.on_data(0, 1460), 1460);
        assert_eq!(rx.on_data(1460, 1460), 2920);
        assert_eq!(rx.bytes_received, 2920);
        assert_eq!(rx.ooo_segments, 0);
    }

    #[test]
    fn out_of_order_holds_ack_then_jumps() {
        let mut rx = TcpRx::default();
        assert_eq!(rx.on_data(1460, 1460), 0, "hole at 0: dup ack");
        assert_eq!(rx.on_data(2920, 1460), 0);
        assert_eq!(rx.ooo_segments, 2);
        // Filling the hole releases everything.
        assert_eq!(rx.on_data(0, 1460), 4380);
        assert_eq!(rx.bytes_received, 4380);
    }

    #[test]
    fn duplicate_data_not_double_counted() {
        let mut rx = TcpRx::default();
        rx.on_data(0, 1460);
        rx.on_data(0, 1460);
        assert_eq!(rx.bytes_received, 1460);
        // Duplicate of an out-of-order segment.
        rx.on_data(2920, 1460);
        rx.on_data(2920, 1460);
        assert_eq!(rx.bytes_received, 2920);
    }

    #[test]
    fn overlapping_segments_merge() {
        let mut rx = TcpRx::default();
        rx.on_data(1000, 500);
        rx.on_data(1200, 500); // overlaps [1200,1500)
        assert_eq!(rx.bytes_received, 700);
        assert_eq!(rx.on_data(0, 1000), 1700);
        assert_eq!(rx.bytes_received, 1700);
    }

    #[test]
    fn retransmission_after_rto_completes_transfer() {
        // End-to-end sender/receiver conversation with one lost packet.
        let mut tx = TcpTx::new(cfg(), 4380);
        let mut rx = TcpRx::default();
        let mut wire = Vec::new();
        tx.pump(&mut wire);
        assert_eq!(wire.len(), 3);
        // Lose the first segment; deliver the rest.
        let mut acks = Vec::new();
        for s in &wire[1..] {
            acks.push(rx.on_data(s.seq, s.len));
        }
        assert_eq!(acks, vec![0, 0]);
        let mut out = Vec::new();
        for a in acks {
            tx.on_ack(
                a,
                SimTime::ZERO,
                SimTime::from_micros(10),
                None,
                &SackBlocks::default(),
                false,
                &mut out,
            );
        }
        assert!(out.is_empty(), "only 2 dupacks: no fast retx");
        tx.on_rto(&mut out);
        assert_eq!(out.len(), 1);
        let ack = rx.on_data(out[0].seq, out[0].len);
        assert_eq!(ack, 4380);
        let mut fin = Vec::new();
        tx.on_ack(
            ack,
            SimTime::ZERO,
            SimTime::from_millis(1),
            None,
            &SackBlocks::default(),
            false,
            &mut fin,
        );
        assert!(tx.done());
    }

    /// One table for the range merge both ends share: the sender's SACK
    /// scoreboard (above `snd_una`) and the receiver's out-of-order map
    /// (above `rcv_nxt`) start from the same held ranges with the base at
    /// 1000, take the same insert, and must hold the same ranges after —
    /// except that a range starting at the base is the receiver's new
    /// in-order prefix instead.
    #[test]
    fn sender_and_receiver_merge_ranges_alike() {
        type Ranges = &'static [(u64, u64)];
        let held: Ranges = &[(2000, 3000), (4000, 5000)];
        let cases: [(&str, (u64, u64), Ranges); 8] = [
            (
                "disjoint",
                (6000, 7000),
                &[(2000, 3000), (4000, 5000), (6000, 7000)],
            ),
            ("touching both", (3000, 4000), &[(2000, 5000)]),
            ("touching one", (5000, 5500), &[(2000, 3000), (4000, 5500)]),
            ("overlapping", (2500, 3500), &[(2000, 3500), (4000, 5000)]),
            ("nested", (2200, 2800), &[(2000, 3000), (4000, 5000)]),
            ("spanning", (1500, 5500), &[(1500, 5500)]),
            ("below the base", (200, 900), &[(2000, 3000), (4000, 5000)]),
            (
                "straddling the base",
                (800, 1500),
                &[(1000, 1500), (2000, 3000), (4000, 5000)],
            ),
        ];
        for (name, (start, end), want) in cases {
            let want: BTreeMap<u64, u64> = want.iter().copied().collect();

            let mut tx = TcpTx::new(cfg(), 10_000);
            tx.snd_una = 1000;
            for &(s, e) in held.iter().chain([&(start, end)]) {
                let mut sack = SackBlocks::default();
                sack.push(s, e);
                tx.absorb_sack(&sack);
            }
            assert_eq!(tx.sacked, want, "sender: {name}");

            let mut rx = TcpRx {
                rcv_nxt: 1000,
                ..TcpRx::default()
            };
            for &(s, e) in held.iter().chain([&(start, end)]) {
                rx.on_data(s, (e - s) as u32);
            }
            let mut want = want;
            let prefix = want.remove(&1000).unwrap_or(1000);
            assert_eq!((rx.rcv_nxt, &rx.ooo), (prefix, &want), "receiver: {name}");
        }
    }
}
