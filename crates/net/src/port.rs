//! Per-channel transmit port: a byte-bounded drop-tail FIFO plus statistics.
//!
//! Each simplex [`crate::topology::Channel`] gets one `TxPort`. A packet that
//! arrives while the serializer is busy waits in the FIFO; a packet that
//! would push the queued byte count past the capacity is dropped (drop-tail,
//! as in the paper's testbed switches). Occupancy is tracked as a
//! time-weighted integral so experiments can report exact mean queue depths,
//! and optionally sampled for CDFs (paper Figure 11c).
//!
//! The FIFO holds `Box<Packet>` handles, not packets: a packet is allocated
//! once when its host emits it and every queue it then waits in moves eight
//! bytes (see DESIGN.md §11 for the ownership rule).
//!
//! A serializer completion that no queued packet waits for is not an event:
//! the engine *folds* its [`Key`] into the port and schedules it only
//! when a packet queues behind the one on the wire (DESIGN.md §11).

use crate::packet::Packet;
use conga_sim::{Key, SimDuration, SimTime};
use conga_telemetry::MetricsRegistry;
use std::collections::VecDeque;

/// Outcome of an enqueue attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Enqueue {
    /// Packet accepted and the serializer was idle: start transmitting now.
    StartTx,
    /// Packet accepted behind others (or behind the in-flight packet).
    Queued,
    /// Packet dropped: queue full.
    Dropped,
}

/// Transmit side of one simplex channel.
#[derive(Debug)]
pub struct TxPort {
    /// Line rate, bits per second.
    pub rate_bps: u64,
    /// Propagation delay to the far end.
    pub delay: SimDuration,
    /// Queue capacity in bytes.
    pub cap: u64,
    /// Whether a packet is currently being serialized — or, while its
    /// completion is folded, was, until the engine settles it.
    pub busy: bool,
    /// The completion of the packet on the wire while no event carries it
    /// (nothing is queued behind the packet).
    pub(crate) folded: Option<Key>,
    /// Whether the engine's list of ports to settle holds this one.
    pub(crate) listed: bool,
    queue: VecDeque<Box<Packet>>,
    queued_bytes: u64,

    // ---- statistics ----
    /// Total bytes transmitted (starts of transmission).
    pub tx_bytes: u64,
    /// Total packets transmitted.
    pub tx_pkts: u64,
    /// Completions of those transmissions that fired folded, without an
    /// event: `tx_pkts` minus this is the number of `TxDone` events.
    pub tx_done_folded: u64,
    /// Packets dropped at the tail.
    pub drops: u64,
    /// Packets lost to this channel being down: flushed from the queue when
    /// the link failed, enqueued while it was dead, or caught on the wire by
    /// the transition. Maintained by the engine's one blackhole exit.
    pub blackholed: u64,
    /// Bytes that completed traversal of this channel (maintained by the
    /// engine on arrival at the far end).
    pub rx_bytes: u64,
    /// Packets that completed traversal of this channel.
    pub rx_pkts: u64,
    /// Peak queued bytes observed.
    pub max_queue: u64,
    /// Time-weighted integral of queued bytes (bytes × ns), for mean depth.
    occupancy_integral: u128,
    last_change: SimTime,
}

impl TxPort {
    /// Create a port for a channel with the given parameters.
    pub fn new(rate_bps: u64, delay: SimDuration, cap: u64) -> Self {
        TxPort {
            rate_bps,
            delay,
            cap,
            busy: false,
            folded: None,
            listed: false,
            queue: VecDeque::new(),
            queued_bytes: 0,
            tx_bytes: 0,
            tx_pkts: 0,
            tx_done_folded: 0,
            drops: 0,
            blackholed: 0,
            rx_bytes: 0,
            rx_pkts: 0,
            max_queue: 0,
            occupancy_integral: 0,
            last_change: SimTime::ZERO,
        }
    }

    fn account(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_change).as_nanos() as u128;
        self.occupancy_integral += self.queued_bytes as u128 * dt;
        self.last_change = now;
    }

    /// Try to enqueue `pkt` — a handle the engine already owns, or a plain
    /// [`Packet`], which is boxed here. On `StartTx` the caller must
    /// immediately call [`TxPort::begin_tx`] to obtain the packet back and
    /// start serializing. A dropped packet is freed.
    pub fn enqueue(&mut self, pkt: impl Into<Box<Packet>>, now: SimTime) -> Enqueue {
        let pkt = pkt.into();
        if self.queued_bytes + pkt.size as u64 > self.cap {
            self.drops += 1;
            return Enqueue::Dropped;
        }
        self.account(now);
        self.queued_bytes += pkt.size as u64;
        self.max_queue = self.max_queue.max(self.queued_bytes);
        self.queue.push_back(pkt);
        if self.busy {
            Enqueue::Queued
        } else {
            Enqueue::StartTx
        }
    }

    /// Pop the head packet and mark the serializer busy. Returns the packet
    /// and its serialization time. Panics if the queue is empty or busy.
    pub fn begin_tx(&mut self, now: SimTime) -> (Box<Packet>, SimDuration) {
        assert!(!self.busy, "begin_tx on busy port");
        self.account(now);
        let pkt = self.queue.pop_front().expect("begin_tx on empty port");
        self.queued_bytes -= pkt.size as u64;
        self.busy = true;
        self.tx_bytes += pkt.size as u64;
        self.tx_pkts += 1;
        let ser = SimDuration::serialization(pkt.size as u64, self.rate_bps);
        (pkt, ser)
    }

    /// Serializer finished; returns true if another packet is waiting (the
    /// caller should then `begin_tx` again).
    pub fn tx_done(&mut self) -> bool {
        debug_assert!(self.busy);
        self.busy = false;
        !self.queue.is_empty()
    }

    /// The folded completion has fired: the serializer is idle.
    pub(crate) fn settle(&mut self) {
        debug_assert!(self.folded.is_some() && self.queue.is_empty());
        self.folded = None;
        self.busy = false;
        self.tx_done_folded += 1;
    }

    /// The channel just went down: discard every queued packet. The
    /// serializer state is untouched — a packet already on the wire is the
    /// engine's to account (by arrival epoch). Appends the flushed packets
    /// in queue order to `out` (a reusable buffer, so repeated faults
    /// allocate nothing) so the engine can account (and trace) each loss
    /// individually.
    pub fn flush_dead(&mut self, now: SimTime, out: &mut Vec<Box<Packet>>) {
        self.account(now);
        out.extend(self.queue.drain(..));
        self.queued_bytes = 0;
    }

    /// Bytes currently waiting (not counting the packet on the wire).
    #[inline]
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Packets currently waiting.
    #[inline]
    pub fn queued_pkts(&self) -> usize {
        self.queue.len()
    }

    /// Export this port's counters into `reg` under `{prefix}.{counter}`
    /// names (e.g. `port.0007.drops`).
    pub fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set_counter(&format!("{prefix}.tx_bytes"), self.tx_bytes);
        reg.set_counter(&format!("{prefix}.tx_pkts"), self.tx_pkts);
        reg.set_counter(&format!("{prefix}.rx_bytes"), self.rx_bytes);
        reg.set_counter(&format!("{prefix}.rx_pkts"), self.rx_pkts);
        reg.set_counter(&format!("{prefix}.drops"), self.drops);
        reg.set_counter(&format!("{prefix}.blackholed"), self.blackholed);
        reg.set_counter(&format!("{prefix}.max_queue_bytes"), self.max_queue);
    }

    /// Mean queued bytes over `[0, now]`.
    pub fn mean_queue_bytes(&mut self, now: SimTime) -> f64 {
        self.account(now);
        let t = now.as_nanos() as u128;
        if t == 0 {
            0.0
        } else {
            self.occupancy_integral as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::HostId;

    fn pkt(bytes: u32) -> Packet {
        let mut p = Packet::data(0, 0, 1, HostId(0), HostId(1), 0, 0, SimTime::ZERO);
        p.size = bytes;
        p
    }

    #[test]
    fn idle_port_starts_tx_immediately() {
        let mut p = TxPort::new(10_000_000_000, SimDuration::from_nanos(500), 10_000);
        assert_eq!(p.enqueue(pkt(1500), SimTime::ZERO), Enqueue::StartTx);
        let (pk, ser) = p.begin_tx(SimTime::ZERO);
        assert_eq!(pk.size, 1500);
        assert_eq!(ser.as_nanos(), 1200);
        assert!(p.busy);
        assert_eq!(p.queued_bytes(), 0);
    }

    #[test]
    fn busy_port_queues_then_drains_fifo() {
        let mut p = TxPort::new(10_000_000_000, SimDuration::ZERO, 10_000);
        let t0 = SimTime::ZERO;
        assert_eq!(p.enqueue(pkt(1000), t0), Enqueue::StartTx);
        let _ = p.begin_tx(t0);
        let mut a = Box::new(pkt(100));
        a.seq = 11;
        let mut b = Box::new(pkt(100));
        b.seq = 22;
        let (addr_a, addr_b): (*const Packet, *const Packet) = (&*a, &*b);
        assert_eq!(p.enqueue(a, t0), Enqueue::Queued);
        assert_eq!(p.enqueue(b, t0), Enqueue::Queued);
        assert_eq!(p.queued_pkts(), 2);
        assert!(p.tx_done());
        let (first, _) = p.begin_tx(SimTime::from_nanos(800));
        assert_eq!(first.seq, 11, "FIFO order");
        assert!(p.tx_done());
        let (second, _) = p.begin_tx(SimTime::from_nanos(880));
        assert_eq!(second.seq, 22);
        assert!(!p.tx_done());
        // The queue held the callers' handles: the packets never moved.
        assert!(std::ptr::eq(&*first, addr_a) && std::ptr::eq(&*second, addr_b));
    }

    #[test]
    fn drop_tail_at_capacity() {
        let mut p = TxPort::new(1_000_000_000, SimDuration::ZERO, 2500);
        let t = SimTime::ZERO;
        assert_eq!(p.enqueue(pkt(1500), t), Enqueue::StartTx);
        let _ = p.begin_tx(t); // in flight, queue empty again
        assert_eq!(p.enqueue(pkt(1500), t), Enqueue::Queued);
        assert_eq!(
            p.enqueue(pkt(1500), t),
            Enqueue::Dropped,
            "2nd would exceed 2500B"
        );
        assert_eq!(p.drops, 1);
        assert_eq!(p.enqueue(pkt(1000), t), Enqueue::Queued, "smaller one fits");
        assert_eq!(p.queued_bytes(), 2500);
    }

    #[test]
    fn occupancy_integral_tracks_time_weighted_mean() {
        let mut p = TxPort::new(1_000_000_000, SimDuration::ZERO, 1 << 20);
        // Occupy 1000 bytes for 100ns, then drain.
        assert_eq!(p.enqueue(pkt(500), SimTime::ZERO), Enqueue::StartTx);
        let _ = p.begin_tx(SimTime::ZERO);
        p.enqueue(pkt(1000), SimTime::ZERO);
        // At t=100ns the first finishes, second starts (queue empties).
        p.tx_done();
        let _ = p.begin_tx(SimTime::from_nanos(100));
        // Mean over [0, 200ns]: 1000B * 100ns / 200ns = 500B.
        assert!((p.mean_queue_bytes(SimTime::from_nanos(200)) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn drop_and_byte_accounting_reaches_telemetry() {
        let mut p = TxPort::new(1_000_000_000, SimDuration::ZERO, 3000);
        let t = SimTime::ZERO;
        // One on the wire, two queued (3000B), then two tail drops.
        assert_eq!(p.enqueue(pkt(1500), t), Enqueue::StartTx);
        let _ = p.begin_tx(t);
        assert_eq!(p.enqueue(pkt(1500), t), Enqueue::Queued);
        assert_eq!(p.enqueue(pkt(1500), t), Enqueue::Queued);
        assert_eq!(p.enqueue(pkt(64), t), Enqueue::Dropped);
        assert_eq!(p.enqueue(pkt(9000), t), Enqueue::Dropped);
        // The engine credits rx on far-end arrival; emulate one delivery.
        p.rx_pkts += 1;
        p.rx_bytes += 1500;
        let mut reg = MetricsRegistry::new();
        p.export_metrics("port.0003", &mut reg);
        assert_eq!(reg.counter("port.0003.tx_pkts"), 1);
        assert_eq!(reg.counter("port.0003.tx_bytes"), 1500);
        assert_eq!(reg.counter("port.0003.drops"), 2);
        assert_eq!(reg.counter("port.0003.rx_pkts"), 1);
        assert_eq!(reg.counter("port.0003.rx_bytes"), 1500);
        assert_eq!(reg.counter("port.0003.max_queue_bytes"), 3000);
        // Dropped packets never count toward queued or transmitted bytes.
        assert_eq!(p.queued_bytes(), 3000);
        assert_eq!(p.tx_bytes + p.queued_bytes(), 4500);
    }

    #[test]
    fn flush_dead_empties_the_queue_and_hands_back_its_packets() {
        let mut p = TxPort::new(1_000_000_000, SimDuration::ZERO, 1 << 20);
        let t = SimTime::ZERO;
        assert_eq!(p.enqueue(pkt(1000), t), Enqueue::StartTx);
        let _ = p.begin_tx(t); // one on the wire
        assert_eq!(p.enqueue(pkt(500), t), Enqueue::Queued);
        assert_eq!(p.enqueue(pkt(500), t), Enqueue::Queued);
        let mut flushed = Vec::new();
        p.flush_dead(SimTime::from_nanos(100), &mut flushed);
        assert_eq!(flushed.len(), 2);
        assert!(
            flushed.iter().all(|f| f.size == 500),
            "queue order, not the wire"
        );
        assert_eq!(p.queued_bytes(), 0);
        assert_eq!(p.queued_pkts(), 0);
        // The in-flight packet's serializer completes normally afterwards.
        assert!(p.busy);
        assert!(!p.tx_done(), "queue must be empty after flush");
        // Flushing an empty queue is a no-op (and appends nothing).
        p.flush_dead(SimTime::from_nanos(200), &mut flushed);
        assert_eq!(flushed.len(), 2);
    }

    #[test]
    fn counters_accumulate() {
        let mut p = TxPort::new(40_000_000_000, SimDuration::ZERO, 1 << 20);
        for _ in 0..5 {
            assert_eq!(p.enqueue(pkt(1500), SimTime::ZERO), Enqueue::StartTx);
            let _ = p.begin_tx(SimTime::ZERO);
            p.tx_done();
        }
        assert_eq!(p.tx_pkts, 5);
        assert_eq!(p.tx_bytes, 7500);
        assert_eq!(p.max_queue, 1500);
    }
}
