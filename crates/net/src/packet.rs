//! The simulated packet and the CONGA overlay header.
//!
//! CONGA piggybacks its congestion state on the VXLAN encapsulation used by
//! the datacenter overlay (paper §3.1). The four overlay fields and their
//! exact widths are modeled bit-accurately:
//!
//! * `LBTag` (4 bits) — the source-leaf uplink port the packet was sent on;
//!   at most [`MAX_LBTAG`] uplinks per leaf.
//! * `CE` (3 bits by default, configurable `Q`) — running maximum of the
//!   quantized congestion of every fabric link the packet has crossed.
//! * `FB_LBTag` / `FB_Metric` — one piggybacked feedback entry: "your uplink
//!   `FB_LBTag` towards me currently has path congestion `FB_Metric`".

use crate::ids::{HostId, LeafId};
use conga_sim::SimTime;

/// Maximum number of distinguishable uplink ports per leaf: the LBTag field
/// is 4 bits wide (paper §3.1; their implementation uses at most 12).
pub const MAX_LBTAG: usize = 16;

/// Bytes of header overhead added to every packet on the wire: inner
/// Ethernet/IP/TCP plus the VXLAN overlay encapsulation (~50 B outer headers
/// + 54 B inner headers, rounded).
pub const WIRE_OVERHEAD: u32 = 100;

/// Size in bytes of a bare control segment (pure ACK) on the wire,
/// including all encapsulation.
pub const ACK_WIRE_BYTES: u32 = WIRE_OVERHEAD;

/// Transport-level flags carried by a packet (a compact stand-in for the TCP
/// flag bits the simulator needs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PacketKind {
    /// A data segment carrying `payload` bytes starting at `seq`.
    Data,
    /// A cumulative acknowledgment (`ack` = next expected byte).
    Ack,
    /// A retransmitted data segment (flagged for statistics only; switches
    /// treat it exactly like `Data`).
    Retransmit,
}

/// The VXLAN-carried CONGA overlay state (paper §3.1, Figure 6).
#[derive(Clone, Copy, Debug)]
pub struct Overlay {
    /// Source tunnel endpoint: the leaf that encapsulated the packet.
    pub src_tep: LeafId,
    /// Destination tunnel endpoint: the leaf that will decapsulate it.
    pub dst_tep: LeafId,
    /// Source-leaf uplink port number (4 bits).
    pub lbtag: u8,
    /// Congestion-extent: max quantized link congestion seen so far (Q bits).
    pub ce: u8,
    /// Feedback: which LBTag of the *receiving* leaf this feedback describes.
    pub fb_lbtag: u8,
    /// Feedback: the quantized path congestion metric for `fb_lbtag`.
    pub fb_metric: u8,
    /// Whether the feedback fields are populated (in hardware an all-ones
    /// FB_LBTag can serve as the "no feedback" sentinel).
    pub fb_valid: bool,
    /// Latency-aware policies only: ingress timestamp stamped by the source
    /// leaf, so the destination leaf can measure the one-way fabric latency
    /// of the (source uplink = `lbtag`) path. `None` for every other policy
    /// — a stand-in for the switch hardware timestamp option.
    pub lat_sent: Option<SimTime>,
    /// Latency-aware policies only: one piggybacked latency-feedback entry,
    /// `(lbtag, observed one-way fabric latency in ns)` — the latency
    /// analogue of `fb_lbtag`/`fb_metric`.
    pub lat_fb: Option<(u8, u64)>,
}

impl Overlay {
    /// A freshly encapsulated packet: CE zeroed, no feedback yet.
    pub fn new(src_tep: LeafId, dst_tep: LeafId) -> Self {
        Overlay {
            src_tep,
            dst_tep,
            lbtag: 0,
            ce: 0,
            fb_lbtag: 0,
            fb_metric: 0,
            fb_valid: false,
            lat_sent: None,
            lat_fb: None,
        }
    }
}

/// Up to three SACK blocks, as carried in a real TCP SACK option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks {
    blocks: [(u64, u64); 3],
    n: u8,
}

impl SackBlocks {
    /// Append a `[start, end)` block; silently ignored beyond three.
    pub fn push(&mut self, start: u64, end: u64) {
        if (self.n as usize) < 3 {
            self.blocks[self.n as usize] = (start, end);
            self.n += 1;
        }
    }

    /// The blocks present.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.blocks[..self.n as usize].iter().copied()
    }

    /// Whether any block is present.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// A simulated packet.
///
/// `size` is the full on-the-wire size in bytes (payload + all headers); the
/// transport-visible payload length is `payload`. Keeping both avoids
/// double-counting header overhead in goodput statistics.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (monotone per engine).
    pub id: u64,
    /// Connection index assigned by the transport layer.
    pub flow: u32,
    /// Subflow index within the connection (MPTCP); 0 for plain TCP.
    pub subflow: u16,
    /// Hash of the (5-tuple, subflow) identity; the basis for ECMP and
    /// flowlet-table hashing. Equal for every packet of a subflow.
    pub flow_hash: u64,
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Total bytes on the wire.
    pub size: u32,
    /// Transport payload bytes (0 for pure ACKs).
    pub payload: u32,
    /// Segment type.
    pub kind: PacketKind,
    /// Transport sequence number (first payload byte) for data segments.
    pub seq: u64,
    /// Cumulative ACK number for ACK segments.
    pub ack: u64,
    /// Timestamp echoed for RTT measurement: set by the sender at transmit
    /// time, echoed back by the receiver in the ACK.
    pub ts_echo: SimTime,
    /// SACK blocks on ACKs: up to three received-but-not-yet-ackable byte
    /// ranges above `ack`, exactly like the TCP SACK option (RFC 2018).
    pub sack: SackBlocks,
    /// Overlay encapsulation; `None` until the source leaf encapsulates, and
    /// for traffic that never crosses the fabric.
    pub overlay: Option<Overlay>,
    /// ECN congestion-experienced mark: set by a switch when this data
    /// packet joined a queue deeper than the marking threshold (distinct
    /// from the CONGA overlay's `ce` congestion-extent field).
    pub ecn_ce: bool,
    /// ECN echo on ACKs: the receiver copies the data packet's `ecn_ce`
    /// here so the sender's controller sees the mark.
    pub ecn_echo: bool,
}

impl Packet {
    /// Build a data segment of `payload` bytes at sequence `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: u32,
        subflow: u16,
        flow_hash: u64,
        src: HostId,
        dst: HostId,
        seq: u64,
        payload: u32,
        now: SimTime,
    ) -> Packet {
        Packet {
            id: 0,
            flow,
            subflow,
            flow_hash,
            src,
            dst,
            size: payload + WIRE_OVERHEAD,
            payload,
            kind: PacketKind::Data,
            seq,
            ack: 0,
            ts_echo: now,
            sack: SackBlocks::default(),
            overlay: None,
            ecn_ce: false,
            ecn_echo: false,
        }
    }

    /// Build a cumulative ACK for `ack` (next expected byte), echoing `ts`.
    pub fn ack_for(
        flow: u32,
        subflow: u16,
        flow_hash: u64,
        src: HostId,
        dst: HostId,
        ack: u64,
        ts: SimTime,
    ) -> Packet {
        Packet {
            id: 0,
            flow,
            subflow,
            flow_hash,
            src,
            dst,
            size: ACK_WIRE_BYTES,
            payload: 0,
            kind: PacketKind::Ack,
            seq: 0,
            ack,
            ts_echo: ts,
            sack: SackBlocks::default(),
            overlay: None,
            ecn_ce: false,
            ecn_echo: false,
        }
    }

    /// Whether this packet carries data the receiver must buffer.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data | PacketKind::Retransmit)
    }
}

/// Mix a flow hash with a per-switch salt so consecutive switches make
/// independent ECMP choices for the same flow (real switches use different
/// hash seeds per box for exactly this reason).
///
/// SplitMix64 finalizer: full-avalanche, cheap, deterministic.
#[inline]
pub fn ecmp_mix(flow_hash: u64, salt: u64) -> u64 {
    let mut z = flow_hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a (flow, subflow) identity into the packet's `flow_hash`. This plays
/// the role of hashing the 5-tuple: distinct subflows get distinct hashes,
/// which is precisely how MPTCP gets its subflows onto distinct ECMP paths.
#[inline]
pub fn flow_tuple_hash(flow: u32, subflow: u16) -> u64 {
    const TUPLE_SALT: u64 = 0xC04A_11AD_DEAD_BEEF;
    ecmp_mix(((flow as u64) << 16) | subflow as u64, TUPLE_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_packet_sizes_include_overhead() {
        let p = Packet::data(1, 0, 99, HostId(0), HostId(1), 0, 1460, SimTime::ZERO);
        assert_eq!(p.size, 1460 + WIRE_OVERHEAD);
        assert_eq!(p.payload, 1460);
        assert!(p.is_data());
    }

    #[test]
    fn ack_packet_is_header_only() {
        let p = Packet::ack_for(1, 0, 99, HostId(1), HostId(0), 1460, SimTime::ZERO);
        assert_eq!(p.size, ACK_WIRE_BYTES);
        assert_eq!(p.payload, 0);
        assert!(!p.is_data());
    }

    #[test]
    fn ecmp_mix_avalanches() {
        // Flipping one input bit should flip ~half the output bits.
        let a = ecmp_mix(0x1234, 7);
        let b = ecmp_mix(0x1235, 7);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "only {flipped} bits flipped");
    }

    #[test]
    fn per_switch_salts_decorrelate() {
        // The same flow should not systematically land on the same index at
        // two switches with different salts.
        let mut same = 0;
        for f in 0..1000u64 {
            if ecmp_mix(f, 1) % 4 == ecmp_mix(f, 2) % 4 {
                same += 1;
            }
        }
        // Expect ~250 collisions by chance; fail on near-total correlation.
        assert!(same < 400, "salted hashes too correlated: {same}/1000");
    }

    #[test]
    fn subflows_hash_differently() {
        let h0 = flow_tuple_hash(42, 0);
        let h1 = flow_tuple_hash(42, 1);
        assert_ne!(h0, h1);
    }

    #[test]
    fn overlay_starts_clean() {
        let o = Overlay::new(LeafId(0), LeafId(1));
        assert_eq!(o.ce, 0);
        assert!(!o.fb_valid);
    }
}
