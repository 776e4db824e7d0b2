//! Transport configuration.

use crate::cc::CcKind;
use conga_sim::SimDuration;

/// TCP sender/receiver parameters.
///
/// Defaults model the paper's testbed hosts: standard Linux TCP with a
/// 200 ms minimum RTO and 1500 B Ethernet MTU. The Incast experiments vary
/// `min_rto` (200 ms vs 1 ms, after Vasudevan et al.) and the MTU (1500 vs
/// 9000 jumbo frames).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet): MTU minus 40 B of
    /// TCP/IP headers.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd: u32,
    /// Minimum (and initial) retransmission timeout.
    pub min_rto: SimDuration,
    /// Upper bound on the backed-off RTO.
    pub max_rto: SimDuration,
    /// Duplicate-ACK threshold for fast retransmit.
    pub dupack_thresh: u32,
    /// Maximum new segments released per ACK (classic maxburst limiting,
    /// as in ns-2 and Linux burst mitigation). Prevents line-rate window
    /// dumps when cwnd jumps (post-recovery deflation, idle restarts).
    pub max_burst: u32,
    /// Receiver window (SO_RCVBUF) in bytes: the effective send window is
    /// `min(cwnd, rwnd)`. Bounds slow-start overshoot exactly as receive
    /// buffer autotuning does on real datacenter hosts.
    pub rwnd: u64,
    /// The congestion controller each flow runs (see [`crate::cc`]).
    pub cc: CcKind,
}

impl TcpConfig {
    /// Standard-MTU Linux-like defaults (MSS 1460, IW 10, minRTO 200 ms).
    pub fn standard() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd: 10,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(2),
            dupack_thresh: 3,
            max_burst: 10,
            rwnd: 512 * 1024,
            cc: CcKind::Aimd,
        }
    }

    /// Jumbo-frame variant (MTU 9000 → MSS 8960).
    pub fn jumbo() -> Self {
        TcpConfig {
            mss: 8960,
            ..Self::standard()
        }
    }

    /// Replace the minimum RTO (e.g. the 1 ms Incast mitigation).
    pub fn with_min_rto(mut self, rto: SimDuration) -> Self {
        self.min_rto = rto;
        self
    }

    /// Replace the congestion controller.
    pub fn with_cc(mut self, cc: CcKind) -> Self {
        self.cc = cc;
        self
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// MPTCP connection parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MptcpConfig {
    /// Per-subflow TCP parameters.
    pub tcp: TcpConfig,
    /// Number of subflows per connection. The paper follows Raiciu et al.'s
    /// recommendation of 8.
    pub subflows: u16,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        MptcpConfig {
            tcp: TcpConfig::standard(),
            subflows: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = TcpConfig::standard();
        assert_eq!(c.mss, 1460);
        assert_eq!(c.min_rto, SimDuration::from_millis(200));
        let m = MptcpConfig::default();
        assert_eq!(m.subflows, 8);
        let j = TcpConfig::jumbo();
        assert_eq!(j.mss, 8960);
    }

    #[test]
    fn with_min_rto_overrides() {
        let c = TcpConfig::standard().with_min_rto(SimDuration::from_millis(1));
        assert_eq!(c.min_rto, SimDuration::from_millis(1));
        assert_eq!(c.mss, 1460);
    }
}
