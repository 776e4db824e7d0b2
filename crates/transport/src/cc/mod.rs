//! Pluggable per-flow congestion control.
//!
//! [`TcpTx`](crate::TcpTx) owns the *protocol* state machine — loss
//! detection, SACK scoreboard repair, the RTO timer, go-back-N — and
//! delegates every congestion-window decision to a
//! [`CongestionController`]. The split mirrors the recovery/cc module
//! boundary of production QUIC stacks: the state machine is invariant
//! across controllers, so two controllers differ *only* in how they move
//! `cwnd`/`ssthresh` and whether they pace.
//!
//! Four controllers ship, selected by [`CcKind`] on
//! [`TcpConfig`]:
//!
//! * [`Aimd`] — the NewReno arithmetic extracted verbatim from the
//!   pre-refactor `TcpTx`; the default, byte-identical to the historical
//!   goldens.
//! * [`Dctcp`] — DCTCP's per-flow EWMA of the ECN-marked fraction
//!   (`alpha`), with a proportional `cwnd ← cwnd·(1 − alpha/2)` cut once
//!   per window of data. Requires the dataplane's ECN marking path.
//! * [`Cubic`] — the CUBIC window growth function `W(t) = C(t−K)³ +
//!   W_max` with fast convergence and loss epochs.
//! * [`Bbr`] — a BBR-style model: per-round delivery-rate sampling into a
//!   max filter, a min-RTT floor, startup/cruise phases with a pacing-gain
//!   cycle, and packet pacing enforced through the event queue.
//!
//! # Determinism contract
//!
//! Controllers are pure functions of their inputs: no RNG, no wall clock,
//! f64 state only. A controller's entire observable input is the
//! [`AckCtx`] stream plus the loss/RTO notifications, all of which derive
//! from simulated time — same seed ⇒ same trajectory, independent of
//! `--shards`/`--jobs`/cache state.

mod aimd;
mod bbr;
mod cubic;
mod dctcp;

pub use aimd::Aimd;
pub use bbr::Bbr;
pub use cubic::Cubic;
pub use dctcp::Dctcp;

use crate::config::TcpConfig;
use crate::tcp::Lia;
use conga_sim::SimTime;

/// Which congestion controller a flow runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcKind {
    /// NewReno-style AIMD (the historical default).
    Aimd,
    /// DCTCP: ECN-proportional window cuts.
    Dctcp,
    /// CUBIC: cubic window growth with loss epochs.
    Cubic,
    /// BBR-style: delivery-rate model with pacing.
    Bbr,
}

impl CcKind {
    /// Every controller, in canonical order.
    pub const ALL: [CcKind; 4] = [CcKind::Aimd, CcKind::Dctcp, CcKind::Cubic, CcKind::Bbr];

    /// The canonical lowercase name (CLI value, telemetry namespace,
    /// scenario-hash key).
    pub fn name(&self) -> &'static str {
        match self {
            CcKind::Aimd => "aimd",
            CcKind::Dctcp => "dctcp",
            CcKind::Cubic => "cubic",
            CcKind::Bbr => "bbr",
        }
    }

    /// Parse a CLI value. The error string is the full usage message for
    /// the flag (tested verbatim by the experiments arg parser).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "aimd" => Ok(CcKind::Aimd),
            "dctcp" => Ok(CcKind::Dctcp),
            "cubic" => Ok(CcKind::Cubic),
            "bbr" => Ok(CcKind::Bbr),
            other => Err(format!(
                "unknown congestion controller '{other}' (expected aimd|dctcp|cubic|bbr)"
            )),
        }
    }
}

/// Everything a controller may observe about one progressing ACK.
#[derive(Clone, Copy, Debug)]
pub struct AckCtx {
    /// Bytes newly cumulatively acknowledged by this ACK.
    pub acked: f64,
    /// The cumulative ACK sequence (== the new `snd_una`).
    pub ack: u64,
    /// The sender's next-new-byte sequence after this ACK.
    pub next_seq: u64,
    /// Simulated arrival time of the ACK.
    pub now: SimTime,
    /// This ACK's RTT sample in nanoseconds (`None` while Karn's rule
    /// suppresses samples across retransmissions).
    pub rtt_ns: Option<f64>,
    /// Whether the receiver echoed an ECN congestion-experienced mark.
    pub ecn_echo: bool,
    /// MPTCP coupled-increase context (`None` for plain TCP).
    pub lia: Option<Lia>,
}

/// The congestion-control decision surface. See the module docs for the
/// division of labour with `TcpTx`.
pub trait CongestionController {
    /// Canonical lowercase controller name (telemetry namespace).
    fn name(&self) -> &'static str;

    /// Current congestion window, bytes.
    fn cwnd(&self) -> f64;

    /// Current slow-start threshold, bytes.
    fn ssthresh(&self) -> f64;

    /// Every ACK that advances `snd_una`, in any protocol state — the
    /// accounting hook (delivery-rate samples, DCTCP's window roll).
    fn on_bytes_acked(&mut self, ctx: &AckCtx);

    /// An ACK advanced `snd_una` while the sender is in the open state:
    /// grow the window.
    fn on_ack(&mut self, ctx: &AckCtx);

    /// The receiver echoed a congestion-experienced mark on this ACK
    /// (called before [`Self::on_bytes_acked`]).
    fn on_ecn(&mut self, ctx: &AckCtx);

    /// Fast retransmit fired: the sender is entering recovery with
    /// `flight` bytes outstanding.
    fn on_loss(&mut self, flight: f64);

    /// A partial ACK during recovery acknowledged `acked` bytes
    /// (NewReno window deflation).
    fn on_partial_ack(&mut self, acked: f64);

    /// Recovery completed (full ACK).
    fn on_recovery_exit(&mut self);

    /// The retransmission timer fired with `flight` bytes outstanding.
    fn on_rto(&mut self, flight: f64);

    /// The pacing rate in bits per second, if this controller paces.
    /// `None` (the default for window-driven controllers) sends
    /// ACK-clocked line-rate bursts exactly as the pre-refactor stack did.
    fn pacing_rate_bps(&self) -> Option<f64> {
        None
    }

    /// DCTCP's marked-fraction EWMA, for telemetry.
    fn alpha(&self) -> Option<f64> {
        None
    }

    /// Overwrite the window state (tests and diagnostics only).
    fn force_window(&mut self, cwnd: f64, ssthresh: f64);
}

/// The controller zoo behind one enum, so `TcpTx` stays `Clone + Debug`
/// with monomorphic dispatch (the same idiom as `conga-core`'s
/// `FabricPolicy`).
#[derive(Clone, Debug)]
pub enum Cc {
    /// NewReno-style AIMD.
    Aimd(Aimd),
    /// DCTCP.
    Dctcp(Dctcp),
    /// CUBIC.
    Cubic(Cubic),
    /// BBR-style pacer.
    Bbr(Bbr),
}

impl Cc {
    /// Build the controller `cfg` selects.
    pub fn from_config(cfg: &TcpConfig) -> Self {
        match cfg.cc {
            CcKind::Aimd => Cc::Aimd(Aimd::new(cfg)),
            CcKind::Dctcp => Cc::Dctcp(Dctcp::new(cfg)),
            CcKind::Cubic => Cc::Cubic(Cubic::new(cfg)),
            CcKind::Bbr => Cc::Bbr(Bbr::new(cfg)),
        }
    }
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Cc::Aimd($inner) => $body,
            Cc::Dctcp($inner) => $body,
            Cc::Cubic($inner) => $body,
            Cc::Bbr($inner) => $body,
        }
    };
}

impl CongestionController for Cc {
    fn name(&self) -> &'static str {
        delegate!(self, c => c.name())
    }
    fn cwnd(&self) -> f64 {
        delegate!(self, c => c.cwnd())
    }
    fn ssthresh(&self) -> f64 {
        delegate!(self, c => c.ssthresh())
    }
    fn on_bytes_acked(&mut self, ctx: &AckCtx) {
        delegate!(self, c => c.on_bytes_acked(ctx))
    }
    fn on_ack(&mut self, ctx: &AckCtx) {
        delegate!(self, c => c.on_ack(ctx))
    }
    fn on_ecn(&mut self, ctx: &AckCtx) {
        delegate!(self, c => c.on_ecn(ctx))
    }
    fn on_loss(&mut self, flight: f64) {
        delegate!(self, c => c.on_loss(flight))
    }
    fn on_partial_ack(&mut self, acked: f64) {
        delegate!(self, c => c.on_partial_ack(acked))
    }
    fn on_recovery_exit(&mut self) {
        delegate!(self, c => c.on_recovery_exit())
    }
    fn on_rto(&mut self, flight: f64) {
        delegate!(self, c => c.on_rto(flight))
    }
    fn pacing_rate_bps(&self) -> Option<f64> {
        delegate!(self, c => c.pacing_rate_bps())
    }
    fn alpha(&self) -> Option<f64> {
        delegate!(self, c => c.alpha())
    }
    fn force_window(&mut self, cwnd: f64, ssthresh: f64) {
        delegate!(self, c => c.force_window(cwnd, ssthresh))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for k in CcKind::ALL {
            assert_eq!(CcKind::parse(k.name()), Ok(k));
        }
        let err = CcKind::parse("reno").expect_err("unknown name");
        assert_eq!(
            err,
            "unknown congestion controller 'reno' (expected aimd|dctcp|cubic|bbr)"
        );
    }

    #[test]
    fn from_config_selects_the_named_controller() {
        for k in CcKind::ALL {
            let cfg = TcpConfig {
                cc: k,
                ..TcpConfig::standard()
            };
            let cc = Cc::from_config(&cfg);
            assert_eq!(cc.name(), k.name());
            assert!(cc.cwnd() > 0.0, "{}: initial window", cc.name());
        }
    }
}
