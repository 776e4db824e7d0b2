//! The Discounting Rate Estimator (paper §3.2).
//!
//! One register `X` per fabric link: incremented by the packet size on every
//! transmission, multiplied by `(1 − α)` every `T_dre`. In steady state
//! `X ≈ R·τ` with `τ = T_dre/α`, so `X / (C·τ)` estimates link utilization.
//! The congestion metric is that ratio quantized to `Q` bits.
//!
//! The hardware decays on a timer; this implementation applies the same
//! discrete decay *lazily* — on each access it applies however many whole
//! `T_dre` periods have elapsed — which is numerically identical to the
//! timer version at packet/decision boundaries while requiring no simulator
//! events.

use crate::params::CongaParams;
use conga_net::{ChannelId, Topology};
use conga_sim::{SimDuration, SimTime};
use conga_telemetry::SeriesRegistry;

/// A single link's Discounting Rate Estimator.
#[derive(Clone, Debug)]
pub struct Dre {
    x_bytes: f64,
    last_decay: SimTime,
    tdre: SimDuration,
    one_minus_alpha: f64,
    /// `C·τ` expressed in bytes: the register value corresponding to 100 %
    /// utilization.
    full_scale_bytes: f64,
}

impl Dre {
    /// Create a DRE for a link of `rate_bps`, with decay period `tdre` and
    /// factor `alpha`.
    pub fn new(rate_bps: u64, tdre: SimDuration, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let tau_sec = tdre.as_secs_f64() / alpha;
        Dre {
            x_bytes: 0.0,
            last_decay: SimTime::ZERO,
            tdre,
            one_minus_alpha: 1.0 - alpha,
            full_scale_bytes: rate_bps as f64 / 8.0 * tau_sec,
        }
    }

    /// Apply all whole decay periods elapsed up to `now`.
    fn decay_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_decay);
        let k = dt.as_nanos() / self.tdre.as_nanos();
        if k > 0 {
            // (1-α)^k with integer k; k is capped to avoid useless pow work
            // once X has underflowed to ~0.
            if k > 600 {
                self.x_bytes = 0.0;
            } else {
                self.x_bytes *= self.one_minus_alpha.powi(k as i32);
            }
            self.last_decay += self.tdre.saturating_mul(k);
        }
    }

    /// Account a transmitted packet of `bytes`.
    #[inline]
    pub fn on_send(&mut self, bytes: u32, now: SimTime) {
        self.decay_to(now);
        self.x_bytes += bytes as f64;
    }

    /// Estimated utilization `X / (C·τ)` (can transiently exceed 1 under
    /// bursts).
    #[inline]
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        self.decay_to(now);
        self.x_bytes / self.full_scale_bytes
    }

    /// Utilization quantized to `q_bits`: `round(util · (2^Q − 1))`, clamped
    /// to the representable range.
    #[inline]
    pub fn quantized(&mut self, now: SimTime, q_bits: u8) -> u8 {
        let max = ((1u16 << q_bits) - 1) as f64;
        let u = self.utilization(now);
        (u * max).round().min(max) as u8
    }

    /// Raw register value in bytes (for tests and debugging).
    pub fn register(&mut self, now: SimTime) -> f64 {
        self.decay_to(now);
        self.x_bytes
    }
}

/// The fabric's DREs: one per fabric link, indexed by channel id. Host
/// access links carry none, and a policy that keeps no DREs holds the
/// empty (default) bank, on which every operation is a no-op.
#[derive(Clone, Debug, Default)]
pub struct DreBank {
    dres: Vec<Option<Dre>>,
    q_bits: u8,
}

impl DreBank {
    /// A DRE on every fabric channel of `topo`, with `params`' time
    /// constant and quantization width.
    pub fn new(topo: &Topology, params: &CongaParams) -> Self {
        DreBank {
            dres: topo
                .channels
                .iter()
                .map(|c| {
                    c.kind
                        .is_fabric()
                        .then(|| Dre::new(c.rate_bps, params.tdre, params.alpha))
                })
                .collect(),
            q_bits: params.q_bits,
        }
    }

    #[inline]
    fn get_mut(&mut self, ch: ChannelId) -> Option<&mut Dre> {
        self.dres.get_mut(ch.idx()).and_then(Option::as_mut)
    }

    /// Account a packet of `bytes` starting transmission on `ch`. Returns
    /// whether the channel carries a DRE (host-access channels, and any
    /// channel unknown to this install, do not).
    #[inline]
    pub fn on_send(&mut self, ch: ChannelId, bytes: u32, now: SimTime) -> bool {
        self.get_mut(ch).map(|d| d.on_send(bytes, now)).is_some()
    }

    /// The quantized congestion metric of `ch`, if it carries a DRE.
    #[inline]
    pub fn link_metric(&mut self, ch: ChannelId, now: SimTime) -> Option<u8> {
        let q = self.q_bits;
        self.get_mut(ch).map(|d| d.quantized(now, q))
    }

    /// The quantized congestion metric of `ch` for a load-balancing
    /// decision. A candidate without a DRE (a channel surfaced by a FIB
    /// rebuild the dataplane was never re-installed for) reads as idle
    /// rather than panicking.
    #[inline]
    pub fn quantized(&mut self, ch: ChannelId, now: SimTime) -> u8 {
        self.link_metric(ch, now).unwrap_or(0)
    }

    /// Record every non-zero metric as `dataplane.dre.<channel>`. Shard
    /// rule: a link's DRE is only exercised in the domain that owns it and
    /// replica copies elsewhere read zero; zero readings are skipped (idle
    /// links and replicas alike), so the shard sum-merge reproduces the
    /// monolithic sample exactly.
    pub fn sample(&mut self, now: SimTime, out: &mut SeriesRegistry) {
        let q = self.q_bits;
        for (i, dre) in self.dres.iter_mut().enumerate() {
            if let Some(d) = dre.as_mut() {
                let m = d.quantized(now, q);
                if m > 0 {
                    out.record(&format!("dataplane.dre.{i:04}"), now, m as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS10: u64 = 10_000_000_000;

    fn dre() -> Dre {
        // Paper defaults: T_dre = 16 us, alpha = 0.1 => tau = 160 us.
        Dre::new(GBPS10, SimDuration::from_micros(16), 0.1)
    }

    /// Drive the DRE with a constant packet rate and return the register.
    fn drive(d: &mut Dre, rate_bps: f64, duration: SimDuration) -> SimTime {
        let pkt = 1500u32;
        let interval_ns = (pkt as f64 * 8.0 / rate_bps * 1e9) as u64;
        let mut t = SimTime::ZERO;
        while t < SimTime::ZERO + duration {
            d.on_send(pkt, t);
            t += SimDuration::from_nanos(interval_ns);
        }
        t
    }

    #[test]
    fn steady_state_register_approximates_rate_times_tau() {
        let mut d = dre();
        // 5 Gbps for 2 ms (>> tau): X should settle near R*tau.
        let t = drive(&mut d, 5e9, SimDuration::from_millis(2));
        let expect = 5e9 / 8.0 * 160e-6; // bytes
        let got = d.register(t);
        assert!(
            (got - expect).abs() / expect < 0.1,
            "X = {got}, expected ~{expect}"
        );
    }

    #[test]
    fn utilization_tracks_offered_rate() {
        for load in [0.25, 0.5, 0.9] {
            let mut d = dre();
            let t = drive(&mut d, load * GBPS10 as f64, SimDuration::from_millis(2));
            let u = d.utilization(t);
            assert!((u - load).abs() < 0.1, "load {load}: estimated {u}");
        }
    }

    #[test]
    fn rise_time_is_about_tau() {
        // After sending at rate R for exactly tau, X should be ~(1 - 1/e) of
        // its steady-state value (the paper calls this the DRE's rise time).
        let mut d = dre();
        let t = drive(&mut d, 8e9, SimDuration::from_micros(160));
        let steady = 8e9 / 8.0 * 160e-6;
        let frac = d.register(t) / steady;
        assert!(
            (frac - (1.0 - (-1.0f64).exp())).abs() < 0.12,
            "rise fraction {frac}"
        );
    }

    #[test]
    fn decays_toward_zero_when_idle() {
        let mut d = dre();
        let t = drive(&mut d, 9e9, SimDuration::from_millis(1));
        assert!(d.utilization(t) > 0.7);
        // After 10 tau of silence the register is essentially empty.
        let later = t + SimDuration::from_micros(1600);
        assert!(d.utilization(later) < 0.01);
        // And the long-idle fast path zeroes it exactly.
        let much_later = later + SimDuration::from_secs(1);
        assert_eq!(d.register(much_later), 0.0);
    }

    #[test]
    fn quantization_endpoints() {
        let mut d = dre();
        assert_eq!(d.quantized(SimTime::ZERO, 3), 0);
        // Saturate the register far beyond full scale; metric clamps at 7.
        for _ in 0..100_000 {
            d.on_send(1500, SimTime::from_micros(1));
        }
        assert_eq!(d.quantized(SimTime::from_micros(1), 3), 7);
        assert_eq!(d.quantized(SimTime::from_micros(1), 6), 63);
    }

    #[test]
    fn quantization_mid_scale() {
        let mut d = dre();
        let t = drive(&mut d, 0.5 * GBPS10 as f64, SimDuration::from_millis(2));
        let q = d.quantized(t, 3);
        // 50 % of 7 = 3.5: either 3 or 4 acceptable given estimator noise.
        assert!((3..=4).contains(&q), "quantized = {q}");
    }

    #[test]
    fn reacts_immediately_to_bursts() {
        // Unlike a sampled EWMA, increments land instantly: a burst is
        // visible in the very next read.
        let mut d = dre();
        let before = d.utilization(SimTime::from_micros(5));
        for _ in 0..100 {
            d.on_send(9000, SimTime::from_micros(5));
        }
        let after = d.utilization(SimTime::from_micros(5));
        assert_eq!(before, 0.0);
        assert!(after > 0.04, "burst invisible: {after}");
    }

    #[test]
    fn lazy_decay_matches_timer_decay() {
        // Applying k periods lazily must equal applying them one at a time.
        let mut lazy = dre();
        let mut step = dre();
        lazy.on_send(150_000, SimTime::ZERO);
        step.on_send(150_000, SimTime::ZERO);
        // Step version: touch at every period boundary.
        for k in 1..=50u64 {
            let t = SimTime::from_nanos(k * 16_000);
            step.register(t);
        }
        let t_end = SimTime::from_nanos(50 * 16_000);
        let a = lazy.register(t_end);
        let b = step.register(t_end);
        assert!((a - b).abs() < 1e-6, "lazy {a} vs step {b}");
    }
}
