//! CONGA's tunable parameters (paper §3.6).
//!
//! The paper's defaults: `Q = 3` quantization bits, DRE time constant
//! `τ = T_dre/α = 160 µs`, flowlet inactivity timeout `T_fl = 500 µs`, and a
//! ~10 ms metric-aging horizon. `CONGA-Flow` is the same machinery with
//! `T_fl = 13 ms` (longer than the testbed's worst-case path latency), which
//! effectively makes one decision per flow.

use conga_sim::SimDuration;

/// How the flowlet table detects inactivity gaps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GapMode {
    /// Full-timestamp comparison: a gap is declared exactly when the idle
    /// interval exceeds `T_fl`.
    Exact,
    /// The hardware scheme of paper §3.4: one age bit per entry, checked and
    /// set by a timer every `T_fl`; detected gaps therefore fall in
    /// `(T_fl, 2·T_fl]`. Cheaper in silicon, slightly lazier in effect.
    AgeBit,
}

/// The full parameter set for CONGA's dataplane.
#[derive(Clone, Copy, Debug)]
pub struct CongaParams {
    /// Congestion-metric quantization width in bits (paper: 3–6 work well).
    pub q_bits: u8,
    /// DRE decrement period `T_dre`.
    pub tdre: SimDuration,
    /// DRE multiplicative decay factor `α` (per `T_dre`).
    pub alpha: f64,
    /// Flowlet inactivity timeout `T_fl`.
    pub tfl: SimDuration,
    /// Congestion metrics not refreshed for this long decay to zero (§3.3).
    pub metric_age: SimDuration,
    /// Number of flowlet-table entries (their ASIC: 64 K).
    pub flowlet_entries: usize,
    /// Gap-detection mode.
    pub gap_mode: GapMode,
}

impl CongaParams {
    /// The paper's default configuration: `Q = 3`, `τ = 160 µs`
    /// (`T_dre = 16 µs`, `α = 0.1`), `T_fl = 500 µs`.
    pub fn paper_default() -> Self {
        CongaParams {
            q_bits: 3,
            tdre: SimDuration::from_micros(16),
            alpha: 0.1,
            tfl: SimDuration::from_micros(500),
            metric_age: SimDuration::from_millis(10),
            flowlet_entries: 64 * 1024,
            gap_mode: GapMode::AgeBit,
        }
    }

    /// CONGA-Flow: identical but with a 13 ms flowlet timeout, guaranteeing
    /// no packet reordering in the paper's testbed (one decision per flow).
    pub fn conga_flow() -> Self {
        CongaParams {
            tfl: SimDuration::from_millis(13),
            ..Self::paper_default()
        }
    }
}

impl Default for CongaParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3_6() {
        let p = CongaParams::paper_default();
        assert_eq!(p.q_bits, 3);
        // τ = T_dre / α = 16 µs / 0.1 = 160 µs.
        assert_eq!(p.tdre, SimDuration::from_micros(16));
        assert_eq!(p.alpha, 0.1);
        assert_eq!(p.tfl, SimDuration::from_micros(500));
        assert_eq!(p.flowlet_entries, 65536);
    }

    #[test]
    fn conga_flow_only_changes_the_timeout() {
        let a = CongaParams::paper_default();
        let b = CongaParams::conga_flow();
        assert_eq!(b.tfl, SimDuration::from_millis(13));
        assert_eq!(a.q_bits, b.q_bits);
        assert_eq!(a.tdre, b.tdre);
    }
}
