//! Flow-completion-time aggregation in the paper's exact reporting format
//! (Figures 9–11, 15): overall average FCT normalized to the optimal
//! (idle-network) FCT, plus small-flow (< 100 KB) and large-flow (> 10 MB)
//! breakdowns normalized to a baseline scheme.

/// Size boundaries used throughout the paper's FCT breakdowns.
pub const SMALL_FLOW_BYTES: u64 = 100_000;
/// Large-flow threshold (> 10 MB).
pub const LARGE_FLOW_BYTES: u64 = 10_000_000;

/// One completed flow, in analysis form.
#[derive(Clone, Copy, Debug)]
pub struct FctSample {
    /// Flow size in bytes.
    pub bytes: u64,
    /// Measured completion time, seconds.
    pub fct_s: f64,
    /// Ideal completion time on an idle network, seconds.
    pub ideal_s: f64,
}

/// Aggregated FCT statistics for one (scheme, load) cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FctSummary {
    /// Number of flows.
    pub n: usize,
    /// Mean FCT over all flows, seconds.
    pub avg_s: f64,
    /// Mean FCT divided by the mean optimal FCT (paper Fig 9a's y-axis).
    pub avg_norm_optimal: f64,
    /// Mean per-flow slowdown (mean of FCT/optimal ratios) — a tail-
    /// sensitive companion metric.
    pub mean_slowdown: f64,
    /// Mean FCT of flows < 100 KB, seconds (`None` when no such flow
    /// completed — distinct from a genuine 0-second mean).
    pub small_avg_s: Option<f64>,
    /// Mean FCT of flows > 10 MB, seconds (`None` when the bucket is
    /// empty).
    pub large_avg_s: Option<f64>,
    /// Median FCT, seconds (0.0 when no flow completed).
    pub p50_s: f64,
    /// 95th-percentile FCT, seconds (0.0 when no flow completed).
    pub p95_s: f64,
    /// 99th-percentile FCT, seconds (0.0 when no flow completed).
    pub p99_s: f64,
    /// Flows that never completed (counted, excluded from means).
    pub incomplete: usize,
}

/// Aggregate samples (plus a count of flows that never finished).
///
/// Means are accumulated in sample order in one pass, which keeps the
/// floating-point results bit-identical to the historical
/// collect-then-average implementation (f64 addition is performed in the
/// same order). Percentiles need the sorted distribution, so one FCT
/// vector is collected and sorted **once**, with all three ranks read off
/// it via [`crate::stats::percentile_sorted`] — not one clone-and-sort
/// per rank.
pub fn summarize(samples: &[FctSample], incomplete: usize) -> FctSummary {
    if samples.is_empty() {
        return FctSummary {
            incomplete,
            ..FctSummary::default()
        };
    }
    let mut sum_all = 0.0f64;
    let mut sum_ideal = 0.0f64;
    let mut sum_norm = 0.0f64;
    let (mut sum_small, mut n_small) = (0.0f64, 0usize);
    let (mut sum_large, mut n_large) = (0.0f64, 0usize);
    for s in samples {
        sum_all += s.fct_s;
        sum_ideal += s.ideal_s;
        sum_norm += s.fct_s / s.ideal_s.max(1e-12);
        if s.bytes < SMALL_FLOW_BYTES {
            sum_small += s.fct_s;
            n_small += 1;
        }
        if s.bytes > LARGE_FLOW_BYTES {
            sum_large += s.fct_s;
            n_large += 1;
        }
    }
    let n = samples.len() as f64;
    // Tail percentiles need the full distribution: one allocation, one
    // sort, three rank reads. (The means above stay in their historical
    // accumulation order, so they are unaffected by the sort.)
    let mut fcts: Vec<f64> = samples.iter().map(|s| s.fct_s).collect();
    fcts.sort_by(f64::total_cmp);
    let pct = |p: f64| crate::stats::percentile_sorted(&fcts, p).unwrap_or(0.0);
    FctSummary {
        n: samples.len(),
        avg_s: sum_all / n,
        avg_norm_optimal: (sum_all / n) / (sum_ideal / n).max(1e-12),
        mean_slowdown: sum_norm / n,
        small_avg_s: (n_small > 0).then(|| sum_small / n_small as f64),
        large_avg_s: (n_large > 0).then(|| sum_large / n_large as f64),
        p50_s: pct(50.0),
        p95_s: pct(95.0),
        p99_s: pct(99.0),
        incomplete,
    }
}

/// Ideal (idle-network) FCT model for a store-and-forward Leaf-Spine path:
/// per-hop serialization of one MTU plus propagation on every hop, plus
/// the transfer's serialization at the bottleneck edge rate.
///
/// * `bytes` — application payload;
/// * `edge_bps` — min(src NIC, dst NIC) rate;
/// * `hops` — number of store-and-forward hops (4 for inter-leaf paths:
///   host→leaf→spine→leaf→host; 2 for intra-leaf);
/// * `per_hop_delay_s` — propagation/pipeline delay per hop;
/// * `mtu_wire` — wire bytes of a full segment (payload + headers);
/// * `overhead` — header bytes per MTU of payload.
pub fn ideal_fct_s(
    bytes: u64,
    edge_bps: u64,
    hops: u32,
    per_hop_delay_s: f64,
    mtu_payload: u32,
    overhead: u32,
) -> f64 {
    let mtu_wire = (mtu_payload + overhead) as f64;
    let full_pkts = bytes / mtu_payload as u64;
    let tail = bytes % mtu_payload as u64;
    let wire_bytes = full_pkts as f64 * mtu_wire
        + if tail > 0 {
            tail as f64 + overhead as f64
        } else {
            0.0
        };
    // Serialization of the whole transfer at the edge, plus cut-through-free
    // pipelining: the last packet is serialized once more per extra hop.
    let last_pkt_wire = if tail > 0 {
        tail as f64 + overhead as f64
    } else {
        mtu_wire
    };
    let edge_bytes_per_s = edge_bps as f64 / 8.0;
    wire_bytes / edge_bytes_per_s
        + (hops.saturating_sub(1)) as f64 * (last_pkt_wire / edge_bytes_per_s)
        + hops as f64 * per_hop_delay_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_breaks_down_by_size() {
        let samples = vec![
            FctSample {
                bytes: 50_000,
                fct_s: 0.001,
                ideal_s: 0.0005,
            },
            FctSample {
                bytes: 50_000_000,
                fct_s: 0.05,
                ideal_s: 0.04,
            },
            FctSample {
                bytes: 500_000,
                fct_s: 0.002,
                ideal_s: 0.001,
            },
        ];
        let s = summarize(&samples, 1);
        assert_eq!(s.n, 3);
        assert_eq!(s.incomplete, 1);
        assert!((s.small_avg_s.unwrap() - 0.001).abs() < 1e-12);
        assert!((s.large_avg_s.unwrap() - 0.05).abs() < 1e-12);
        // Ratio of means: mean(fct)/mean(ideal) = 0.053/3 / (0.0415/3).
        assert!((s.avg_norm_optimal - 0.053 / 0.0415).abs() < 1e-9);
        // Mean slowdown = mean(2, 1.25, 2) = 1.75.
        assert!((s.mean_slowdown - 1.75).abs() < 1e-9);
    }

    #[test]
    fn summary_percentiles_interpolate_over_the_fct_distribution() {
        // FCTs 1..=5 ms (unsorted on input): p50 = 3 ms, p95 = 4.8 ms,
        // p99 = 4.96 ms under linear interpolation over sorted ranks.
        let samples: Vec<FctSample> = [0.003, 0.001, 0.005, 0.002, 0.004]
            .iter()
            .map(|&fct_s| FctSample {
                bytes: 1_000_000,
                fct_s,
                ideal_s: 0.001,
            })
            .collect();
        let s = summarize(&samples, 0);
        assert!((s.p50_s - 0.003).abs() < 1e-12, "{}", s.p50_s);
        assert!((s.p95_s - 0.0048).abs() < 1e-12, "{}", s.p95_s);
        assert!((s.p99_s - 0.00496).abs() < 1e-12, "{}", s.p99_s);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = summarize(&[], 4);
        assert_eq!(s.n, 0);
        assert_eq!(s.incomplete, 4);
        assert_eq!(s.avg_s, 0.0);
        assert_eq!(s.small_avg_s, None);
        assert_eq!(s.large_avg_s, None);
        assert_eq!(s.p50_s, 0.0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn empty_size_buckets_are_none_not_zero() {
        // One mid-sized flow: neither small (<100KB) nor large (>10MB).
        let s = summarize(
            &[FctSample {
                bytes: 500_000,
                fct_s: 0.002,
                ideal_s: 0.001,
            }],
            0,
        );
        assert_eq!(s.small_avg_s, None);
        assert_eq!(s.large_avg_s, None);
        assert!(s.avg_s > 0.0);
    }

    #[test]
    fn ideal_fct_scales_with_size_and_hops() {
        // 1 MB at 10G: ~0.8 ms + small constants.
        let f = ideal_fct_s(1_000_000, 10_000_000_000, 4, 2e-6, 1460, 100);
        assert!(f > 0.0008 && f < 0.001, "{f}");
        // More hops cost more; larger flows cost more.
        assert!(ideal_fct_s(1_000_000, 10_000_000_000, 2, 2e-6, 1460, 100) < f);
        assert!(ideal_fct_s(2_000_000, 10_000_000_000, 4, 2e-6, 1460, 100) > f);
        // A tiny flow is dominated by latency: ~hops * delay.
        let t = ideal_fct_s(100, 10_000_000_000, 4, 2e-6, 1460, 100);
        assert!(t > 8e-6 && t < 1e-5, "{t}");
    }
}
