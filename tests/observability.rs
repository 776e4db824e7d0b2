//! Tier-1 gates for the time-series telemetry layer.
//!
//! Three contracts are pinned here. First, determinism: the per-window
//! series a run leaves behind (queue depth, utilization, DRE estimates,
//! flowlet occupancy, active flows, and the derived imbalance-over-time
//! series) are **byte identical** for any `--shards` count — the same
//! contract the RunReport already obeys, extended to the new artifacts.
//! Second, fidelity: the imbalance-over-time series must actually
//! separate ECMP from CONGA — hash collisions leave ECMP's uplink
//! utilization visibly skewed window after window, while
//! congestion-aware flowlet balancing keeps the spread tight. Third,
//! consistency: one sampling tick feeds both the RunReport's raw samples
//! and the windowed series, and the two must say the same thing.

use conga::experiments::{build_testbed, run_fct_with_policy, FctRun, Scheme, TestbedOpts};
use conga::sim::SimDuration;
use conga::telemetry::SeriesRegistry;
use conga::workloads::FlowSizeDist;

/// A sampled quick FCT cell on the given testbed.
fn sampled_cell(topo: TestbedOpts, scheme: Scheme, load: f64, shards: usize) -> FctRun {
    let mut cfg = FctRun::new(topo, scheme, FlowSizeDist::enterprise(), load);
    cfg.n_flows = 150;
    cfg.seed = 7;
    cfg.sample_uplinks = true;
    cfg.shards = shards;
    cfg
}

fn series_for(topo: TestbedOpts, scheme: Scheme, load: f64, shards: usize) -> SeriesRegistry {
    run_fct_with_policy(&sampled_cell(topo, scheme, load, shards), scheme.policy()).series
}

/// Both series exports are byte-identical at `--shards 1/2/4`, on the
/// symmetric baseline and on the asymmetric (failed-link) fabric. This is
/// what lets the JSONL/CSV sidecars ride in cache entries keyed by hashes
/// that exclude `shards`.
#[test]
fn series_exports_identical_across_shard_counts() {
    for topo in [
        TestbedOpts::paper_baseline().quick(),
        TestbedOpts::paper_failure().quick(),
    ] {
        let base = series_for(topo, Scheme::Conga, 0.6, 1);
        assert!(!base.is_empty(), "sampled run must produce series");
        let (jsonl, csv) = (base.to_jsonl(), base.to_csv());
        for shards in [2, 4] {
            let got = series_for(topo, Scheme::Conga, 0.6, shards);
            assert!(
                got.to_jsonl() == jsonl,
                "series JSONL diverged between --shards 1 and --shards {shards}"
            );
            assert!(
                got.to_csv() == csv,
                "series CSV diverged between --shards 1 and --shards {shards}"
            );
        }
    }
}

/// The series cover every layer the issue names: per-uplink queue depth
/// and utilization, leaf DRE congestion estimates, flowlet-table
/// occupancy, transport active flows, and the derived imbalance series.
#[test]
fn series_cover_all_layers() {
    let s = series_for(TestbedOpts::paper_baseline().quick(), Scheme::Conga, 0.6, 1);
    let names: Vec<&str> = s.names().collect();
    for prefix in [
        "port.",
        "dataplane.dre.",
        "dataplane.flowlets.",
        "transport.active_flows",
        "imbalance.leaf0",
    ] {
        assert!(
            names.iter().any(|n| n.starts_with(prefix)),
            "no series named {prefix}* in {names:?}"
        );
    }
    // The derived imbalance series has real, finite values.
    let m = s.mean("imbalance.leaf0").expect("imbalance series sampled");
    assert!(m.is_finite() && m >= 0.0, "imbalance mean {m}");
}

/// The two outputs of one sampling tick agree, window by window, for every
/// sampled uplink: the report's raw `port.NNNN.queue_bytes` is the series
/// value, and the series' `port.NNNN.util` is the raw `port.NNNN.tx_bytes`
/// delta × 8 / (rate × 10 ms).
#[test]
fn raw_samples_and_windowed_series_agree() {
    let topo = TestbedOpts::paper_baseline().quick();
    let cfg = sampled_cell(topo, Scheme::Conga, 0.6, 1);
    let out = run_fct_with_policy(&cfg, Scheme::Conga.policy());
    let fabric = build_testbed(topo);
    let window_s = SimDuration::from_millis(10).as_secs_f64();
    let raw = &out.report.metrics;
    let mut ports = 0;
    let mut busy_windows = 0;
    for (name, tx) in raw.all_series().filter(|(n, _)| n.ends_with(".tx_bytes")) {
        let port = name.strip_suffix(".tx_bytes").expect("filtered on it");
        let ch: usize = port["port.".len()..].parse().expect("zero-padded index");
        let rate = fabric.channels[ch].rate_bps as f64;
        let queue = raw.series(&format!("{port}.queue_bytes"));
        let queue_series = out.series.points(&format!("{port}.queue_bytes"));
        let util_series = out.series.points(&format!("{port}.util"));
        assert!(tx.len() > 1, "{port}: {} raw samples", tx.len());
        assert_eq!(queue.len(), tx.len(), "{port}: raw queue rows");
        assert_eq!(queue_series.len(), tx.len(), "{port}: queue windows");
        assert_eq!(util_series.len(), tx.len(), "{port}: util windows");
        let mut prev_tx = 0;
        for (i, &(t, bytes)) in tx.iter().enumerate() {
            let bytes = bytes as u64;
            assert_eq!(queue[i].0, t, "{port}: raw rows share their tick");
            assert_eq!(
                queue_series[i].0, t,
                "{port}: window {i} starts at its tick"
            );
            assert_eq!(queue_series[i].2, queue[i].1, "{port}: queue at {t} ns");
            let util = ((bytes - prev_tx) as f64 * 8.0) / (rate * window_s);
            assert_eq!(util_series[i].0, t, "{port}: window {i} starts at its tick");
            assert_eq!(util_series[i].2, util, "{port}: util at {t} ns");
            busy_windows += usize::from(util > 0.0);
            prev_tx = bytes;
        }
        ports += 1;
    }
    let uplinks = fabric.fib().leaf_uplinks[0].len();
    assert_eq!(
        ports, uplinks,
        "every leaf-0 uplink is sampled, and only those"
    );
    assert!(busy_windows > 0, "the cell carried traffic");
}

/// Figure-12's claim, read off the time axis: under sustained load on the
/// baseline fabric, ECMP's window-by-window uplink imbalance sits
/// strictly above CONGA's on average. Static per-flow hashing pins every
/// collision in place for the flow's lifetime; CONGA re-balances at
/// flowlet granularity. Pooled over three seeds so one lucky hash draw
/// cannot flip the comparison (at this load every individual seed
/// separates too, with margins from 7% to 65%).
#[test]
fn imbalance_over_time_separates_ecmp_from_conga() {
    let mean_for = |scheme: Scheme, seed: u64| -> f64 {
        let mut cfg = FctRun::new(
            TestbedOpts::paper_baseline().quick(),
            scheme,
            FlowSizeDist::enterprise(),
            0.8,
        );
        cfg.n_flows = 400;
        cfg.seed = seed;
        cfg.sample_uplinks = true;
        run_fct_with_policy(&cfg, scheme.policy())
            .series
            .mean("imbalance.leaf0")
            .expect("imbalance series sampled")
    };
    let seeds = [7u64, 11, 13];
    let ecmp: f64 = seeds.iter().map(|&s| mean_for(Scheme::Ecmp, s)).sum();
    let conga: f64 = seeds.iter().map(|&s| mean_for(Scheme::Conga, s)).sum();
    assert!(
        ecmp > conga,
        "mean window imbalance pooled over seeds: ECMP {ecmp:.4} must exceed CONGA {conga:.4}"
    );
}

#[test]
#[ignore]
fn probe_imbalance() {
    for load in [0.6, 0.8] {
        for n_flows in [150, 400] {
            for seed in [7u64, 11, 13] {
                for scheme in [Scheme::Ecmp, Scheme::Conga] {
                    let mut cfg = FctRun::new(
                        TestbedOpts::paper_baseline().quick(),
                        scheme,
                        FlowSizeDist::enterprise(),
                        load,
                    );
                    cfg.n_flows = n_flows;
                    cfg.seed = seed;
                    cfg.sample_uplinks = true;
                    let s = run_fct_with_policy(&cfg, scheme.policy()).series;
                    let active: std::collections::HashMap<u64, f64> = s
                        .points("transport.active_flows")
                        .iter()
                        .map(|&(w, _, v)| (w, v))
                        .collect();
                    let pts = s.points("imbalance.leaf0");
                    let busy: Vec<f64> = pts
                        .iter()
                        .filter(|&&(w, _, _)| active.get(&w).copied().unwrap_or(0.0) >= 5.0)
                        .map(|&(_, _, v)| v)
                        .collect();
                    let all: Vec<f64> = pts.iter().map(|&(_, _, v)| v).collect();
                    println!(
                        "load {load} n {n_flows} seed {seed} {:?}: all n={} mean={:.3} | busy n={} mean={:.3}",
                        scheme,
                        all.len(),
                        all.iter().sum::<f64>() / all.len().max(1) as f64,
                        busy.len(),
                        busy.iter().sum::<f64>() / busy.len().max(1) as f64,
                    );
                }
            }
        }
    }
}
