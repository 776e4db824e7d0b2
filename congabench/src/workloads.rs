//! The four workloads: what each simulates, why it was chosen, and how one
//! repetition of it is run through the simulator's own entry points.
//!
//! Every workload is a batch: a repetition simulates a fixed input to
//! completion, and the next one starts when it ends (closed loop, one
//! client). The input is a pure function of the seed, and chosen so that
//! the seed matters little: the acceptance driver takes its spreads across
//! ten seeds. Flow sizes of the two throughput workloads come from a
//! *bounded* distribution — the paper's enterprise mix is so heavy-tailed
//! that 2000 flows carry 1.5 to 3 M packets depending on the seed — and
//! their loads (0.4 and 0.3) are moderate: at 0.6 and 0.5 the simulated
//! FCT still moved by 9 and 12 % across seeds with the luck of a few
//! collisions, at these by 2 and 5 %.

use conga_experiments::suite::run_incast;
use conga_experiments::{run_fct, FctRun, Scheme, TestbedOpts};
use conga_sim::SimDuration;
use conga_telemetry::MetricsRegistry;
use conga_transport::TcpConfig;
use conga_workloads::FlowSizeDist;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::measure::timed;

/// How much of a workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's stated sizes.
    Full,
    /// A quarter of the flows (one incast seed in four): what the
    /// on/off ratio probes of the traced run use, so each costs a fraction
    /// of a repetition. Overhead ratios do not depend on run length.
    Probe,
    /// About 1 % — the contract test's size. Numbers mean nothing.
    Smoke,
}

/// One incast cell: `fanout` synchronized senders into one access link.
#[derive(Clone, Copy, Debug)]
pub struct IncastCell {
    /// CONGA+TCP or MPTCP.
    pub scheme: Scheme,
    /// Concurrent senders.
    pub fanout: u32,
    /// Minimum RTO, ms.
    pub min_rto_ms: u64,
    /// Cell seed.
    pub seed: u64,
}

impl IncastCell {
    /// The cell's TCP parameters.
    pub fn tcp(&self) -> TcpConfig {
        TcpConfig::standard().with_min_rto(SimDuration::from_millis(self.min_rto_ms))
    }
}

/// What a repetition simulates.
#[derive(Clone, Debug)]
pub enum Input {
    /// One open-loop FCT cell through `run_fct` (the sharded engine).
    Fct(Box<FctRun>),
    /// A batch of incast cells through `suite::run_incast` (the
    /// monolithic engine).
    Incast(Vec<IncastCell>),
}

/// A workload at a given seed and scale.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Stable name (a key of `BENCHMARK.json`).
    pub name: &'static str,
    /// The generated input.
    pub input: Input,
}

/// Name and one-line reason of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "testbed_elephants",
        "long flows under CONGA on the paper testbed: the per-packet path (event queue, port, flowlet hits, ACK fast path) is all the work",
    ),
    (
        "testbed_mice",
        "200k seven-packet flows under ECMP: per-flow set-up, timers, completion drain and FCT aggregation dominate; the CONGA decision is bypassed",
    ),
    (
        "incast_rto",
        "192 Fig-13 incast cells on the monolithic engine: drop-tail overflow, SACK repair, RTO timers far beyond the calendar year, MPTCP subflows",
    ),
    (
        "clos3_shards2",
        "a 16-leaf three-tier Clos on 2 worker threads: barrier and mailbox exchange, 16 Network replicas, 16-fold flow preregistration",
    ),
];

/// The bounded flow-size distribution of `testbed_elephants`: 200 KB to
/// 1.6 MB, median 600 KB (137 to 1096 full segments). Long enough that
/// per-flow cost is noise, bounded so that the packet count of 2000 flows
/// varies by about 1 % across seeds instead of 2x.
pub fn elephants() -> FlowSizeDist {
    FlowSizeDist::from_points("elephants", &[(2e5, 0.0), (6e5, 0.5), (1.6e6, 1.0)])
}

/// The same shape at a quarter of the size, for `clos3_shards2`: 50 to
/// 400 KB, median 150 KB (34 to 274 full segments). Four times the flows
/// for the same packets: 256 hosts need that many for the simulated FCT
/// not to hang on where a few hundred flows happen to land.
pub fn calves() -> FlowSizeDist {
    FlowSizeDist::from_points("calves", &[(5e4, 0.0), (1.5e5, 0.5), (4e5, 1.0)])
}

/// 1 to 30 KB, median 2 KB: about seven packets a flow, data and ACKs.
pub fn mice() -> FlowSizeDist {
    FlowSizeDist::from_points("mice", &[(1e3, 0.0), (2e3, 0.5), (1e4, 0.9), (3e4, 1.0)])
}

impl Workload {
    /// Build workload `name` from `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        let flows = |full: usize| match scale {
            Scale::Full => full,
            Scale::Probe => full / 4,
            Scale::Smoke => (full / 100).max(10),
        };
        let (name, input) = match name {
            "testbed_elephants" => {
                let mut c = FctRun::new(
                    TestbedOpts::paper_baseline(),
                    Scheme::Conga,
                    elephants(),
                    0.4,
                );
                c.n_flows = flows(1000);
                c.seed = seed;
                ("testbed_elephants", Input::Fct(Box::new(c)))
            }
            "testbed_mice" => {
                let mut c = FctRun::new(TestbedOpts::paper_baseline(), Scheme::Ecmp, mice(), 0.2);
                c.n_flows = flows(100_000);
                c.seed = seed;
                c.sketch = true;
                ("testbed_mice", Input::Fct(Box::new(c)))
            }
            "clos3_shards2" => {
                let mut c = FctRun::new(
                    TestbedOpts::three_tier(4, 4, 2, 2, 16),
                    Scheme::Conga,
                    calves(),
                    0.3,
                );
                c.n_flows = flows(1200);
                c.seed = seed;
                c.sketch = true;
                c.shards = 2;
                ("clos3_shards2", Input::Fct(Box::new(c)))
            }
            "incast_rto" => {
                let seeds: u64 = match scale {
                    Scale::Full => 16,
                    Scale::Probe => 4,
                    Scale::Smoke => 1,
                };
                let mut cells = Vec::new();
                for fanout in [16, 32, 63] {
                    for (scheme, min_rto_ms) in [
                        (Scheme::Conga, 200),
                        (Scheme::Conga, 1),
                        (Scheme::Mptcp, 200),
                        (Scheme::Mptcp, 1),
                    ] {
                        for k in 0..seeds {
                            cells.push(IncastCell {
                                scheme,
                                fanout,
                                min_rto_ms,
                                // Distinct benchmark seeds share no cell.
                                seed: seed.wrapping_mul(16).wrapping_add(k),
                            });
                        }
                    }
                }
                ("incast_rto", Input::Incast(cells))
            }
            _ => return None,
        };
        Some(Workload { name, input })
    }

    /// Worker threads a repetition runs on.
    pub fn workers(&self) -> usize {
        match &self.input {
            Input::Fct(c) => c.shards,
            Input::Incast(_) => 1,
        }
    }

    /// Flows one repetition attempts.
    pub fn flows(&self) -> u64 {
        match &self.input {
            Input::Fct(c) => 2 * c.n_flows as u64,
            Input::Incast(cells) => cells.iter().map(|c| c.fanout as u64).sum(),
        }
    }

    /// Run one repetition through the simulator's own runner — `run_fct`,
    /// or `run_incast` once per cell — timing nothing but those calls.
    pub fn run_rep(&self) -> Rep {
        match &self.input {
            Input::Fct(cfg) => {
                let (wall_s, out) = timed(|| catch_unwind(AssertUnwindSafe(|| run_fct(cfg))));
                match out {
                    Ok(out) => Rep {
                        wall_s,
                        report: ReportHash::default().fold(&out.report.to_json()),
                        sim_fct_norm_optimal: out.summary.avg_norm_optimal,
                        measured_flows: (out.summary.n + out.summary.incomplete) as u64,
                        panicked_flows: 0,
                        metrics: out.report.metrics,
                    },
                    Err(_) => Rep::panicked(wall_s, self.flows()),
                }
            }
            Input::Incast(cells) => {
                let mut rep = Rep::empty();
                let (mut inv_goodput, mut ran) = (0.0, 0u32);
                for c in cells {
                    let (wall_s, out) = timed(|| {
                        catch_unwind(AssertUnwindSafe(|| {
                            run_incast(c.scheme, c.fanout, c.tcp(), c.seed, None)
                        }))
                    });
                    rep.wall_s += wall_s;
                    // Off the clock: fold the cell's artifact into the
                    // repetition's, so no report outlives its cell.
                    match out {
                        Ok((goodput_pct, report, _)) => {
                            inv_goodput += 100.0 / goodput_pct;
                            ran += 1;
                            rep.report = rep.report.fold(&report.to_json());
                            rep.metrics.absorb(&report.metrics);
                        }
                        Err(_) => rep.panicked_flows += c.fanout as u64,
                    }
                }
                rep.sim_fct_norm_optimal = inv_goodput / ran.max(1) as f64;
                rep.measured_flows = self.flows() - rep.panicked_flows;
                rep
            }
        }
    }
}

/// FNV-1a/64 and length of the `RunReport` JSON a repetition rendered
/// (incast: of every cell's, concatenated in cell order). Two repetitions
/// rendered the same bytes iff these are equal, up to hash collision; the
/// text itself is not kept, so that the benchmark's own memory stays out
/// of `peak_rss_mb`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportHash {
    /// FNV-1a/64 of the bytes so far.
    pub fnv64: u64,
    /// Number of bytes so far.
    pub len: u64,
}

impl Default for ReportHash {
    fn default() -> Self {
        ReportHash {
            fnv64: 0xcbf2_9ce4_8422_2325,
            len: 0,
        }
    }
}

impl ReportHash {
    /// Continue the hash over `json`.
    pub fn fold(self, json: &str) -> ReportHash {
        let mut h = self.fnv64;
        for b in json.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        ReportHash {
            fnv64: h,
            len: self.len + json.len() as u64,
        }
    }
}

/// What one repetition produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// Wall-clock seconds inside the runner.
    pub wall_s: f64,
    /// Hash of the deterministic `RunReport` JSON.
    pub report: ReportHash,
    /// `FctSummary::avg_norm_optimal`; incast: mean over cells of
    /// 100 ÷ goodput %.
    pub sim_fct_norm_optimal: f64,
    /// Flows the summary covers, completed or not (incast: every flow of
    /// every cell that ran).
    pub measured_flows: u64,
    /// Flows of cells that panicked.
    pub panicked_flows: u64,
    /// The run's counters (incast: summed over cells).
    pub metrics: MetricsRegistry,
}

impl Rep {
    fn empty() -> Rep {
        Rep {
            wall_s: 0.0,
            report: ReportHash::default(),
            sim_fct_norm_optimal: f64::NAN,
            measured_flows: 0,
            panicked_flows: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    fn panicked(wall_s: f64, flows: u64) -> Rep {
        Rep {
            wall_s,
            panicked_flows: flows,
            ..Rep::empty()
        }
    }

    /// A named counter of the run (0 when never exported).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }

    /// Flows that did not complete: those never fully received plus those
    /// of panicked cells, out of `attempted`.
    pub fn incomplete_flows(&self, attempted: u64) -> u64 {
        let ran = attempted - self.panicked_flows;
        self.panicked_flows + ran.saturating_sub(self.counter("transport.flows_rx_complete"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_and_seeds_differ() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
            let a = Workload::new(name, 1, Scale::Full).expect("known name");
            assert_eq!(a.name, name);
            assert!(a.flows() >= 600);
            assert!(Workload::new(name, 1, Scale::Smoke).unwrap().flows() < a.flows() / 10);
        }
        assert!(Workload::new("nope", 1, Scale::Full).is_none());
        let (Input::Incast(a), Input::Incast(b)) = (
            Workload::new("incast_rto", 1, Scale::Full).unwrap().input,
            Workload::new("incast_rto", 2, Scale::Full).unwrap().input,
        ) else {
            panic!("incast input expected");
        };
        assert_eq!(a.len(), 192);
        assert!(a.iter().all(|x| b.iter().all(|y| x.seed != y.seed)));
    }

    #[test]
    fn report_hash_is_fnv1a64_and_folds() {
        let whole = ReportHash::default().fold("hello world");
        assert_eq!(whole.fnv64, conga_fleet::scenario::fnv1a64(b"hello world"));
        assert_eq!(ReportHash::default().fold("hello ").fold("world"), whole);
        assert_eq!(whole.len, 11);
    }
}
