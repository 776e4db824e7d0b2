//! Figure 14: the HDFS write benchmark (TestDFSIO model) — job completion
//! times over repeated trials, with and without the link failure.
//!
//! Each writer streams its share of a large file in 64 MB blocks; every
//! block is 3-way replicated through a pipeline of datanodes
//! (writer→DN1→DN2→DN3). Enterprise background traffic loads the fabric
//! (the paper added it because the disk-bound benchmark alone does not
//! stress the network). Paper result: with the failed link, ECMP jobs take
//! ~2× longer; CONGA is essentially unaffected; MPTCP is volatile.

use crate::cli::{banner, Args};
use crate::runner::{
    absolute_starts, build_testbed, plan_arrivals, Engine, Scheme, ShardedRun, TestbedOpts,
};
use conga_net::HostId;
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_transport::{FlowSpec, TcpConfig};
use conga_workloads::{FlowSizeDist, HdfsJob};
use std::collections::BTreeMap;

/// Returns the job completion time in seconds — the last pipeline hop's
/// receive completion — and the run.
fn run_trial(scheme: Scheme, failed: bool, seed: u64, args: &Args) -> (f64, ShardedRun) {
    let opts = if failed {
        TestbedOpts::paper_failure()
    } else {
        TestbedOpts::paper_baseline()
    };
    let opts = if args.quick { opts.quick() } else { opts };
    let topo = build_testbed(opts);
    let all_hosts: Vec<u32> = (0..topo.n_hosts).collect();
    // TestDFSIO runs a mapper per file on nodes across the cluster; we
    // spread writers over both racks (every other host in quick mode,
    // every fourth at full scale => 16 concurrent pipelines).
    // Many sequential blocks per writer: persistent fabric hotspots then
    // dominate job time (single-block runs are access-collision noise).
    let stride = 4;
    let per_writer: u64 = if args.quick { 32 << 20 } else { 128 << 20 };
    let block: u64 = 16 << 20;

    let mut rng = SimRng::new(seed ^ 0xD1F5);
    let writers: Vec<u32> = (0..topo.n_hosts).step_by(stride).collect();
    let n_writers = writers.len();
    let mut job = HdfsJob::plan(&writers, &all_hosts, per_writer, block, &mut rng);
    let tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(10));
    let tcp = tcp.with_cc(args.primary_cc());

    // Background enterprise traffic, offered at 0.5 of the baseline
    // bisection (the banner's "30%" is the paper's figure, not this knob).
    let (background, _) = plan_arrivals(
        opts,
        &FlowSizeDist::enterprise(),
        0.5,
        if args.quick { 400 } else { 4000 },
        scheme.transport(tcp),
        &mut rng,
    );
    let engine = Engine {
        seed,
        ..args.engine(tcp.mss)
    };
    let mut run = engine.register(&topo, scheme.policy(), &absolute_starts(background));

    // Closed loop: flow id -> writer. A writer's next block starts when
    // every hop of its current one is received; all writers start at zero.
    let mut flow_owner: BTreeMap<usize, usize> = BTreeMap::new();
    let mut idle: Vec<usize> = (0..n_writers).collect();
    let mut last_hop = SimTime::ZERO;
    let bound = SimTime::from_secs(600);
    loop {
        for w in idle.drain(..) {
            if let Some(b) = job.next_block(w) {
                for (src, dst) in [b.hop1, b.hop2, b.hop3] {
                    let spec = FlowSpec {
                        src: HostId(src),
                        dst: HostId(dst),
                        bytes: b.bytes,
                        kind: scheme.transport(tcp),
                    };
                    flow_owner.insert(run.start_flow(run.net.now(), spec), w);
                }
            }
        }
        if job.done() || run.net.now() >= bound {
            break;
        }
        let t = run.net.now() + SimDuration::from_millis(20);
        run.net.run_until(t);
        // Reap the hops received in this slice, in flow-id order.
        flow_owner.retain(|&i, &mut w| {
            let Some(rx_done) = run.merged_record(&topo, i).rx_done else {
                return true;
            };
            last_hop = last_hop.max(rx_done);
            if job.hop_done(w) {
                idle.push(w);
            }
            false
        });
    }
    let end = if job.done() { last_hop } else { run.net.now() };
    (end.as_secs_f64(), run)
}

/// Figure 14: HDFS job completion times per trial.
pub fn fig14(args: &Args) -> bool {
    banner(
        "Figure 14 — HDFS write benchmark (TestDFSIO model)",
        "writers stream 64MB blocks through 3-way replication pipelines,\n\
         with 30% enterprise background traffic; job time = last block done",
    );
    args.print_controller();
    let trials = args.runs_or(2, 6);
    for (case, failed) in [
        ("(a) baseline topology", false),
        ("(b) with link failure", true),
    ] {
        println!("\n{case}");
        println!("{:<12}job completion times (s) per trial", "scheme");
        for scheme in [Scheme::Ecmp, Scheme::Conga, Scheme::Mptcp] {
            print!("{:<12}", scheme.name());
            let mut times = Vec::new();
            for t in 0..trials {
                let (s, _) = run_trial(scheme, failed, args.seed + 31 * t as u64, args);
                print!("{s:>8.2}");
                times.push(s);
            }
            let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
            println!("   | mean {mean:.2}");
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use conga_transport::FlowRecord;

    /// A quick Figure-14 trial with the link failure, under CONGA, at
    /// `shards` workers: its job time and every flow's merged record.
    fn trial(shards: &str) -> (f64, Vec<FlowRecord>) {
        let argv = ["--quick", "--shards", shards].map(String::from);
        let args = Args::from_iter(argv).expect("valid args");
        let (time, run) = run_trial(Scheme::Conga, true, 1, &args);
        let topo = run.net.domain(0).topo.clone();
        (time, run.merged_records(&topo))
    }

    #[test]
    fn a_trial_ends_at_its_last_hop_at_any_shard_count() {
        let (time, records) = trial("1");
        // 400 background flows per direction come first; every later flow
        // is a pipeline hop: 4 writers x 2 blocks x 3 hops, each started
        // mid-run by `start_flow`.
        assert_eq!(records.len(), 800 + 24);
        let last = records[800..]
            .iter()
            .map(|r| r.rx_done.expect("every hop is received"))
            .max();
        assert_eq!(Some(time), last.map(|t| t.as_secs_f64()));
        for shards in ["2", "3"] {
            let other = trial(shards);
            assert_eq!(format!("{other:?}"), format!("{:?}", (time, &records)));
        }
    }
}
