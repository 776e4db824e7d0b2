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
use crate::runner::{build_testbed, plan_arrivals, start_source, Scheme, TestbedOpts};
use conga_net::{HostId, Network};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_transport::{FlowSpec, TcpConfig, TransportLayer};
use conga_workloads::{FlowSizeDist, HdfsJob};
use std::collections::HashMap;

/// Returns the job completion time in seconds.
fn run_trial(scheme: Scheme, failed: bool, seed: u64, args: &Args) -> f64 {
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

    let mut net = Network::new(topo, scheme.policy(), TransportLayer::new(), seed);
    let tcp = TcpConfig::standard().with_min_rto(SimDuration::from_millis(10));

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
    start_source(&mut net, background);

    // Closed loop: flow-id -> writer.
    let mut flow_owner: HashMap<usize, usize> = HashMap::new();
    let launch = |net: &mut Network<_, _>,
                  flow_owner: &mut HashMap<usize, usize>,
                  job: &mut HdfsJob,
                  w: usize| {
        if let Some(b) = job.next_block(w) {
            for (src, dst) in [b.hop1, b.hop2, b.hop3] {
                let id = net.agent_call(|a: &mut TransportLayer, now, em| {
                    a.start_flow(
                        FlowSpec {
                            src: HostId(src),
                            dst: HostId(dst),
                            bytes: b.bytes,
                            kind: scheme.transport(tcp),
                        },
                        now,
                        em,
                    )
                });
                flow_owner.insert(id, w);
            }
        }
    };
    for w in 0..n_writers {
        launch(&mut net, &mut flow_owner, &mut job, w);
    }

    let bound = SimTime::from_secs(600);
    while !job.done() && net.now() < bound {
        net.run_until(net.now() + SimDuration::from_millis(20));
        // Reap completed pipeline hops. Records complete out of order, so
        // scan them all; `flow_owner` forgets a hop once it is counted.
        let mut done_writers: Vec<usize> = Vec::new();
        for (i, r) in net.agent.records.iter().enumerate() {
            if r.rx_done.is_some() {
                if let Some(w) = flow_owner.remove(&i) {
                    if job.hop_done(w) {
                        done_writers.push(w);
                    }
                }
            }
        }
        for w in done_writers {
            launch(&mut net, &mut flow_owner, &mut job, w);
        }
    }
    net.now().as_secs_f64()
}

/// Figure 14: HDFS job completion times per trial.
pub fn fig14(args: &Args) -> bool {
    banner(
        "Figure 14 — HDFS write benchmark (TestDFSIO model)",
        "writers stream 64MB blocks through 3-way replication pipelines,\n\
         with 30% enterprise background traffic; job time = last block done",
    );
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
                let s = run_trial(scheme, failed, args.seed + 31 * t as u64, args);
                print!("{s:>8.2}");
                times.push(s);
            }
            let mean: f64 = times.iter().sum::<f64>() / times.len() as f64;
            println!("   | mean {mean:.2}");
        }
    }
    true
}
