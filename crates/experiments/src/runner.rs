//! The shared experiment runner: scheme matrix, testbed construction, and
//! the open-loop FCT experiment of paper §5.2.

use conga_analysis::fct::{ideal_fct_s, summarize, FctSample, FctSummary};
use conga_analysis::sketch::{FctAccumulator, FctSketch};
use conga_core::FabricPolicy;
use conga_fleet::Scenario;
use conga_net::{
    ChannelId, EcnConfig, HostId, LeafId, Link, ShardedNetwork, Topology, TopologyBuilder, TxPort,
    WIRE_OVERHEAD,
};
use conga_sim::{QueueKind, SimDuration, SimRng, SimTime};
use conga_telemetry::{RunReport, SeriesRegistry};
use conga_trace::{TraceConfig, TraceHandle};
use conga_transport::{
    CcKind, FlowRecord, FlowSpec, MptcpConfig, Schedule, TcpConfig, TransportKind, TransportLayer,
};
use conga_workloads::{FlowSizeDist, PoissonPlan};
use std::sync::Arc;

/// The schemes compared throughout the evaluation (§5, "Schemes compared").
/// MPTCP rides over ECMP hashing in the fabric, exactly as in the testbed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Static per-flow ECMP + TCP.
    Ecmp,
    /// CONGA with the 13 ms flowlet timeout (one decision per flow) + TCP.
    CongaFlow,
    /// CONGA with default parameters + TCP.
    Conga,
    /// ECMP fabric + MPTCP with 8 subflows.
    Mptcp,
    /// Local congestion-aware strawman (§2.4) + TCP.
    Local,
    /// Per-packet round-robin spraying + TCP.
    Spray,
    /// Static weighted-random (oblivious) + TCP.
    Weighted,
    /// Flowlet switching with uniform-random choice (LetFlow) + TCP.
    LetFlow,
    /// Latency-EWMA exclusion (scylla-style) + TCP.
    LatencyAware,
}

impl Scheme {
    /// The four schemes of the main testbed figures.
    pub const PAPER: [Scheme; 4] = [
        Scheme::Ecmp,
        Scheme::CongaFlow,
        Scheme::Conga,
        Scheme::Mptcp,
    ];

    /// The full single-transport policy zoo the `fleet tournament`
    /// subcommand races (MPTCP is excluded: it changes the transport, not
    /// the fabric policy, so its cells would not be like-for-like).
    pub const TOURNAMENT: [Scheme; 8] = [
        Scheme::Ecmp,
        Scheme::CongaFlow,
        Scheme::Conga,
        Scheme::Local,
        Scheme::Spray,
        Scheme::Weighted,
        Scheme::LetFlow,
        Scheme::LatencyAware,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Ecmp => "ECMP",
            Scheme::CongaFlow => "CONGA-Flow",
            Scheme::Conga => "CONGA",
            Scheme::Mptcp => "MPTCP",
            Scheme::Local => "Local",
            Scheme::Spray => "Spray",
            Scheme::Weighted => "Weighted",
            Scheme::LetFlow => "LetFlow",
            Scheme::LatencyAware => "LatencyAware",
        }
    }

    /// Stable snake_case key for machine-readable artifacts (the tournament
    /// report keys its policy maps with this).
    pub fn key(self) -> &'static str {
        match self {
            Scheme::Ecmp => "ecmp",
            Scheme::CongaFlow => "conga_flow",
            Scheme::Conga => "conga",
            Scheme::Mptcp => "mptcp",
            Scheme::Local => "local",
            Scheme::Spray => "spray",
            Scheme::Weighted => "weighted",
            Scheme::LetFlow => "letflow",
            Scheme::LatencyAware => "latency_aware",
        }
    }

    /// The fabric policy for this scheme.
    pub fn policy(self) -> FabricPolicy {
        match self {
            Scheme::Ecmp | Scheme::Mptcp => FabricPolicy::ecmp(),
            Scheme::CongaFlow => FabricPolicy::conga_flow(),
            Scheme::Conga => FabricPolicy::conga(),
            Scheme::Local => FabricPolicy::local(),
            Scheme::Spray => FabricPolicy::spray(),
            Scheme::Weighted => FabricPolicy::weighted(),
            Scheme::LetFlow => FabricPolicy::letflow(),
            Scheme::LatencyAware => FabricPolicy::latency_aware(),
        }
    }

    /// The transport for a flow under this scheme.
    pub fn transport(self, tcp: TcpConfig) -> TransportKind {
        match self {
            Scheme::Mptcp => TransportKind::Mptcp(MptcpConfig {
                tcp,
                ..MptcpConfig::default()
            }),
            _ => TransportKind::Tcp(tcp),
        }
    }
}

/// Options for the paper's testbed topologies (Figure 7) and the
/// large-scale three-tier fabrics (Figure 15).
#[derive(Clone, Copy, Debug)]
pub struct TestbedOpts {
    /// Leaves (total, across all pods).
    pub leaves: u32,
    /// Spines (total, across all pods).
    pub spines: u32,
    /// Hosts per leaf.
    pub hosts_per_leaf: u32,
    /// Host NIC rate, Gbps.
    pub host_gbps: u64,
    /// Fabric link rate, Gbps.
    pub fabric_gbps: u64,
    /// Parallel links per leaf-spine pair.
    pub parallel: u32,
    /// Fail one parallel link (leaf, spine, index) — Figure 7(b).
    /// Two-tier fabrics only.
    pub fail: Option<(u32, u32, u32)>,
    /// Pods. `1` (the default everywhere but fig15's large-scale cases)
    /// keeps the two-tier leaf-spine fabric; `> 1` builds the
    /// pod-structured three-tier Clos, with `leaves`/`spines` split
    /// evenly across pods.
    pub pods: u32,
    /// Core switches above the spines (three-tier only; must be 0 when
    /// `pods == 1`).
    pub cores: u32,
}

impl TestbedOpts {
    /// The baseline testbed of Figure 7(a): 2 leaves, 2 spines, 32 hosts
    /// per leaf at 10 G, 2×40 G uplinks per pair (2:1 oversubscription).
    pub fn paper_baseline() -> Self {
        TestbedOpts {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: 32,
            host_gbps: 10,
            fabric_gbps: 40,
            parallel: 2,
            fail: None,
            pods: 1,
            cores: 0,
        }
    }

    /// Figure 7(b): the baseline with one Leaf1–Spine1 link failed.
    pub fn paper_failure() -> Self {
        TestbedOpts {
            fail: Some((1, 1, 0)),
            ..Self::paper_baseline()
        }
    }

    /// A pod-structured three-tier Clos (fig15's large-scale cases):
    /// `pods × leaves_per_pod` leaves, `pods × spines_per_pod` spines,
    /// `cores` core switches, 10 G hosts on 40 G fabric links.
    pub fn three_tier(
        pods: u32,
        leaves_per_pod: u32,
        spines_per_pod: u32,
        cores: u32,
        hosts_per_leaf: u32,
    ) -> Self {
        TestbedOpts {
            leaves: pods * leaves_per_pod,
            spines: pods * spines_per_pod,
            hosts_per_leaf,
            host_gbps: 10,
            fabric_gbps: 40,
            parallel: 1,
            fail: None,
            pods,
            cores,
        }
    }

    /// Shrink host counts for `--quick` runs (keeps the fabric shape).
    pub fn quick(mut self) -> Self {
        self.hosts_per_leaf = self.hosts_per_leaf.min(8);
        self
    }

    /// This fabric as cache-key text (see [`FctRun::spec`] for the rule).
    pub(crate) fn spec(&self) -> String {
        let TestbedOpts {
            leaves,
            spines,
            hosts_per_leaf,
            host_gbps,
            fabric_gbps,
            parallel,
            fail,
            pods,
            cores,
        } = self;
        let fail = fail.map_or("none".to_string(), |(l, s, p)| format!("{l}:{s}:{p}"));
        format!(
            "{leaves}x{spines}x{hosts_per_leaf}@{host_gbps}G/{fabric_gbps}G par{parallel} \
             pods{pods} cores{cores} fail={fail}"
        )
    }
}

/// Build the topology for the given options: one builder chain for both
/// tiers, a two-tier fabric being its one-pod, zero-core case.
pub fn build_testbed(o: TestbedOpts) -> Topology {
    assert!(
        o.leaves.is_multiple_of(o.pods) && o.spines.is_multiple_of(o.pods),
        "leaves ({}) and spines ({}) must split evenly across {} pods",
        o.leaves,
        o.spines,
        o.pods
    );
    assert!(
        o.pods == 1 || o.fail.is_none(),
        "static link failure is a two-tier knob; use runtime fault schedules on three-tier fabrics"
    );
    assert!(o.pods > 1 || o.cores == 0, "core switches require pods > 1");
    let (leaves, spines) = (o.leaves / o.pods, o.spines / o.pods);
    let b = TopologyBuilder::three_tier(o.pods, leaves, spines, o.cores, o.hosts_per_leaf)
        .host_rate_gbps(o.host_gbps)
        .fabric_rate_gbps(o.fabric_gbps)
        .parallel_links(o.parallel);
    match o.fail {
        Some((l, s, p)) => b.fail_link(l, s, p),
        None => b,
    }
    .build()
}

/// A scheduled runtime link transition: fail (or recover) one link — both
/// simplex channels — at an absolute simulation time, at any tier (a
/// leaf–spine link, or a spine–core link of a three-tier fabric, the
/// CAFT-style core failure). Unlike [`TestbedOpts::fail`], which removes
/// the link before the run starts, these fire *mid-run* through the
/// engine's fault-injection path: queued and in-flight packets on a
/// failing link are blackholed and the FIB reconverges at the transition
/// instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkFaultSpec {
    /// When the transition fires.
    pub at: SimTime,
    /// The link that transitions.
    pub link: Link,
    /// `false` = fail, `true` = recover.
    pub up: bool,
}

impl LinkFaultSpec {
    /// Fail `link` at `at`.
    pub fn fail(at: SimTime, link: Link) -> Self {
        LinkFaultSpec {
            at,
            link,
            up: false,
        }
    }

    /// Recover `link` at `at`.
    pub fn recover(at: SimTime, link: Link) -> Self {
        LinkFaultSpec { at, link, up: true }
    }

    /// This transition as text, e.g. `fail@80000000ns:leaf1-spine1#0` or
    /// `fail@3000000ns:spine0-core0#0` — a report's `fault_schedule` entry
    /// and the cache key's.
    pub(crate) fn spec(&self) -> String {
        let LinkFaultSpec { at, link, up } = self;
        let what = if *up { "recover" } else { "fail" };
        format!("{what}@{}ns:{link}", at.as_nanos())
    }
}

/// A fault schedule as one comma-joined line.
fn schedule(faults: &[LinkFaultSpec]) -> String {
    faults
        .iter()
        .map(LinkFaultSpec::spec)
        .collect::<Vec<_>>()
        .join(",")
}

/// `tcp` as cache-key text (see [`FctRun::spec`] for the rule).
pub(crate) fn tcp_spec(tcp: &TcpConfig) -> String {
    let TcpConfig {
        mss,
        init_cwnd,
        min_rto,
        max_rto,
        dupack_thresh,
        max_burst,
        rwnd,
        cc,
    } = tcp;
    format!(
        "mss{mss} init_cwnd{init_cwnd} min_rto{}ns max_rto{}ns dupack{dupack_thresh} \
         max_burst{max_burst} rwnd{rwnd} cc:{}",
        min_rto.as_nanos(),
        max_rto.as_nanos(),
        cc.name()
    )
}

/// The former name of [`TraceConfig`], kept for `congabench`, which
/// names it.
pub type TraceSpec = TraceConfig;

/// An FCT experiment specification.
#[derive(Clone, Debug)]
pub struct FctRun {
    /// Topology options.
    pub topo: TestbedOpts,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Flow-size distribution.
    pub dist: FlowSizeDist,
    /// Offered load as a fraction of the *baseline* bisection bandwidth
    /// (the paper keeps the reference fixed when links fail).
    pub load: f64,
    /// Flows per direction.
    pub n_flows: usize,
    /// RNG seed.
    pub seed: u64,
    /// TCP parameters.
    pub tcp: TcpConfig,
    /// Congestion controller every flow runs (`tcp.with_cc(cc)` is what
    /// the cell runs, so `tcp.cc` is not read).
    pub cc: CcKind,
    /// ECN marking threshold in packets; `None` = the controller default
    /// ([`DCTCP_DEFAULT_ECN_PKTS`] for DCTCP, ECN off otherwise).
    pub ecn_threshold_pkts: Option<u32>,
    /// Enable 10 ms synchronous sampling of Leaf 0's uplinks (Figure 12) /
    /// queue statistics.
    pub sample_uplinks: bool,
    /// Runtime link fail/recover events at any tier, applied in order
    /// mid-run.
    pub faults: Vec<LinkFaultSpec>,
    /// Stream completed flows into the deterministic
    /// [`FctSketch`]/[`FctAccumulator`] pair instead of buffering one
    /// [`FctSample`] per flow for a collect-then-sort summary. Memory
    /// drops from O(completed flows) to O(sketch bins); percentiles come
    /// off bucket midpoints (within 1 % of exact — `tests/shards.rs`
    /// pins the differential). Off by default: every pre-existing figure
    /// keeps the exact path and its byte-identical goldens.
    pub sketch: bool,
    /// Structured event tracing (`None` = disabled; zero overhead).
    pub trace: Option<TraceConfig>,
    /// Future-event-list implementation. Purely a performance knob —
    /// both kinds are observationally identical (`tests/hotpath.rs`) —
    /// so it is deliberately *not* part of the cell's scenario hash.
    pub queue: QueueKind,
    /// Worker threads for the sharded engine, one leaf-group domain each.
    /// Purely a performance knob, exactly like `queue`: a run's bytes do
    /// not depend on how the fabric is partitioned, so it is deliberately
    /// *not* part of the cell's scenario hash. `tests/shards.rs` pins
    /// byte-identical artifacts across shard counts.
    pub shards: usize,
}

impl FctRun {
    /// Sensible defaults for a (scheme, load) cell.
    pub fn new(topo: TestbedOpts, scheme: Scheme, dist: FlowSizeDist, load: f64) -> Self {
        FctRun {
            topo,
            scheme,
            dist,
            load,
            n_flows: 2000,
            seed: 1,
            tcp: TcpConfig::standard(),
            cc: CcKind::Aimd,
            ecn_threshold_pkts: None,
            sample_uplinks: false,
            faults: Vec::new(),
            sketch: false,
            trace: None,
            // The calendar queue is the production default; the heap is
            // the reference implementation (tests/hotpath.rs proves the
            // two produce byte-identical artifacts).
            queue: QueueKind::Calendar,
            shards: 1,
        }
    }

    /// The ECN marking in force for this run, by [`ecn_marking`].
    pub(crate) fn ecn_marking(&self) -> Option<(u32, EcnConfig)> {
        ecn_marking(self.cc, self.ecn_threshold_pkts, self.tcp.mss)
    }

    /// The [`EcnConfig`] this run installs on every domain, if any.
    pub fn ecn_config(&self) -> Option<EcnConfig> {
        self.ecn_marking().map(|(_, ecn)| ecn)
    }

    /// This cell as cache-key text: one `key=value` line per field that
    /// reaches the simulation, defaults included — the text is the cell's
    /// identity, so nothing may be left out because it "usually" has one
    /// value. The destructuring is exhaustive on purpose: a field added
    /// later does not compile until it is rendered here or, like the three
    /// execution knobs that provably move no byte, bound to `_`.
    pub(crate) fn spec(&self) -> String {
        let FctRun {
            topo,
            scheme,
            dist,
            load,
            n_flows,
            seed,
            tcp,
            cc,
            ecn_threshold_pkts,
            sample_uplinks,
            faults,
            sketch,
            trace: _,
            queue: _,
            shards: _,
        } = self;
        // `{dist:?}` is the derive: the name and every CDF breakpoint. The
        // transport is the one the cell runs, `tcp` under `cc`.
        format!(
            "topo={}\nscheme={}\ndist={dist:?}\nload={load}\nn_flows={n_flows}\nseed={seed}\n\
             tcp={}\necn={}\nsample_uplinks={sample_uplinks}\nfaults={}\nsketch={sketch}\n",
            topo.spec(),
            scheme.name(),
            tcp_spec(&tcp.with_cc(*cc)),
            ecn_threshold_pkts.map_or("none".to_string(), |pkts| pkts.to_string()),
            schedule(faults),
        )
    }

    /// The hashable [`Scenario`] of this cell under `figure`/`label`. The
    /// spec already carries the fabric and flow count a `--quick` run
    /// shrank, so `--quick` and an explicit equal cell share one key.
    pub fn scenario(&self, figure: &str, label: &str) -> Scenario {
        Scenario::new("fct", figure, label, self.spec())
    }
}

/// The DCTCP marking threshold used when `--ecn-threshold` is not given:
/// 65 full-MSS packets, the K the paper's testbed uses for 10 G edges
/// (DCTCP paper §3; ~100 KB of queue).
pub const DCTCP_DEFAULT_ECN_PKTS: u32 = 65;

/// The ECN marking a run under `cc` installs: the `explicit` threshold if
/// given, else the controller's default ([`DCTCP_DEFAULT_ECN_PKTS`] for
/// DCTCP, marking off otherwise). Returned in packets and as the
/// [`EcnConfig`] that counts each packet as one MSS-sized wire packet.
pub(crate) fn ecn_marking(cc: CcKind, explicit: Option<u32>, mss: u32) -> Option<(u32, EcnConfig)> {
    let pkts = explicit.or(match cc {
        CcKind::Dctcp => Some(DCTCP_DEFAULT_ECN_PKTS),
        _ => None,
    })?;
    let threshold_bytes = pkts as u64 * (mss + WIRE_OVERHEAD) as u64;
    Some((pkts, EcnConfig { threshold_bytes }))
}

/// Stamp the controller a run used and its ECN marking, each only when it
/// is not the default (AIMD, marking off), so AIMD reports and their
/// goldens stay byte-identical.
pub(crate) fn stamp_cc(report: &mut RunReport, cc: CcKind, marking: Option<(u32, EcnConfig)>) {
    if cc != CcKind::Aimd {
        report.set_meta("cc", cc.name());
    }
    if let Some((pkts, _)) = marking {
        report.set_meta("ecn_threshold_pkts", pkts.to_string());
    }
}

/// What an FCT run produced.
#[derive(Clone, Debug)]
pub struct FctOutcome {
    /// The paper-format summary.
    pub summary: FctSummary,
    /// Total queue drops across the fabric.
    pub drops: u64,
    /// Total retransmitted bytes.
    pub retx_bytes: u64,
    /// Total RTO firings.
    pub timeouts: u64,
    /// The run-level telemetry artifact: every engine, port, dataplane and
    /// transport counter, plus the raw samples of leaf 0's uplinks
    /// (`port.NNNN.{queue_bytes,tx_bytes}`) when `sample_uplinks` was set,
    /// serializable to deterministic JSON.
    pub report: RunReport,
    /// Windowed time-series sampled on simulated-time boundaries (empty
    /// unless `sample_uplinks` was set): per-uplink queue depth and
    /// utilization, DRE estimates, flowlet occupancy, active flows, and
    /// the derived `imbalance.leaf0` (max−mean)/mean utilization series.
    /// Merged across shard domains by window — byte-identical for any
    /// `shards` value.
    pub series: SeriesRegistry,
    /// The trace recorder handle, if tracing was requested. Export with
    /// [`TraceHandle::export_jsonl`] / `export_chrome`.
    pub trace: Option<TraceHandle>,
    /// The streaming percentile sketch, when [`FctRun::sketch`] was set
    /// (`None` on the exact path). Its [`FctSketch::canonical`] form is
    /// byte-identical across `--shards` and merge orders.
    pub sketch: Option<FctSketch>,
}

/// Convert a [`PoissonPlan`] into a single time-ordered arrival list over
/// concrete hosts: group A = hosts under leaf 0, group B = hosts under
/// leaf 1 (clients under one leaf use servers under the other, §5.2).
pub fn merged_arrivals(
    plan: &PoissonPlan,
    group_a: &[HostId],
    group_b: &[HostId],
    kind_of: impl Fn(u64) -> TransportKind,
) -> Vec<(SimDuration, FlowSpec)> {
    // Each direction is in time order already: merge the two by absolute
    // time, forward first on a tie.
    let mut out = Vec::with_capacity(plan.forward.len() + plan.reverse.len());
    let (mut fwd, mut rev) = (
        plan.forward.iter().peekable(),
        plan.reverse.iter().peekable(),
    );
    // Absolute time of the last arrival taken from each direction, and of
    // the last one merged.
    let (mut tf, mut tr, mut prev) = (0u64, 0u64, 0u64);
    loop {
        let next_f = fwd.peek().map(|a| tf + a.gap.as_nanos());
        let next_r = rev.peek().map(|a| tr + a.gap.as_nanos());
        let reverse_first = match (next_f, next_r) {
            (None, None) => return out,
            (Some(f), Some(r)) => r < f,
            (f, _) => f.is_none(),
        };
        let (t, a, src, dst) = if reverse_first {
            tr = next_r.expect("reverse has the next arrival");
            (tr, rev.next().expect("peeked"), group_b, group_a)
        } else {
            tf = next_f.expect("forward has the next arrival");
            (tf, fwd.next().expect("peeked"), group_a, group_b)
        };
        let spec = FlowSpec {
            src: src[a.src as usize],
            dst: dst[a.dst as usize],
            bytes: a.bytes,
            kind: kind_of(a.bytes),
        };
        out.push((SimDuration::from_nanos(t - prev), spec));
        prev = t;
    }
}

/// Uniform all-to-all arrivals for fabrics with more than two leaves:
/// every flow goes from a random host to a random host under a *different*
/// leaf; the aggregate rate makes each leaf's uplinks `load` utilized in
/// expectation.
pub fn uniform_arrivals(
    dist: &FlowSizeDist,
    topo: &Topology,
    per_leaf_capacity: u64,
    load: f64,
    n_flows: usize,
    rng: &mut SimRng,
    kind: TransportKind,
) -> Vec<(SimDuration, FlowSpec)> {
    let total_rate = load * (per_leaf_capacity as f64) * topo.n_leaves as f64 / (8.0 * dist.mean());
    (0..n_flows)
        .map(|_| {
            let src = HostId(rng.below(topo.n_hosts as usize) as u32);
            let dst = loop {
                let d = HostId(rng.below(topo.n_hosts as usize) as u32);
                if topo.leaf_of(d) != topo.leaf_of(src) {
                    break d;
                }
            };
            (
                SimDuration::from_secs_f64(rng.exp(total_rate)),
                FlowSpec {
                    src,
                    dst,
                    bytes: dist.sample(rng),
                    kind,
                },
            )
        })
        .collect()
}

/// The RNG an FCT-style cell draws its workload from: a stream derived
/// from the cell seed, separate from the engine's own.
pub(crate) fn workload_rng(seed: u64) -> SimRng {
    SimRng::new(seed.wrapping_mul(0x9E37_79B9) ^ 0xC04A)
}

/// The leaf-to-leaf capacity offered load is a fraction of: leaf 0's
/// uplinks, bounded by the access capacity feeding them (matters for
/// shrunken `--quick` topologies).
pub(crate) fn leaf_capacity(topo: &Topology) -> u64 {
    topo.leaf_uplink_capacity(LeafId(0))
        .min(topo.access_capacity(LeafId(0)))
}

/// The open-loop arrival schedule of one cell on `opts`' fabric, in start
/// order and gap-encoded, plus its span in nanoseconds. `load` is
/// relative to the *baseline* (unfailed) [`leaf_capacity`] — the paper
/// keeps the reference fixed when links fail. Two-leaf fabrics get the
/// testbed pattern (`n_flows` per direction: clients under one leaf use
/// servers under the other), larger ones `2 × n_flows` uniform
/// all-to-all flows. The schedule is a pure function of the arguments
/// and the draws it takes from `rng`.
pub(crate) fn plan_arrivals(
    opts: TestbedOpts,
    dist: &FlowSizeDist,
    load: f64,
    n_flows: usize,
    kind: TransportKind,
    rng: &mut SimRng,
) -> (Vec<(SimDuration, FlowSpec)>, u64) {
    let base = build_testbed(TestbedOpts { fail: None, ..opts });
    let capacity = leaf_capacity(&base);
    let arrivals = if base.n_leaves == 2 {
        let group_a = base.hosts_under(LeafId(0));
        let group_b = base.hosts_under(LeafId(1));
        let plan = PoissonPlan::generate(
            dist,
            group_a.len() as u32,
            group_b.len() as u32,
            capacity,
            load,
            n_flows,
            rng,
        );
        merged_arrivals(&plan, &group_a, &group_b, |_| kind)
    } else {
        uniform_arrivals(dist, &base, capacity, load, n_flows * 2, rng, kind)
    };
    let span_ns = arrivals.iter().map(|(g, _)| g.as_nanos()).sum();
    (arrivals, span_ns)
}

/// Gap-encoded arrivals as absolute start times, converted in place (a
/// schedule is tens of megabytes at 200 k flows): the form
/// [`ShardedRun::new`] takes, which every domain registers flows from in
/// the same order, each as it arrives.
pub fn absolute_starts(arrivals: Vec<(SimDuration, FlowSpec)>) -> Vec<(SimTime, FlowSpec)> {
    let mut t = SimTime::from_nanos(0);
    arrivals
        .into_iter()
        .map(|(gap, spec)| {
            t += gap;
            (t, spec)
        })
        .collect()
}

/// A cell's engine settings: everything [`Engine::register`] installs in
/// every domain besides the fabric, the policy and the flows.
#[derive(Clone, Copy)]
pub(crate) struct Engine<'a> {
    /// Run seed; each node's random stream is forked from it.
    pub seed: u64,
    /// Worker threads (`--shards`).
    pub shards: usize,
    /// Future-event-list implementation.
    pub queue: QueueKind,
    /// ECN marking, by [`ecn_marking`].
    pub ecn: Option<EcnConfig>,
    /// Event tracing, if requested.
    pub trace: Option<&'a TraceConfig>,
    /// Runtime link transitions.
    pub faults: &'a [LinkFaultSpec],
}

impl Engine<'_> {
    /// The one registration step: a [`ShardedRun`] of `topo` under
    /// `policy` with `flows` scheduled, each to start at its time.
    pub(crate) fn register(
        self,
        topo: &Topology,
        policy: FabricPolicy,
        flows: &[(SimTime, FlowSpec)],
    ) -> ShardedRun {
        ShardedRun::new(
            topo,
            policy,
            self.seed,
            self.shards,
            self.queue,
            self.ecn,
            self.trace,
            self.faults,
            &[],
            flows,
        )
    }
}

/// A domain-decomposed simulation run: one [`conga_net::Network`] per
/// worker, each owning a contiguous group of leaves, coordinated by
/// [`ShardedNetwork`]'s conservative-window barrier. At one worker it is
/// the monolithic engine, one network over the whole fabric.
///
/// Every domain sees the identical configuration (queue kind, fault
/// schedule, flow schedule) so that replica state stays in lock-step;
/// channel ownership, read from the shared partition table, ensures each
/// metric is accumulated exactly once, which is what makes the counter-ADD
/// merge exact and the artifacts byte-identical for any worker count.
pub struct ShardedRun {
    /// The coordinated per-domain networks.
    pub net: ShardedNetwork<FabricPolicy, TransportLayer>,
    /// The flows every domain registers from as they arrive.
    schedule: Arc<Schedule>,
    tracer_parts: Vec<TraceHandle>,
    trace_cfg: Option<TraceConfig>,
}

impl ShardedRun {
    /// Build the per-domain networks: install the policy clone, queue kind,
    /// tracer, and fault schedule everywhere, and attach one shared copy of
    /// `arrivals` (start times must not decrease) to every domain. No flow
    /// is registered here: a domain registers flow `i`, and every flow
    /// before it so that ids align by position, when its start timer fires
    /// there (only in the sender's domain) or its first packet lands there.
    /// Each domain queues only its next start timer.
    ///
    /// `more_faults` is scheduled after `faults`. Every caller in this
    /// workspace passes `&[]`: the parameter only keeps the ten-argument
    /// signature that `congabench`'s stage-by-stage replay compiles
    /// against, and goes when that replay is rebuilt on `setup_fct`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        topo: &Topology,
        policy: FabricPolicy,
        seed: u64,
        shards: usize,
        queue: QueueKind,
        ecn: Option<EcnConfig>,
        trace: Option<&TraceConfig>,
        faults: &[LinkFaultSpec],
        more_faults: &[LinkFaultSpec],
        arrivals: &[(SimTime, FlowSpec)],
    ) -> Self {
        let trace_cfg = trace.cloned();
        let mut net = ShardedNetwork::partition(topo, seed, shards, queue, |_| {
            (policy.clone(), TransportLayer::new())
        });
        let schedule = Arc::new(Schedule::new(arrivals.iter().copied(), net.table()));
        let mut tracer_parts = Vec::new();
        net.each(|d, n| {
            // Every domain marks the enqueues it owns; installing the same
            // config everywhere keeps replicas in lock-step.
            if let Some(e) = ecn {
                n.set_ecn(e);
            }
            if let Some(cfg) = &trace_cfg {
                let h = TraceHandle::recording(cfg.clone());
                n.set_tracer(h.clone());
                tracer_parts.push(h);
            }
            for f in faults.iter().chain(more_faults) {
                n.schedule_link(f.at, f.link, f.up);
            }
            let schedule = Arc::clone(&schedule);
            n.agent_call(|a, _, em| a.attach_schedule(schedule, d, em));
        });
        ShardedRun {
            net,
            schedule,
            tracer_parts,
            trace_cfg,
        }
    }

    /// Register a flow mid-run, to start at `at` (not before
    /// [`ShardedNetwork::now`]); returns its id, which follows the
    /// schedule's. Every domain registers the rest of the schedule and
    /// then this flow, so ids stay aligned, and the sender's domain arms
    /// its start timer `at − now` ahead. Safe between `run_until` calls,
    /// which leave every domain's clock at the slice end and no mail in
    /// flight.
    pub fn start_flow(&mut self, at: SimTime, spec: FlowSpec) -> usize {
        assert!(at >= self.net.now(), "a flow cannot start in the past");
        let mut id = 0;
        let src_d = self.net.table().host_domain(spec.src);
        self.net.each(|d, n| {
            n.agent.register_schedule();
            let tx_local = d == src_d;
            id = n.agent.preregister(spec, at, tx_local);
            if tx_local {
                n.schedule_timer(at - n.now(), TransportLayer::start_token(id));
            }
        });
        id
    }

    /// The flows of the run's arrival list, registered or not.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Run 50 ms slices until `n` flows are fully received or the clock
    /// passes `bound`, calling `f` after every slice.
    pub fn run_until_received(&mut self, n: usize, bound: SimTime, mut f: impl FnMut(&mut Self)) {
        loop {
            let t = self.net.now() + SimDuration::from_millis(50);
            self.net.run_until(t);
            f(self);
            if self.completed_rx() >= n || self.net.now() >= bound {
                break;
            }
        }
    }

    /// Sample `channels` every `every`, each in the domain that owns its
    /// transmit side. Every other domain ticks on the same boundaries with
    /// nothing to sample: the dataplane/transport sampling hooks must fire
    /// on identical window boundaries in the domains that own their state,
    /// so the by-window series merge reproduces a monolithic run.
    pub(crate) fn sample(&mut self, channels: &[ChannelId], every: SimDuration) {
        let owner: Vec<usize> = channels.iter().map(|&c| self.net.tx_domain(c)).collect();
        self.net.each(|d, n| {
            let own = channels.iter().zip(&owner).filter(|&(_, &o)| o == d);
            n.enable_sampling(own.map(|(&c, _)| c).collect(), every);
        });
    }

    /// `ch`'s transmit port in the domain that owns it, where its counters
    /// live: the same port in any other domain reads 0.
    pub(crate) fn port_mut(&mut self, ch: ChannelId) -> &mut TxPort {
        let d = self.net.tx_domain(ch);
        self.net.domain_mut(d).port_mut(ch)
    }

    /// Flows fully received, summed across domains (each flow's receiver
    /// lives in exactly one domain, so the sum is exact).
    pub fn completed_rx(&self) -> usize {
        (0..self.net.n_domains())
            .map(|d| self.net.domain(d).agent.completed_rx)
            .sum()
    }

    /// Flow records with sender-side counters from the sender's domain and
    /// `rx_done` taken from the receiver's domain: the schedule's flows,
    /// then those [`Self::start_flow`] added (which every domain holds).
    /// The fabric argument is unused: it keeps the signature `congabench`'s
    /// stage-by-stage replay of [`run_fct`] compiles against.
    pub fn merged_records(&self, topo: &Topology) -> Vec<FlowRecord> {
        let n = self
            .schedule
            .len()
            .max(self.net.domain(0).agent.records.len());
        (0..n).map(|i| self.merged_record(topo, i)).collect()
    }

    /// The per-index form of [`Self::merged_records`]: one flow's record
    /// with `rx_done` merged from the receiver's domain. The completion
    /// drain uses this to consume completions incrementally without
    /// materializing the full record list. A flow that has not arrived
    /// yet reads as planned, with no `rx_done`. The fabric argument is
    /// unused, as in [`Self::merged_records`].
    pub fn merged_record(&self, _topo: &Topology, i: usize) -> FlowRecord {
        let known = |d: usize| self.net.domain(d).agent.records.get(i).copied();
        let planned = self.schedule.record(i).or_else(|| known(0));
        let planned = planned.expect("no such flow");
        let src_d = self.net.table().host_domain(planned.src);
        let dst_d = self.net.table().host_domain(planned.dst);
        let mut r = known(src_d).unwrap_or(planned);
        if dst_d != src_d {
            r.rx_done = known(dst_d).and_then(|r| r.rx_done);
        }
        r
    }

    /// Sum an [`conga_net::EngineStats`] counter across domains (ownership
    /// gating in the engine guarantees each event is counted in exactly one
    /// domain).
    pub fn stat(&self, f: impl Fn(&conga_net::EngineStats) -> u64) -> u64 {
        (0..self.net.n_domains())
            .map(|d| f(&self.net.domain(d).stats))
            .sum()
    }

    /// Total packet drops across domains.
    pub fn total_drops(&self) -> u64 {
        (0..self.net.n_domains())
            .map(|d| self.net.domain(d).total_drops())
            .sum()
    }

    /// The raw per-domain trace recorders (one per domain, empty when
    /// tracing is off) — the property battery inspects these for
    /// within-shard event ordering before any merge.
    pub fn trace_parts(&self) -> &[TraceHandle] {
        &self.tracer_parts
    }

    /// Deterministically merge the per-domain trace streams, if tracing was
    /// requested. Call after the run has finished.
    pub fn merged_trace(&self) -> Option<TraceHandle> {
        self.trace_cfg
            .as_ref()
            .map(|cfg| TraceHandle::merged(cfg.clone(), &self.tracer_parts))
    }
}

/// Run one FCT experiment cell to completion (or a generous drain bound).
pub fn run_fct(cfg: &FctRun) -> FctOutcome {
    run_fct_with_policy(cfg, cfg.scheme.policy())
}

/// The set-up every FCT-style cell shares: build `cfg`'s fabric, plan its
/// arrivals and register them in a [`ShardedRun`] under `policy`. Returns
/// the fabric, the run and the arrivals' span in nanoseconds.
pub(crate) fn setup_fct(cfg: &FctRun, policy: FabricPolicy) -> (Topology, ShardedRun, u64) {
    let topo = build_testbed(cfg.topo);
    let (arrivals, span_ns) = plan_arrivals(
        cfg.topo,
        &cfg.dist,
        cfg.load,
        cfg.n_flows,
        cfg.scheme.transport(cfg.tcp.with_cc(cfg.cc)),
        &mut workload_rng(cfg.seed),
    );
    // The arrival list lives until the run has made its compact schedule.
    let engine = Engine {
        seed: cfg.seed,
        shards: cfg.shards,
        queue: cfg.queue,
        ecn: cfg.ecn_config(),
        trace: cfg.trace.as_ref(),
        faults: &cfg.faults,
    };
    let run = engine.register(&topo, policy, &absolute_starts(arrivals));
    (topo, run, span_ns)
}

/// [`run_fct`] with an explicit fabric policy (for parameter ablations and
/// mixed-deployment experiments; the transport still follows `cfg.scheme`).
pub fn run_fct_with_policy(cfg: &FctRun, policy: FabricPolicy) -> FctOutcome {
    let (topo, mut run, span_ns) = setup_fct(cfg, policy);
    if cfg.sample_uplinks {
        let ups = run.net.domain(0).fib.leaf_uplinks[0].clone();
        run.sample(&ups, SimDuration::from_millis(10));
    }
    finish_fct(cfg, &topo, run, span_ns)
}

/// What every FCT-style cell does once [`setup_fct`] has registered it and
/// its sampling is armed: run until every flow completes (or the drain
/// bound), summarize the measured flows and build the report.
pub(crate) fn finish_fct(
    cfg: &FctRun,
    topo: &Topology,
    mut run: ShardedRun,
    span_ns: u64,
) -> FctOutcome {
    // Ideal FCT model parameters from the topology. Intra-leaf flows
    // traverse 2 hops, cross-leaf 4 (leaf–spine–leaf), inter-pod 6
    // (leaf–spine–core–spine–leaf); two-tier fabrics are one pod, so the
    // pre-existing 2/4 split — and every golden — is unchanged.
    let edge_bps = cfg.topo.host_gbps * 1_000_000_000;
    let mss = cfg.tcp.mss;
    let ideal_of = |r: &FlowRecord| {
        let (sl, dl) = (topo.leaf_of(r.src), topo.leaf_of(r.dst));
        let hops = if sl == dl {
            2
        } else if topo.pod_of_leaf(sl) != topo.pod_of_leaf(dl) {
            6
        } else {
            4
        };
        ideal_fct_s(r.bytes, edge_bps, hops, 2.5e-6, mss, WIRE_OVERHEAD)
    };
    // Only flows that start while the offered load is still arriving are
    // measured: flows arriving near or after the end of the Poisson window
    // would finish in a draining (emptying) fabric and dilute every
    // congestion effect. The last 30% of the window is the guard band.
    let measure_until = SimTime::from_nanos((span_ns as f64 * 0.7) as u64);

    // Run in slices until every flow completes (or the drain bound). Each
    // slice feeds the measured flows that completed in it to the sink in
    // flow-id order: the sketch streams them into its accumulators, the
    // exact sink keeps one sample per flow and sorts them by id at the end
    // — either way the float sums are taken in flow-id order.
    let total_flows = cfg.n_flows * 2;
    let drain_bound = SimTime::from_nanos(span_ns) + SimDuration::from_secs(8);
    let mut acc = FctAccumulator::new();
    let mut sk = FctSketch::new();
    let mut samples: Vec<(u32, FctSample)> = Vec::new();
    let mut done: Vec<u32> = Vec::new();
    run.run_until_received(total_flows, drain_bound, |run| {
        run.net
            .each(|_, n| done.extend(n.agent.drain_completions()));
        done.sort_unstable();
        for i in done.drain(..) {
            let r = run.merged_record(topo, i as usize);
            let Some(f) = r.fct().filter(|_| r.start <= measure_until) else {
                continue;
            };
            if cfg.sketch {
                acc.add(r.bytes, f.as_nanos(), ideal_of(&r));
                sk.add(f.as_secs_f64());
            } else {
                let sample = FctSample {
                    bytes: r.bytes,
                    fct_s: f.as_secs_f64(),
                    ideal_s: ideal_of(&r),
                };
                samples.push((i, sample));
            }
        }
    });

    // A flow inside the measure window that the drain never saw complete
    // missed the drain bound.
    let measured = run
        .schedule()
        .starts()
        .filter(|&t| t <= measure_until)
        .count();
    let summary = if cfg.sketch {
        for _ in acc.count()..measured as u64 {
            acc.add_incomplete();
        }
        acc.summary(&sk)
    } else {
        samples.sort_unstable_by_key(|&(i, _)| i);
        let samples: Vec<FctSample> = samples.into_iter().map(|(_, s)| s).collect();
        summarize(&samples, measured - samples.len())
    };

    // Sender-side counters are nonzero only in the sender's domain.
    let (retx_bytes, timeouts) = (0..run.net.n_domains())
        .flat_map(|d| &run.net.domain(d).agent.records)
        .fold((0, 0), |(b, t), r| (b + r.retx_bytes, t + r.timeouts));
    let mut report = fct_meta(
        cfg,
        conga_net::Dataplane::name(&run.net.domain(0).dataplane),
        run.net.now(),
    );
    run.net.export_metrics(&mut report.metrics);
    let mut series = run.net.export_series();
    if cfg.sample_uplinks {
        // The paper's Fig 12 imbalance score as a live observable:
        // (max − mean)/mean utilization over leaf 0's uplinks, per window.
        let inputs: Vec<String> = run.net.domain(0).fib.leaf_uplinks[0]
            .iter()
            .map(|c| format!("port.{:04}.util", c.idx()))
            .collect();
        series.derive("imbalance.leaf0", &inputs, |utils| {
            let mean = utils.iter().sum::<f64>() / utils.len() as f64;
            let max = utils.iter().cloned().fold(f64::MIN, f64::max);
            (mean > 0.0).then(|| (max - mean) / mean)
        });
    }
    let trace = run.merged_trace();
    FctOutcome {
        summary,
        drops: run.total_drops(),
        retx_bytes,
        timeouts,
        report,
        series,
        trace,
        sketch: cfg.sketch.then_some(sk),
    }
}

/// The configuration metadata of a finished FCT run's [`RunReport`],
/// shared between the monolithic and sharded paths; the caller adds every
/// counter the network exports. Pure function of the simulation state —
/// same seed, same bytes.
pub(crate) fn fct_meta(cfg: &FctRun, policy_name: &str, end: SimTime) -> RunReport {
    let mut report = RunReport::new();
    report.set_meta("scheme", cfg.scheme.name());
    report.set_meta("policy", policy_name);
    report.set_meta("seed", cfg.seed.to_string());
    report.set_meta("load", format!("{}", cfg.load));
    report.set_meta("n_flows", cfg.n_flows.to_string());
    stamp_cc(&mut report, cfg.cc, cfg.ecn_marking());
    // Two-tier fabrics keep the historical topology string (and their
    // byte-identical goldens); three-tier fabrics get an extended form
    // that names the pod structure and core tier.
    let t = &cfg.topo;
    let (pods, cores) = if t.pods > 1 {
        (format!("{}pods:", t.pods), format!("+{}cores", t.cores))
    } else {
        (String::new(), String::new())
    };
    let (l, s, h, p) = (t.leaves, t.spines, t.hosts_per_leaf, t.parallel);
    let (host, fabric) = (t.host_gbps, t.fabric_gbps);
    let shape = format!("{pods}{l}x{s}x{h}{cores}@{host}G/{fabric}G par{p}");
    report.set_meta("topology", shape);
    if cfg.sketch {
        report.set_meta("fct_aggregation", "sketch");
    }
    if let Some((l, s, p)) = cfg.topo.fail {
        report.set_meta("failed_link", format!("leaf{l}-spine{s}#{p}"));
    }
    if !cfg.faults.is_empty() {
        report.set_meta("fault_schedule", schedule(&cfg.faults));
    }
    report.set_meta("end_time_ns", end.as_nanos().to_string());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_matrix_is_consistent() {
        for s in Scheme::PAPER.into_iter().chain(Scheme::TOURNAMENT) {
            let _ = s.policy();
            let k = s.transport(TcpConfig::standard());
            match (s, k) {
                (Scheme::Mptcp, TransportKind::Mptcp(_)) => {}
                (Scheme::Mptcp, _) => panic!("MPTCP scheme must use MPTCP"),
                (_, TransportKind::Tcp(_)) => {}
                _ => panic!("TCP schemes must use TCP"),
            }
        }
        assert_eq!(Scheme::Conga.name(), "CONGA");
        // Tournament keys are unique snake_case identifiers (they key JSON
        // maps in results/tournament.json).
        let keys: Vec<&str> = Scheme::TOURNAMENT.iter().map(|s| s.key()).collect();
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "keys must be unique");
        for k in keys {
            assert!(
                k.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{k} must be snake_case"
            );
        }
    }

    #[test]
    fn testbed_opts_match_paper() {
        let t = build_testbed(TestbedOpts::paper_baseline());
        assert_eq!(t.n_hosts, 64);
        assert_eq!(t.leaf_uplink_capacity(LeafId(0)), 160_000_000_000);
        let f = build_testbed(TestbedOpts::paper_failure());
        assert_eq!(f.fib().leaf_uplinks[1].len(), 3);
    }

    #[test]
    fn merged_arrivals_are_time_ordered_and_complete() {
        let dist = FlowSizeDist::enterprise();
        let mut rng = SimRng::new(2);
        let plan = PoissonPlan::generate(&dist, 4, 4, 80_000_000_000, 0.5, 50, &mut rng);
        let a: Vec<HostId> = (0..4).map(HostId).collect();
        let b: Vec<HostId> = (4..8).map(HostId).collect();
        let merged = merged_arrivals(&plan, &a, &b, |_| TransportKind::Tcp(TcpConfig::standard()));
        assert_eq!(merged.len(), 100);
        // Forward flows go a->b, reverse b->a.
        for (_, spec) in &merged {
            let fwd = spec.src.0 < 4;
            if fwd {
                assert!(spec.dst.0 >= 4);
            } else {
                assert!(spec.dst.0 < 4);
            }
        }
    }

    /// The merge is the stable sort it replaced: both directions' gaps
    /// are summed to absolute times, sorted (forward first on a tie) and
    /// taken back to gaps. Ties are forced by zero gaps in both
    /// directions, and by equal sums.
    #[test]
    fn merged_arrivals_is_the_stable_sort_by_start() {
        let reference = |plan: &PoissonPlan, a: &[HostId], b: &[HostId]| {
            let mut abs: Vec<(u64, HostId, HostId, u64)> = Vec::new();
            for (list, (src, dst)) in [(&plan.forward, (a, b)), (&plan.reverse, (b, a))] {
                let mut t = 0;
                for x in list {
                    t += x.gap.as_nanos();
                    abs.push((t, src[x.src as usize], dst[x.dst as usize], x.bytes));
                }
            }
            abs.sort_by_key(|e| e.0);
            let mut prev = 0;
            abs.into_iter()
                .map(|(t, s, d, bytes)| {
                    let gap = t - prev;
                    prev = t;
                    format!("{gap} {} {} {bytes}", s.0, d.0)
                })
                .collect::<Vec<_>>()
        };
        let a: Vec<HostId> = (0..4).map(HostId).collect();
        let b: Vec<HostId> = (4..8).map(HostId).collect();
        let kind = TransportKind::Tcp(TcpConfig::standard());
        let mut rng = SimRng::new(11);
        let dist = FlowSizeDist::enterprise();
        for case in 0..40 {
            let mut plan = PoissonPlan::generate(&dist, 4, 4, 80_000_000_000, 0.5, 60, &mut rng);
            // Gaps of 0, 1 or 2 ns make ties within and across directions.
            for x in plan.forward.iter_mut().chain(&mut plan.reverse) {
                x.gap = SimDuration::from_nanos(rng.below(3) as u64);
            }
            // Some cases leave one direction short or empty.
            plan.reverse.truncate(case % 70);
            let got: Vec<String> = merged_arrivals(&plan, &a, &b, |_| kind)
                .iter()
                .map(|(g, f)| format!("{} {} {} {}", g.as_nanos(), f.src.0, f.dst.0, f.bytes))
                .collect();
            assert_eq!(got, reference(&plan, &a, &b), "case {case}");
        }
    }

    #[test]
    fn three_tier_testbed_builds_the_pod_structure() {
        let o = TestbedOpts::three_tier(2, 2, 2, 3, 4);
        assert_eq!((o.leaves, o.spines, o.pods, o.cores), (4, 4, 2, 3));
        let t = build_testbed(o);
        assert_eq!(t.n_hosts, 16);
        assert_eq!(t.n_pods, 2);
        assert_eq!(t.n_cores, 3);
        // Pod-local mesh only: each leaf sees its pod's 2 spines.
        assert_eq!(t.fib().leaf_uplinks[0].len(), 2);
    }

    #[test]
    fn small_three_tier_sketch_run_completes_all_flows() {
        let mut cfg = FctRun::new(
            TestbedOpts::three_tier(2, 2, 1, 2, 4),
            Scheme::Conga,
            FlowSizeDist::enterprise(),
            0.3,
        );
        cfg.n_flows = 30;
        cfg.sketch = true;
        let out = run_fct(&cfg);
        assert_eq!(out.summary.incomplete, 0);
        assert!(out.summary.avg_norm_optimal >= 1.0, "can't beat optimal");
        let sk = out.sketch.expect("sketch mode returns the sketch");
        assert_eq!(sk.count() as usize, out.summary.n);
        // Three-tier reports use the extended topology string and declare
        // the aggregation mode.
        let json = out.report.to_json();
        assert!(json.contains("2pods:4x2x4+2cores@10G/40G par1"), "{json}");
        assert!(json.contains("\"fct_aggregation\": \"sketch\""));
    }

    #[test]
    fn small_fct_run_completes_all_flows() {
        let mut cfg = FctRun::new(
            TestbedOpts::paper_baseline().quick(),
            Scheme::Conga,
            FlowSizeDist::enterprise(),
            0.3,
        );
        cfg.n_flows = 40;
        let out = run_fct(&cfg);
        // Flows arriving in the drain guard band (last 30% of the window)
        // are excluded from the summary.
        assert!(
            out.summary.n >= 40 && out.summary.n <= 80,
            "n = {}",
            out.summary.n
        );
        assert_eq!(out.summary.incomplete, 0);
        assert!(out.summary.avg_norm_optimal >= 1.0, "can't beat optimal");
    }

    #[test]
    fn plan_arrivals_reproduces_the_inline_planner() {
        // FNV-1a/64 over the rendered `(gap, FlowSpec)` list, and the span,
        // that the planner block inlined in `run_fct_with_policy` produced
        // at commit 750825e for these inputs — one per branch. Every
        // figure's schedule hangs off this function; not one arrival may
        // move.
        let render = |list: &[(SimDuration, FlowSpec)]| -> String {
            list.iter()
                .map(|(g, f)| {
                    format!(
                        "{} {} {} {} {:?}\n",
                        g.as_nanos(),
                        f.src.0,
                        f.dst.0,
                        f.bytes,
                        f.kind
                    )
                })
                .collect()
        };
        let fnv = |list: &[(SimDuration, FlowSpec)]| {
            conga_fleet::scenario::fnv1a64(render(list).as_bytes())
        };
        let tcp = TcpConfig::standard();

        let (testbed, span) = plan_arrivals(
            TestbedOpts::paper_failure().quick(),
            &FlowSizeDist::data_mining(),
            0.6,
            120,
            Scheme::Mptcp.transport(tcp),
            &mut workload_rng(7),
        );
        assert_eq!((testbed.len(), span), (240, 191_615_061));
        assert_eq!(fnv(&testbed), 0xabb4_6ae7_6bd4_6f33);

        let four_leaves = TestbedOpts {
            leaves: 4,
            spines: 4,
            hosts_per_leaf: 6,
            parallel: 1,
            ..TestbedOpts::paper_baseline()
        };
        let (uniform, span) = plan_arrivals(
            four_leaves,
            &FlowSizeDist::web_search(),
            0.4,
            90,
            Scheme::Conga.transport(tcp),
            &mut workload_rng(7),
        );
        assert_eq!((uniform.len(), span), (180, 22_555_825));
        assert_eq!(fnv(&uniform), 0x321b_1185_9590_4746);

        // Absolute starts are the running sum of the gaps.
        let first_gap = testbed[0].0.as_nanos();
        let starts = absolute_starts(testbed);
        assert_eq!(starts.len(), 240);
        assert_eq!(starts[0].0.as_nanos(), first_gap);
        assert_eq!(starts[239].0.as_nanos(), 191_615_061);
    }
}
