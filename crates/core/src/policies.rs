//! The baseline load-balancing schemes the paper compares against, each
//! reduced to what is its own over the shared [`Pipeline`], plus the
//! [`FabricPolicy`] enum that lets experiments swap schemes without generic
//! plumbing.
//!
//! * [`Ecmp`] — static per-flow hashing (the deployed default CONGA
//!   displaces).
//! * [`LocalAware`] — the §2.4 strawman: flowlet granularity but decisions
//!   from *local* DREs only. Provably mishandles asymmetry (Figure 2b).
//! * [`PacketSpray`] — per-packet round-robin (DRB-style); optimal balance,
//!   maximal reordering.
//! * [`WeightedRandom`] — oblivious routing with static topology-derived
//!   weights (§2.4's "can't handle traffic-matrix-dependent asymmetry").
//! * [`LetFlow`] — flowlet detection with uniform-random path choice; no
//!   congestion state at all (flowlet elasticity does the balancing).
//! * [`LatencyAware`] — per-uplink EWMA of observed one-way fabric latency
//!   with threshold-based exclusion, modeled on client-side latency-aware
//!   replica selection (scylla's `LatencyAwareness`).
//!
//! Candidate filtering, the empty-candidate and missing-overlay fallbacks,
//! flowlet bookkeeping, LBTag stamping and spine ECMP are the pipeline's;
//! nothing here repeats them.

use crate::conga::Conga;
use crate::params::CongaParams;
use crate::pipeline::{leaf_hash, Decision, LeafPolicy, Pipeline, Shared};
use conga_net::{
    ecmp_mix, ChannelId, Dataplane, Fib, LeafId, NodeId, Packet, SpineId, Topology, MAX_LBTAG,
};
use conga_sim::{SimDuration, SimRng, SimTime};
use conga_telemetry::{policy_series, MetricsRegistry, SeriesRegistry};

/// Static per-flow Equal-Cost Multi-Path hashing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ecmp;

impl LeafPolicy for Ecmp {
    const FLOWLETS: bool = false;
    const DRES: bool = false;

    fn choose(&mut self, _sh: &mut Shared, d: &Decision<'_>, _rng: &mut SimRng) -> ChannelId {
        leaf_hash(d.leaf, d.flow_hash, d.candidates)
    }
}

/// Flowlet-granularity load balancing using only *local* uplink DREs —
/// the paper's illustration of why global information is required. The
/// DREs see local load; CE is not stamped (that is CONGA's global
/// machinery).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalAware;

impl LeafPolicy for LocalAware {
    const FLOWLETS: bool = true;
    const DRES: bool = true;

    fn choose(&mut self, sh: &mut Shared, d: &Decision<'_>, rng: &mut SimRng) -> ChannelId {
        let mut best = u8::MAX;
        let mut ties: Vec<ChannelId> = Vec::with_capacity(d.candidates.len());
        for &u in d.candidates {
            let m = sh.dres.quantized(u, d.now);
            if m < best {
                best = m;
                ties.clear();
                ties.push(u);
            } else if m == best {
                ties.push(u);
            }
        }
        if let Some(p) = d.prev {
            if ties.contains(&p) {
                return p;
            }
        }
        *rng.choose(&ties)
    }
}

/// Advance a round-robin cursor over `candidates`.
fn rotate(cur: &mut usize, candidates: &[ChannelId]) -> ChannelId {
    let ch = candidates[*cur % candidates.len()];
    *cur = (*cur + 1) % candidates.len();
    ch
}

/// Per-packet round-robin spraying (in the spirit of DRB / packet-spray),
/// at the leaves and at the spines.
#[derive(Clone, Debug, Default)]
pub struct PacketSpray {
    /// Round-robin cursor per (leaf, dst leaf).
    leaf_rr: Vec<Vec<usize>>,
    /// Round-robin cursor per (spine, dst leaf).
    spine_rr: Vec<Vec<usize>>,
}

impl LeafPolicy for PacketSpray {
    const FLOWLETS: bool = false;
    const DRES: bool = false;

    fn install(&mut self, _params: &CongaParams, topo: &Topology, _fib: &Fib) {
        let nl = topo.n_leaves as usize;
        self.leaf_rr = vec![vec![0; nl]; nl];
        self.spine_rr = vec![vec![0; nl]; topo.n_spines as usize];
    }

    fn choose(&mut self, _sh: &mut Shared, d: &Decision<'_>, _rng: &mut SimRng) -> ChannelId {
        rotate(&mut self.leaf_rr[d.leaf.idx()][d.dst], d.candidates)
    }

    fn spine_pick(
        &mut self,
        spine: SpineId,
        dst: usize,
        candidates: &[ChannelId],
    ) -> Option<ChannelId> {
        Some(rotate(&mut self.spine_rr[spine.idx()][dst], candidates))
    }
}

/// Static weighted-random load balancing: per-flow choice with weights
/// proportional to each uplink's bottleneck path capacity. The best a
/// topology-aware but traffic-oblivious scheme can do (§2.4, Figure 3).
#[derive(Clone, Debug, Default)]
pub struct WeightedRandom {
    /// `weights[leaf][dst][i]` — cumulative weight of `up_candidates[leaf][dst][i]`.
    cum_weights: Vec<Vec<Vec<f64>>>,
}

impl WeightedRandom {
    /// Install-time cumulative weights (testing hook: the tournament's
    /// degraded-topology regression asserts these stay finite and monotone).
    pub fn cum_weights(&self) -> &[Vec<Vec<f64>>] {
        &self.cum_weights
    }
}

impl LeafPolicy for WeightedRandom {
    const FLOWLETS: bool = false;
    const DRES: bool = false;

    fn install(&mut self, _params: &CongaParams, topo: &Topology, fib: &Fib) {
        let nl = topo.n_leaves as usize;
        self.cum_weights = vec![vec![Vec::new(); nl]; nl];
        for l in 0..nl {
            for m in 0..nl {
                let cands = &fib.up_candidates[l][m];
                if cands.is_empty() {
                    continue;
                }
                let mut cum = 0.0;
                let mut v = Vec::with_capacity(cands.len());
                for &u in cands {
                    let up = topo.channel(u);
                    let NodeId::Spine(s) = up.dst else {
                        unreachable!()
                    };
                    // Capacity share through this uplink: bounded by the
                    // uplink itself and by a fair share of the spine's
                    // downlink capacity toward the destination.
                    let down: u64 = fib.spine_down[s.idx()][m]
                        .iter()
                        .map(|&d| topo.channel(d).rate_bps)
                        .sum();
                    let into_spine: u64 = fib.leaf_uplinks[l]
                        .iter()
                        .filter(|&&x| topo.channel(x).dst == up.dst)
                        .map(|&x| topo.channel(x).rate_bps)
                        .sum();
                    // A spine whose uplinks are all down (or zero-rate) at
                    // install time carries nothing: weight 0, keeping the
                    // entry aligned with its candidate instead of poisoning
                    // the cumulative sums with a 0/0 NaN.
                    let share = if into_spine == 0 {
                        0.0
                    } else {
                        down as f64 * up.rate_bps as f64 / into_spine as f64
                    };
                    let w = (up.rate_bps as f64).min(share);
                    cum += w;
                    v.push(cum);
                }
                self.cum_weights[l][m] = v;
            }
        }
    }

    fn choose(&mut self, _sh: &mut Shared, d: &Decision<'_>, _rng: &mut SimRng) -> ChannelId {
        let cum = &self.cum_weights[d.leaf.idx()][d.dst];
        let total = cum.last().copied().unwrap_or(0.0);
        // Weights are static (oblivious routing): a runtime link fault
        // changes the candidate list out from under them, and a fully
        // degraded destination has zero total weight. Fall back to plain
        // hashing in both cases — exactly the paper's point that oblivious
        // schemes cannot react.
        if cum.len() != d.candidates.len() || total <= 0.0 {
            return leaf_hash(d.leaf, d.flow_hash, d.candidates);
        }
        // Deterministic per-flow draw: hash to [0, total).
        let u = (ecmp_mix(d.flow_hash, 0x3EED) as f64 / u64::MAX as f64) * total;
        d.candidates[cum.partition_point(|&c| c <= u).min(cum.len() - 1)]
    }
}

/// LetFlow-style load balancing: flowlet detection exactly as in CONGA, but
/// the first packet of every flowlet (or one whose cached port can no
/// longer reach the destination) picks a *uniformly random* uplink — no
/// DREs, no feedback, no congestion state of any kind. The elasticity of
/// flowlet sizes (congested paths emit fewer, shorter flowlets) is the whole
/// balancing mechanism.
#[derive(Clone, Copy, Debug, Default)]
pub struct LetFlow {
    /// Flowlet decisions that drew a fresh uniform-random uplink.
    pub random_decisions: u64,
}

impl LeafPolicy for LetFlow {
    const FLOWLETS: bool = true;
    const DRES: bool = false;

    fn choose(&mut self, _sh: &mut Shared, d: &Decision<'_>, rng: &mut SimRng) -> ChannelId {
        self.random_decisions += 1;
        *rng.choose(d.candidates)
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter(
            &policy_series("letflow", "random_decisions"),
            self.random_decisions,
        );
    }
}

/// Parameters for [`LatencyAware`], fabric-scaled from the scylla driver's
/// `LatencyAwareness` defaults (`exclusion_threshold` 2.0, `retry_period`
/// 10 s, `scale` 100 ms, `minimum_measurements` 50): datacenter fabric
/// latencies sit ~5 orders of magnitude below the wide-area RTTs those
/// defaults target, so the time constants shrink to flowlet scale while the
/// dimensionless threshold carries over unchanged.
#[derive(Clone, Copy, Debug)]
pub struct LatencyAwareParams {
    /// An uplink is excluded when its latency EWMA exceeds
    /// `exclusion_threshold ×` the best measured candidate's EWMA.
    pub exclusion_threshold: f64,
    /// An excluded uplink is re-probed with one flowlet every
    /// `retry_period`, so a recovered path can rejoin the rotation.
    pub retry_period: SimDuration,
    /// EWMA time scale: a sample arriving `dt` after the previous one
    /// carries weight `1 − exp(−dt / scale)`.
    pub scale: SimDuration,
    /// Below this many samples a path is "unmeasured": it is never
    /// excluded, and until at least one candidate is measured the decision
    /// degrades to ECMP hashing (warmup).
    pub min_measurements: u64,
    /// Flowlet detection parameters (same machinery as CONGA).
    pub flowlet: CongaParams,
}

impl LatencyAwareParams {
    /// Defaults scaled for an intra-datacenter fabric.
    pub fn fabric_default() -> Self {
        LatencyAwareParams {
            exclusion_threshold: 2.0,
            retry_period: SimDuration::from_micros(500),
            scale: SimDuration::from_micros(100),
            min_measurements: 20,
            flowlet: CongaParams::paper_default(),
        }
    }
}

impl Default for LatencyAwareParams {
    fn default() -> Self {
        Self::fabric_default()
    }
}

/// One EWMA cell: the observed one-way fabric latency of a (destination
/// leaf, source uplink LBTag) path.
#[derive(Clone, Copy, Debug, Default)]
struct LatCell {
    ewma_ns: f64,
    count: u64,
    last: SimTime,
    next_retry: SimTime,
}

/// Latency-aware flowlet load balancing. The source leaf stamps an ingress
/// timestamp into the overlay; the destination leaf measures the one-way
/// fabric latency at decapsulation and piggybacks one `(LBTag, latency)`
/// feedback entry on reverse traffic — structurally the CONGA feedback loop
/// with latency EWMAs in place of quantized DRE metrics. Decisions exclude
/// uplinks whose EWMA exceeds a multiple of the best candidate's, choose
/// uniformly among the rest, and periodically re-probe excluded paths.
#[derive(Clone, Debug)]
pub struct LatencyAware {
    /// Parameters (public so experiments can report them).
    pub params: LatencyAwareParams,
    n_leaves: usize,
    /// Per source leaf: EWMA cells indexed `dst_leaf * MAX_LBTAG + lbtag`.
    to_leaf: Vec<Vec<LatCell>>,
    /// Per destination leaf: pending one-way samples awaiting piggyback,
    /// indexed `src_leaf * MAX_LBTAG + lbtag`.
    pending: Vec<Vec<Option<u64>>>,
    /// Per leaf: round-robin piggyback cursor per peer leaf.
    cursor: Vec<Vec<u8>>,
    /// Decisions made below the measurement warmup (ECMP hashing).
    pub warmup_decisions: u64,
    /// Candidate exclusions applied (EWMA over the threshold).
    pub excluded: u64,
    /// Re-probes of excluded uplinks after the retry period.
    pub probes: u64,
    /// Latency samples folded into EWMAs.
    pub samples: u64,
}

impl LatencyAware {
    /// Latency-aware policy with the given parameters.
    pub fn new(params: LatencyAwareParams) -> Self {
        LatencyAware {
            params,
            n_leaves: 0,
            to_leaf: Vec::new(),
            pending: Vec::new(),
            cursor: Vec::new(),
            warmup_decisions: 0,
            excluded: 0,
            probes: 0,
            samples: 0,
        }
    }

    /// Pop the next pending latency sample this leaf owes `peer`, round-robin
    /// across that peer's LBTags so every path's measurement gets through.
    fn take_pending(&mut self, leaf: usize, peer: usize) -> Option<(u8, u64)> {
        let start = self.cursor[leaf][peer] as usize;
        for k in 0..MAX_LBTAG {
            let tag = (start + k) % MAX_LBTAG;
            if let Some(delay) = self.pending[leaf][peer * MAX_LBTAG + tag].take() {
                self.cursor[leaf][peer] = ((tag + 1) % MAX_LBTAG) as u8;
                return Some((tag as u8, delay));
            }
        }
        None
    }

    /// Fold a feedback sample into the (peer, tag) EWMA cell of `leaf`.
    fn observe(&mut self, leaf: usize, peer: usize, tag: u8, sample_ns: u64, now: SimTime) {
        let cell = &mut self.to_leaf[leaf][peer * MAX_LBTAG + tag as usize];
        let s = sample_ns as f64;
        if cell.count == 0 {
            cell.ewma_ns = s;
        } else {
            let dt = now.saturating_since(cell.last).as_secs_f64();
            let w = (-dt / self.params.scale.as_secs_f64()).exp();
            cell.ewma_ns = cell.ewma_ns * w + s * (1.0 - w);
        }
        cell.count += 1;
        cell.last = now;
        self.samples += 1;
    }
}

impl LeafPolicy for LatencyAware {
    const FLOWLETS: bool = true;
    const DRES: bool = false;

    fn install(&mut self, _params: &CongaParams, topo: &Topology, _fib: &Fib) {
        let nl = topo.n_leaves as usize;
        self.n_leaves = nl;
        self.to_leaf = vec![vec![LatCell::default(); nl * MAX_LBTAG]; nl];
        self.pending = vec![vec![None; nl * MAX_LBTAG]; nl];
        self.cursor = vec![vec![0; nl]; nl];
    }

    /// Piggyback one pending latency sample for the destination leaf (the
    /// latency analogue of CONGA §3.3 step 4) and timestamp the departure.
    fn stamp(&mut self, _sh: &Shared, leaf: LeafId, dst: usize, pkt: &mut Packet, now: SimTime) {
        let Some(o) = pkt.overlay.as_mut() else {
            return;
        };
        if dst < self.n_leaves {
            if let Some(fb) = self.take_pending(leaf.idx(), dst) {
                o.lat_fb = Some(fb);
            }
        }
        o.lat_sent = Some(now);
    }

    /// Pick an uplink toward `d.dst`: warmup-hash until any candidate is
    /// measured, otherwise reservoir-uniform over the non-excluded set.
    fn choose(&mut self, sh: &mut Shared, d: &Decision<'_>, rng: &mut SimRng) -> ChannelId {
        let (leaf, now) = (d.leaf.idx(), d.now);
        let min_n = self.params.min_measurements;
        let cell_of = |u: ChannelId| d.dst * MAX_LBTAG + sh.lbtag_of[u.idx()] as usize;
        // Best (lowest) EWMA among candidates with enough measurements.
        let mut best: Option<f64> = None;
        for &u in d.candidates {
            let c = self.to_leaf[leaf][cell_of(u)];
            if c.count >= min_n {
                best = Some(best.map_or(c.ewma_ns, |b: f64| b.min(c.ewma_ns)));
            }
        }
        let Some(best) = best else {
            // Warmup: nothing trustworthy to compare yet. Hash like ECMP —
            // deterministic and rng-free, so the warmup phase consumes no
            // randomness.
            self.warmup_decisions += 1;
            return leaf_hash(d.leaf, d.flow_hash, d.candidates);
        };
        let threshold = best * self.params.exclusion_threshold;
        let mut pick = d.candidates[0];
        let mut included = 0usize;
        let mut prev_in = false;
        for &u in d.candidates {
            let idx = cell_of(u);
            let c = self.to_leaf[leaf][idx];
            let include = if c.count < min_n || c.ewma_ns <= threshold {
                true
            } else if now >= c.next_retry {
                // Probe: let one flowlet through an excluded uplink so a
                // recovered path can prove itself again.
                self.to_leaf[leaf][idx].next_retry = now.saturating_add(self.params.retry_period);
                self.probes += 1;
                true
            } else {
                self.excluded += 1;
                false
            };
            if include {
                included += 1;
                // Single-pass reservoir: uniform over the included set.
                if rng.below(included) == 0 {
                    pick = u;
                }
                prev_in |= d.prev == Some(u);
            }
        }
        // Stay put when the previous port is still acceptable: flowlet
        // moves only need to happen off excluded paths.
        if prev_in {
            if let Some(p) = d.prev {
                return p;
            }
        }
        pick
    }

    fn leaf_egress(&mut self, _sh: &Shared, leaf: LeafId, pkt: &Packet, now: SimTime) {
        let Some(o) = pkt.overlay.as_ref() else {
            return;
        };
        let d = leaf.idx();
        let src = o.src_tep.idx();
        if d >= self.n_leaves || src >= self.n_leaves {
            return;
        }
        // Measure the one-way fabric latency of the (src uplink = LBTag)
        // path; the freshest sample per path wins the piggyback slot.
        if let Some(sent) = o.lat_sent {
            let delay = now.saturating_since(sent).as_nanos();
            if (o.lbtag as usize) < MAX_LBTAG {
                self.pending[d][src * MAX_LBTAG + o.lbtag as usize] = Some(delay);
            }
        }
        // Harvest piggybacked feedback into this leaf's own EWMA table:
        // `(tag, delay)` describes *our* uplink `tag` toward `src`.
        if let Some((tag, delay)) = o.lat_fb {
            if (tag as usize) < MAX_LBTAG {
                self.observe(d, src, tag, delay, now);
            }
        }
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter(&policy_series("latency", "samples"), self.samples);
        reg.set_counter(
            &policy_series("latency", "warmup_decisions"),
            self.warmup_decisions,
        );
        reg.set_counter(&policy_series("latency", "excluded"), self.excluded);
        reg.set_counter(&policy_series("latency", "probes"), self.probes);
    }
}

/// One row of [`FabricPolicy::zoo`]: a stable key and a constructor.
pub type ZooEntry = (&'static str, fn() -> FabricPolicy);

/// Any of the fabric load-balancing schemes, behind one concrete type so the
/// engine stays monomorphic (`Network<FabricPolicy, _>`).
#[derive(Clone, Debug)]
pub enum FabricPolicy {
    /// Static per-flow hashing.
    Ecmp(Pipeline<Ecmp>),
    /// CONGA, CONGA-Flow or an incremental CONGA rollout, depending on
    /// parameters.
    Conga(Box<Conga>),
    /// Local-DRE-only strawman.
    Local(Pipeline<LocalAware>),
    /// Per-packet round-robin.
    Spray(Pipeline<PacketSpray>),
    /// Static weighted random.
    Weighted(Pipeline<WeightedRandom>),
    /// Flowlet switching with uniform-random choice (LetFlow).
    LetFlow(Pipeline<LetFlow>),
    /// Latency-EWMA exclusion (scylla-style latency awareness).
    LatencyAware(Box<Pipeline<LatencyAware>>),
}

/// A baseline pipeline with the paper's default flowlet/DRE parameters.
fn baseline<P: LeafPolicy>(label: &'static str, policy: P) -> Pipeline<P> {
    Pipeline::with(label, CongaParams::paper_default(), policy)
}

impl FabricPolicy {
    /// ECMP baseline.
    pub fn ecmp() -> Self {
        FabricPolicy::Ecmp(baseline("ecmp", Ecmp))
    }
    /// CONGA with the paper's default parameters.
    pub fn conga() -> Self {
        Self::conga_with(CongaParams::paper_default())
    }
    /// CONGA with custom parameters.
    pub fn conga_with(params: CongaParams) -> Self {
        FabricPolicy::Conga(Box::new(Conga::new(params)))
    }
    /// CONGA-Flow (13 ms flowlet timeout — one decision per flow).
    pub fn conga_flow() -> Self {
        FabricPolicy::Conga(Box::new(Conga::conga_flow()))
    }
    /// Local congestion-aware strawman, with CONGA's flowlet/DRE parameters.
    pub fn local() -> Self {
        FabricPolicy::Local(baseline("local", LocalAware))
    }
    /// Per-packet round-robin spray.
    pub fn spray() -> Self {
        FabricPolicy::Spray(baseline("spray", PacketSpray::default()))
    }
    /// Weighted-random oblivious routing.
    pub fn weighted() -> Self {
        FabricPolicy::Weighted(baseline("weighted", WeightedRandom::default()))
    }
    /// LetFlow with CONGA's flowlet parameters (only `tfl`,
    /// `flowlet_entries` and `gap_mode` are consulted).
    pub fn letflow() -> Self {
        FabricPolicy::LetFlow(baseline("letflow", LetFlow::default()))
    }
    /// Latency-aware EWMA exclusion with fabric-scaled defaults.
    pub fn latency_aware() -> Self {
        let p = LatencyAwareParams::fabric_default();
        FabricPolicy::LatencyAware(Box::new(Pipeline::with(
            "latency-aware",
            p.flowlet,
            LatencyAware::new(p),
        )))
    }

    /// CONGA on the flagged leaves only, ECMP on the rest (paper §7).
    pub fn incremental(conga_leaves: Vec<bool>) -> Self {
        let p = CongaParams::paper_default();
        FabricPolicy::Conga(Box::new(Conga::incremental(p, conga_leaves)))
    }

    /// Every shipped policy by stable key and constructor: the eight
    /// tournament policies plus an incremental rollout on a two-leaf
    /// fabric. The one table every "for each policy" test iterates, so a
    /// new policy cannot be left out of a determinism, conservation or
    /// observability battery by forgetting a hand-kept list.
    pub fn zoo() -> [ZooEntry; 9] {
        [
            ("ecmp", FabricPolicy::ecmp),
            ("conga", FabricPolicy::conga),
            ("conga_flow", FabricPolicy::conga_flow),
            ("local", FabricPolicy::local),
            ("spray", FabricPolicy::spray),
            ("weighted", FabricPolicy::weighted),
            ("letflow", FabricPolicy::letflow),
            ("latency_aware", FabricPolicy::latency_aware),
            ("incremental", || {
                FabricPolicy::incremental(vec![true, false])
            }),
        ]
    }

    /// Access the inner CONGA state, if this policy is CONGA.
    pub fn as_conga(&self) -> Option<&Conga> {
        match self {
            FabricPolicy::Conga(c) => Some(c),
            _ => None,
        }
    }
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            FabricPolicy::Ecmp($inner) => $body,
            FabricPolicy::Conga($inner) => $body,
            FabricPolicy::Local($inner) => $body,
            FabricPolicy::Spray($inner) => $body,
            FabricPolicy::Weighted($inner) => $body,
            FabricPolicy::LetFlow($inner) => $body,
            FabricPolicy::LatencyAware($inner) => $body,
        }
    };
}

impl Dataplane for FabricPolicy {
    fn install(&mut self, topo: &Topology, fib: &Fib) {
        delegate!(self, p => p.install(topo, fib))
    }
    fn leaf_ingress(
        &mut self,
        leaf: LeafId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        delegate!(self, p => p.leaf_ingress(leaf, pkt, candidates, now, rng))
    }
    fn spine_forward(
        &mut self,
        spine: SpineId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        delegate!(self, p => p.spine_forward(spine, pkt, candidates, now, rng))
    }
    fn on_fabric_tx(&mut self, ch: ChannelId, pkt: &mut Packet, now: SimTime) {
        delegate!(self, p => p.on_fabric_tx(ch, pkt, now))
    }
    fn leaf_egress(&mut self, leaf: LeafId, pkt: &Packet, now: SimTime) {
        delegate!(self, p => p.leaf_egress(leaf, pkt, now))
    }
    fn name(&self) -> &'static str {
        delegate!(self, p => p.name())
    }
    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        delegate!(self, p => p.export_metrics(reg))
    }
    fn sample_series(&mut self, now: SimTime, out: &mut SeriesRegistry) {
        delegate!(self, p => p.sample_series(now, out))
    }
    fn set_tracer(&mut self, tracer: conga_trace::TraceHandle) {
        delegate!(self, p => p.set_tracer(tracer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conga_net::{HostId, LeafSpineBuilder, Overlay};

    fn letflow() -> Pipeline<LetFlow> {
        baseline("letflow", LetFlow::default())
    }

    fn latency_aware() -> Pipeline<LatencyAware> {
        let p = LatencyAwareParams::fabric_default();
        Pipeline::with("latency-aware", p.flowlet, LatencyAware::new(p))
    }

    fn weighted() -> Pipeline<WeightedRandom> {
        baseline("weighted", WeightedRandom::default())
    }

    fn setup<P: Dataplane>(mut p: P) -> (Topology, Fib, P) {
        let topo = LeafSpineBuilder::new(2, 2, 2).parallel_links(2).build();
        let fib = topo.fib();
        p.install(&topo, &fib);
        (topo, fib, p)
    }

    fn fabric_pkt(flow_hash: u64) -> Packet {
        let mut p = Packet::data(
            0,
            0,
            flow_hash,
            HostId(0),
            HostId(2),
            0,
            1460,
            SimTime::ZERO,
        );
        p.overlay = Some(Overlay::new(LeafId(0), LeafId(1)));
        p
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_spreads_across_flows() {
        let (_t, fib, mut e) = setup(FabricPolicy::ecmp());
        let mut rng = SimRng::new(1);
        let cands = fib.up_candidates[0][1].clone();
        let mut counts = vec![0usize; cands.len()];
        for f in 0..4000u64 {
            let h = ecmp_mix(f, 99);
            let c1 = e.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(h),
                &cands,
                SimTime::ZERO,
                &mut rng,
            );
            let c2 = e.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(h),
                &cands,
                SimTime::ZERO,
                &mut rng,
            );
            assert_eq!(c1, c2, "same flow must always hash to the same path");
            counts[cands.iter().position(|&x| x == c1).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..=1200).contains(&c), "uplink {i} got {c}/4000 flows");
        }
    }

    #[test]
    fn spray_round_robins_per_packet() {
        let (_t, fib, mut s) = setup(FabricPolicy::spray());
        let mut rng = SimRng::new(2);
        let cands = fib.up_candidates[0][1].clone();
        let picks: Vec<ChannelId> = (0..8)
            .map(|_| {
                s.leaf_ingress(
                    LeafId(0),
                    &mut fabric_pkt(7),
                    &cands,
                    SimTime::ZERO,
                    &mut rng,
                )
            })
            .collect();
        // Perfect rotation: every candidate appears exactly twice in 8 picks.
        for &c in &cands {
            assert_eq!(picks.iter().filter(|&&x| x == c).count(), 2);
        }
        // And consecutive picks differ (maximal reordering).
        assert_ne!(picks[0], picks[1]);
    }

    #[test]
    fn local_aware_prefers_idle_uplink() {
        let (_t, fib, mut p) = setup(FabricPolicy::local());
        let mut rng = SimRng::new(3);
        let cands = fib.up_candidates[0][1].clone();
        let now = SimTime::from_micros(10);
        // Saturate all but candidate 1.
        for (i, &u) in cands.iter().enumerate() {
            if i == 1 {
                continue;
            }
            for _ in 0..10_000 {
                p.on_fabric_tx(u, &mut fabric_pkt(1), now);
            }
        }
        for f in 0..10u64 {
            let ch = p.leaf_ingress(LeafId(0), &mut fabric_pkt(100 + f), &cands, now, &mut rng);
            assert_eq!(ch, cands[1], "flow {f}");
        }
    }

    #[test]
    fn weighted_random_splits_by_capacity() {
        // Figure 2 topology: single links, lower path at half rate.
        let topo = LeafSpineBuilder::new(2, 2, 2)
            .fabric_rate_gbps(80)
            .parallel_links(1)
            .override_link_rate_gbps(1, 1, 0, 40)
            .build();
        let fib = topo.fib();
        let mut w = weighted();
        w.install(&topo, &fib);
        let mut rng = SimRng::new(4);
        let cands = fib.up_candidates[0][1].clone();
        let mut counts = vec![0usize; cands.len()];
        for f in 0..30_000u64 {
            let mut pkt = fabric_pkt(ecmp_mix(f, 5));
            let ch = w.leaf_ingress(LeafId(0), &mut pkt, &cands, SimTime::ZERO, &mut rng);
            counts[cands.iter().position(|&x| x == ch).unwrap()] += 1;
        }
        // Uplink to spine0 (80G path) should carry ~2/3; to spine1 ~1/3.
        let to_s0 = counts[0] as f64 / 30_000.0;
        assert!(
            (to_s0 - 2.0 / 3.0).abs() < 0.03,
            "80G-path share {to_s0}, expected ~0.667"
        );
    }

    #[test]
    fn degraded_inputs_get_a_deterministic_channel_and_touch_no_state() {
        // One row set per policy, for the two inputs the engine never
        // produces but a direct caller (or a FIB rebuild racing a total
        // uplink failure) can: a packet without an overlay, and an empty
        // candidate slice — each at a leaf and at a spine. The packet must
        // get a valid, repeatable channel and leave every piece of state
        // alone: counters (flowlet stats included), the spray cursors and
        // the RNG stream.
        for (name, mk) in FabricPolicy::zoo() {
            let (topo, fib, mut p) = setup(mk());
            let metrics = |p: &FabricPolicy| {
                let mut reg = MetricsRegistry::new();
                p.export_metrics(&mut reg);
                reg
            };
            let before = metrics(&p);
            let mut rng = SimRng::new(10);
            let mut untouched = rng.clone();
            let bare = |flow_hash: u64| {
                let mut pkt = fabric_pkt(flow_hash);
                pkt.overlay = None;
                pkt
            };
            let (ups, downs) = (&fib.up_candidates[0][1], &fib.spine_down[0][1]);

            // Bare packet: a valid candidate, identical on repeat, and the
            // header is not conjured.
            let mut pkt = bare(ecmp_mix(42, 99));
            let c1 = p.leaf_ingress(LeafId(0), &mut pkt, ups, SimTime::ZERO, &mut rng);
            let c2 = p.leaf_ingress(LeafId(0), &mut pkt, ups, SimTime::ZERO, &mut rng);
            assert!(ups.contains(&c1), "{name}: bare leaf pick not a candidate");
            assert_eq!(c1, c2, "{name}: bare leaf pick not repeatable");
            assert!(pkt.overlay.is_none(), "{name}: overlay appeared");
            let s1 = p.spine_forward(SpineId(0), &mut pkt, downs, SimTime::ZERO, &mut rng);
            let s2 = p.spine_forward(SpineId(0), &mut pkt, downs, SimTime::ZERO, &mut rng);
            assert!(
                downs.contains(&s1),
                "{name}: bare spine pick not a candidate"
            );
            assert_eq!(s1, s2, "{name}: bare spine pick not repeatable");

            // Empty slice: the fallback channel rooted at the asking node,
            // whatever the flow — the engine blackhole-accounts downstream.
            let a = p.leaf_ingress(LeafId(0), &mut fabric_pkt(1), &[], SimTime::ZERO, &mut rng);
            let b = p.leaf_ingress(LeafId(0), &mut fabric_pkt(2), &[], SimTime::ZERO, &mut rng);
            assert_eq!(a, b, "{name}: leaf fallback must be deterministic");
            assert_eq!(
                topo.channel(a).src,
                NodeId::Leaf(LeafId(0)),
                "{name}: leaf fallback must leave the asking leaf"
            );
            let s = p.spine_forward(SpineId(1), &mut fabric_pkt(3), &[], SimTime::ZERO, &mut rng);
            let r = p.spine_forward(SpineId(1), &mut fabric_pkt(4), &[], SimTime::ZERO, &mut rng);
            assert_eq!(s, r, "{name}: spine fallback must be deterministic");
            assert_eq!(
                topo.channel(s).src,
                NodeId::Spine(SpineId(1)),
                "{name}: spine fallback must leave the asking spine"
            );

            // No state touched.
            assert_eq!(metrics(&p), before, "{name}: a counter moved");
            assert_eq!(rng.u64(), untouched.u64(), "{name}: the RNG was drawn from");
            let mut first = fabric_pkt(ecmp_mix(42, 99));
            let with = p.leaf_ingress(LeafId(0), &mut first, ups, SimTime::ZERO, &mut rng);
            match name {
                // Overlay presence must not change the hash choice.
                "ecmp" => assert_eq!(with, c1, "ecmp: overlay changed the hash"),
                // The first overlay packets start both rotations at
                // candidate 0, as if the degraded ones never happened.
                "spray" => {
                    assert_eq!(with, ups[0], "spray: leaf cursor moved");
                    let at_spine =
                        p.spine_forward(SpineId(0), &mut first, downs, SimTime::ZERO, &mut rng);
                    assert_eq!(at_spine, downs[0], "spray: spine cursor moved");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn weighted_cum_weights_finite_and_monotone_on_degraded_topology() {
        // Regression: a spine whose every uplink from a leaf is zero-rate
        // made `into_spine == 0`, and the 0/0 division seeded NaN into the
        // cumulative weights, silently skewing all later draws.
        let topo = LeafSpineBuilder::new(2, 2, 2)
            .parallel_links(1)
            .override_link_rate_gbps(0, 1, 0, 0)
            .build();
        let fib = topo.fib();
        let mut w = weighted();
        w.install(&topo, &fib);
        for (l, per_dst) in w.policy.cum_weights().iter().enumerate() {
            for (m, cum) in per_dst.iter().enumerate() {
                let mut prev = 0.0f64;
                for (i, &c) in cum.iter().enumerate() {
                    assert!(c.is_finite(), "cum_weights[{l}][{m}][{i}] = {c}");
                    assert!(c >= prev, "cum_weights[{l}][{m}] not monotone at {i}");
                    prev = c;
                }
            }
        }
        // And the degraded leaf still picks valid candidates.
        let mut rng = SimRng::new(11);
        let cands = fib.up_candidates[0][1].clone();
        for f in 0..200u64 {
            let ch = w.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(ecmp_mix(f, 3)),
                &cands,
                SimTime::ZERO,
                &mut rng,
            );
            assert!(cands.contains(&ch));
        }
    }

    #[test]
    fn letflow_spreads_new_flowlets_uniformly() {
        // Mirrors the CONGA reservoir uniformity test: every distinct flow
        // opens a fresh flowlet, and LetFlow must choose uniformly.
        let (_t, fib, mut lf) = setup(letflow());
        let mut rng = SimRng::new(12);
        let cands = fib.up_candidates[0][1].clone();
        let rounds = 8000usize;
        let mut counts = vec![0usize; cands.len()];
        for f in 0..rounds as u64 {
            let ch = lf.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(ecmp_mix(f, 21)),
                &cands,
                SimTime::ZERO,
                &mut rng,
            );
            counts[cands.iter().position(|&x| x == ch).unwrap()] += 1;
        }
        let expected = rounds / cands.len();
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c >= expected * 8 / 10 && c <= expected * 12 / 10,
                "uplink {i} got {c}/{rounds} flowlets (expected ~{expected})"
            );
        }
        // Table collisions make a few flows inherit an active entry (paper
        // Remark 1), so slightly fewer than `rounds` decisions are random.
        assert!(
            lf.policy.random_decisions as usize >= rounds * 9 / 10,
            "only {}/{rounds} decisions were random",
            lf.policy.random_decisions
        );
    }

    #[test]
    fn letflow_flowlet_stays_put_and_same_seed_is_deterministic() {
        let run = |seed: u64| -> Vec<ChannelId> {
            let (_t, fib, mut lf) = setup(letflow());
            let mut rng = SimRng::new(seed);
            let cands = fib.up_candidates[0][1].clone();
            (0..64u64)
                .map(|i| {
                    // Packets of flow 9 arrive well inside T_fl: one flowlet.
                    let t = SimTime::from_micros(i * 10);
                    lf.leaf_ingress(LeafId(0), &mut fabric_pkt(9), &cands, t, &mut rng)
                })
                .collect()
        };
        let a = run(77);
        assert!(
            a.iter().all(|&c| c == a[0]),
            "flowlet must not switch paths mid-burst"
        );
        let b = run(77);
        assert_eq!(a, b, "same seed must reproduce the same picks");
        // And the choice is genuinely random across flowlets: a different
        // seed is allowed to (and across many flows, will) differ.
        let mut any_diff = false;
        for seed in 1..20u64 {
            if run(seed)[0] != a[0] {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "letflow never varied its pick across 20 seeds");
    }

    /// Push `n` latency feedback samples for (peer leaf 1, `tag`) into leaf
    /// 0's EWMA table by decapsulating crafted reverse packets.
    fn feed_latency(la: &mut Pipeline<LatencyAware>, tag: u8, delay_ns: u64, n: u64) {
        for i in 0..n {
            let mut p = fabric_pkt(1);
            // Reverse direction: a packet from leaf 1 arriving at leaf 0.
            let mut o = Overlay::new(LeafId(1), LeafId(0));
            o.lat_fb = Some((tag, delay_ns));
            p.overlay = Some(o);
            la.leaf_egress(LeafId(0), &p, SimTime::from_micros(10 + i));
        }
    }

    #[test]
    fn latency_aware_warms_up_as_ecmp_without_consuming_rng() {
        let (_t, fib, mut la) = setup(latency_aware());
        let cands = fib.up_candidates[0][1].clone();
        // Two differently seeded rngs: warmup decisions must not depend on
        // the rng at all (pure hashing), so the picks agree.
        let mut r1 = SimRng::new(1);
        let mut r2 = SimRng::new(999);
        let mut counts = vec![0usize; cands.len()];
        for f in 0..4000u64 {
            let h = ecmp_mix(f, 31);
            let c1 = la.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(h),
                &cands,
                SimTime::ZERO,
                &mut r1,
            );
            let c2 = la.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(h),
                &cands,
                SimTime::ZERO,
                &mut r2,
            );
            assert_eq!(c1, c2, "warmup must be rng-free");
            counts[cands.iter().position(|&x| x == c1).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..=1200).contains(&c), "uplink {i} got {c}/4000 flows");
        }
        assert!(la.policy.warmup_decisions > 0);
        assert_eq!(la.policy.excluded, 0);
    }

    #[test]
    fn latency_aware_excludes_slow_uplink_and_probes_it() {
        let (_t, fib, mut la) = setup(latency_aware());
        let cands = fib.up_candidates[0][1].clone();
        let min_n = la.policy.params.min_measurements;
        // Tag 0 measures 10× slower than the rest (threshold is 2×).
        for &u in &cands {
            let tag = fib.lbtag_of[u.idx()];
            let delay = if tag == 0 { 10_000 } else { 1_000 };
            feed_latency(&mut la, tag, delay, min_n);
        }
        let slow: Vec<ChannelId> = cands
            .iter()
            .copied()
            .filter(|&u| fib.lbtag_of[u.idx()] == 0)
            .collect();
        let now = SimTime::from_micros(100);
        let mut rng = SimRng::new(13);
        let mut slow_picks = 0usize;
        let rounds = 3000u64;
        for f in 0..rounds {
            let ch = la.leaf_ingress(
                LeafId(0),
                &mut fabric_pkt(ecmp_mix(f, 41)),
                &cands,
                now,
                &mut rng,
            );
            assert!(cands.contains(&ch));
            if slow.contains(&ch) {
                slow_picks += 1;
            }
        }
        // The slow uplink is admitted once as a probe (its retry window
        // then closes for 500 µs of simulated time), so it can win at most
        // a handful of early decisions instead of its uniform ~1/4 share.
        assert!(
            slow_picks <= 5,
            "slow uplink won {slow_picks}/{rounds} decisions despite exclusion"
        );
        assert!(la.policy.excluded > 0, "no exclusions recorded");
        assert!(
            la.policy.probes >= 1,
            "the excluded uplink was never probed"
        );
        assert_eq!(la.policy.samples, min_n * cands.len() as u64);
    }

    #[test]
    fn latency_aware_same_seed_is_deterministic() {
        let run = |seed: u64| -> Vec<ChannelId> {
            let (_t, fib, mut la) = setup(latency_aware());
            let cands = fib.up_candidates[0][1].clone();
            let min_n = la.policy.params.min_measurements;
            for &u in &cands {
                let tag = fib.lbtag_of[u.idx()];
                let delay = if tag == 0 { 5_000 } else { 1_000 };
                feed_latency(&mut la, tag, delay, min_n);
            }
            let mut rng = SimRng::new(seed);
            (0..500u64)
                .map(|f| {
                    la.leaf_ingress(
                        LeafId(0),
                        &mut fabric_pkt(ecmp_mix(f, 51)),
                        &cands,
                        SimTime::from_micros(200),
                        &mut rng,
                    )
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed must reproduce the same picks");
    }

    #[test]
    fn latency_aware_feedback_loop_round_trips() {
        // A measured one-way delay at the destination leaf must ride a
        // reverse packet home and land in the source's EWMA table.
        let (_t, fib, mut la) = setup(latency_aware());
        let mut rng = SimRng::new(14);
        // Leaf 0 sends to leaf 1: the overlay gets a send timestamp.
        let mut fwd = fabric_pkt(70);
        let cands = fib.up_candidates[0][1].clone();
        let sent_at = SimTime::from_micros(50);
        let ch = la.leaf_ingress(LeafId(0), &mut fwd, &cands, sent_at, &mut rng);
        let o = fwd.overlay.unwrap();
        assert_eq!(o.lat_sent, Some(sent_at));
        assert_eq!(o.lbtag, fib.lbtag_of[ch.idx()]);
        // Leaf 1 decapsulates 7 µs later: a pending sample is recorded.
        la.leaf_egress(LeafId(1), &fwd, SimTime::from_micros(57));
        // Leaf 1 sends back to leaf 0: the sample rides along.
        let mut rev = Packet::data(0, 0, 71, HostId(2), HostId(0), 0, 1460, SimTime::ZERO);
        rev.overlay = Some(Overlay::new(LeafId(1), LeafId(0)));
        let rcands = fib.up_candidates[1][0].clone();
        la.leaf_ingress(
            LeafId(1),
            &mut rev,
            &rcands,
            SimTime::from_micros(60),
            &mut rng,
        );
        let fb = rev.overlay.unwrap().lat_fb;
        assert_eq!(fb, Some((o.lbtag, 7_000)), "sample must piggyback");
        // Leaf 0 decapsulates the reverse packet: EWMA observed.
        assert_eq!(la.policy.samples, 0);
        la.leaf_egress(LeafId(0), &rev, SimTime::from_micros(65));
        assert_eq!(la.policy.samples, 1);
    }

    #[test]
    fn policy_enum_delegates() {
        for (key, mk) in FabricPolicy::zoo() {
            let (_t, fib, mut p) = setup(mk());
            assert_eq!(p.name(), key.replace('_', "-"));
            let mut rng = SimRng::new(5);
            let cands = fib.up_candidates[0][1].clone();
            let mut pkt = fabric_pkt(9);
            let ch = p.leaf_ingress(LeafId(0), &mut pkt, &cands, SimTime::ZERO, &mut rng);
            assert!(cands.contains(&ch));
            assert_eq!(pkt.overlay.unwrap().lbtag, fib.lbtag_of[ch.idx()]);
        }
    }
}
