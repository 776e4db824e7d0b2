//! The one leaf pipeline every policy runs through (paper §3.4–3.5,
//! Figure 6).
//!
//! ```text
//! leaf_ingress ─ candidates empty? ──────────────► FallbackTable channel
//!              ─ no overlay / policy not deployed ► leaf ECMP hash
//!              ─ policy.stamp (feedback piggyback, timestamps)
//!              ─ flowlet table (if the policy keeps one):
//!                  active and still a candidate ──► cached port
//!                  new flowlet / stale port ──► policy.choose ─► commit
//!                no table ──► policy.choose on every packet
//!              ─ stamp the chosen uplink's LBTag
//! spine_forward ─ candidates empty? ► fallback │ policy.spine_pick │ spine ECMP hash
//! on_fabric_tx  ─ charge the link's DRE (if the policy keeps DREs) ► policy.on_dre_update
//! leaf_egress   ─ policy.leaf_egress
//! ```
//!
//! [`Pipeline`] owns, once, everything the schemes share: the
//! degrade-don't-panic contract, the flowlet lookup/commit state machine,
//! LBTag stamping, spine ECMP, the per-leaf [`FlowletTable`]s and the
//! fabric-link [`DreBank`] with their construction, counters and sampled
//! series, and the trace handle. A [`LeafPolicy`] supplies its *choice*,
//! says (as a fixed property of the type) whether it keeps flowlet tables
//! and DREs, and overrides only the hooks it genuinely has. Dispatch is
//! static: the pipeline is generic over the policy.
//!
//! **Degrade, don't panic.** An empty candidate slice (possible transiently
//! while a FIB rebuild races a total uplink failure) yields the
//! deterministic [`FallbackTable`] channel, where the engine
//! blackhole-accounts the packet instead of the process dying. A packet
//! without an overlay names no destination and has nowhere to stamp: it is
//! hashed like ECMP and touches no policy, flowlet or RNG state.

use crate::dre::DreBank;
use crate::flowlet::{FlowletStats, FlowletTable, Lookup};
use crate::params::CongaParams;
use conga_net::{ecmp_mix, ChannelId, Dataplane, Fib, LeafId, NodeId, Packet, SpineId, Topology};
use conga_sim::{SimRng, SimTime};
use conga_telemetry::{MetricsRegistry, SeriesRegistry};
use conga_trace::TraceHandle;

/// Deterministic last-resort channels, one per leaf and per spine: each
/// node's first fabric channel in the topology (falling back to the
/// topology's first fabric channel, then channel 0). Returned when a node
/// is handed an empty candidate slice; if that channel is dead the engine's
/// enqueue path blackhole-accounts the packet, so total uplink failure
/// shows up as counted loss rather than a panic.
#[derive(Clone, Debug, Default)]
pub struct FallbackTable {
    leaf: Vec<ChannelId>,
    spine: Vec<ChannelId>,
}

impl FallbackTable {
    /// Precompute the per-node fallback channels.
    pub fn new(topo: &Topology) -> Self {
        let first_fabric = topo
            .channels
            .iter()
            .position(|c| c.kind.is_fabric())
            .map(|i| ChannelId(i as u32))
            .unwrap_or(ChannelId(0));
        let first_from = |node: NodeId| {
            topo.channels
                .iter()
                .position(|c| c.kind.is_fabric() && c.src == node)
                .map(|i| ChannelId(i as u32))
                .unwrap_or(first_fabric)
        };
        FallbackTable {
            leaf: (0..topo.n_leaves)
                .map(|l| first_from(NodeId::Leaf(LeafId(l))))
                .collect(),
            spine: (0..topo.n_spines)
                .map(|s| first_from(NodeId::Spine(SpineId(s))))
                .collect(),
        }
    }

    /// The fallback channel for a leaf's ingress path.
    pub fn leaf(&self, leaf: LeafId) -> ChannelId {
        self.leaf.get(leaf.idx()).copied().unwrap_or(ChannelId(0))
    }

    /// The fallback channel for a spine's forwarding path.
    pub fn spine(&self, spine: SpineId) -> ChannelId {
        self.spine.get(spine.idx()).copied().unwrap_or(ChannelId(0))
    }
}

/// Deterministic per-flow hash pick among a non-empty candidate slice.
#[inline]
fn hash_pick(candidates: &[ChannelId], h: u64) -> ChannelId {
    candidates[(h % candidates.len() as u64) as usize]
}

/// The static per-flow ECMP choice of `leaf` among non-empty `candidates`:
/// ECMP's whole decision, and what every other scheme degrades to when it
/// has nothing better to go on.
#[inline]
pub fn leaf_hash(leaf: LeafId, flow_hash: u64, candidates: &[ChannelId]) -> ChannelId {
    hash_pick(candidates, ecmp_mix(flow_hash, 0x1EAF_0000 + leaf.0 as u64))
}

/// Why the pipeline is asking the policy for a choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Why {
    /// The policy keeps no flowlet state: every packet decides.
    EveryPacket,
    /// First packet of a flowlet. `aged_out` is the uplink the flow's
    /// previous flowlet used, if the table entry was ever used — expiry is
    /// lazy, observable only at this lookup — whether or not that uplink
    /// is still a candidate.
    NewFlowlet {
        /// Uplink cached in the expired entry.
        aged_out: Option<ChannelId>,
    },
    /// The flowlet is active but its cached port can no longer reach this
    /// destination (link failure, or a table collision across
    /// destinations).
    StalePort,
}

/// One load-balancing decision the pipeline asks a policy to make.
#[derive(Clone, Copy, Debug)]
pub struct Decision<'a> {
    /// The deciding (source) leaf.
    pub leaf: LeafId,
    /// Destination leaf index, from the overlay.
    pub dst: usize,
    /// Flow id (for trace sampling).
    pub flow: u32,
    /// The packet's avalanched 5-tuple hash.
    pub flow_hash: u64,
    /// Live uplinks that reach `dst`; never empty.
    pub candidates: &'a [ChannelId],
    /// The uplink the flow's previous flowlet used, if it is still among
    /// `candidates` — the port a tie-break should prefer.
    pub prev: Option<ChannelId>,
    /// What triggered the decision.
    pub why: Why,
    /// Current simulated time.
    pub now: SimTime,
}

/// The state the pipeline owns and lends to every policy hook.
#[derive(Clone, Debug)]
pub struct Shared {
    /// LBTag of every channel (an uplink's index at its leaf).
    pub lbtag_of: Vec<u8>,
    /// The fabric-link DREs; empty unless [`LeafPolicy::DRES`].
    pub dres: DreBank,
    /// The run's trace handle (disabled unless the engine installs one),
    /// so any hook can record provenance without its own plumbing.
    pub tracer: TraceHandle,
}

/// What a load-balancing scheme supplies to the [`Pipeline`]: its choice,
/// two fixed properties, and — only where it has them — the
/// policy-specific hooks.
pub trait LeafPolicy {
    /// The pipeline keeps a per-leaf [`FlowletTable`] and asks for a
    /// choice only when a flowlet starts or its port goes stale; otherwise
    /// every packet decides.
    const FLOWLETS: bool;
    /// The pipeline keeps a [`Dre`](crate::Dre) on every fabric link and
    /// charges each transmission to it.
    const DRES: bool;

    /// Pick one of `d.candidates`.
    fn choose(&mut self, sh: &mut Shared, d: &Decision<'_>, rng: &mut SimRng) -> ChannelId;

    /// Size policy-owned tables from the topology.
    fn install(&mut self, _params: &CongaParams, _topo: &Topology, _fib: &Fib) {}

    /// Whether the scheme runs at `leaf`; leaves where it does not forward
    /// by plain ECMP hash (incremental deployment, paper §7).
    fn deployed(&self, _leaf: LeafId) -> bool {
        true
    }

    /// Pre-decision header stamp on a packet entering the fabric at
    /// `leaf` toward leaf `dst` (feedback piggyback, timestamps). The
    /// packet's overlay is present.
    fn stamp(
        &mut self,
        _sh: &Shared,
        _leaf: LeafId,
        _dst: usize,
        _pkt: &mut Packet,
        _now: SimTime,
    ) {
    }

    /// `pkt` starts transmission on fabric channel `ch`, whose DRE the
    /// pipeline has just charged (so: DRE-keeping policies, DRE-carrying
    /// links only).
    fn on_dre_update(
        &mut self,
        _sh: &mut Shared,
        _ch: ChannelId,
        _pkt: &mut Packet,
        _now: SimTime,
    ) {
    }

    /// A packet reached its destination leaf and is about to be
    /// decapsulated.
    fn leaf_egress(&mut self, _sh: &Shared, _leaf: LeafId, _pkt: &Packet, _now: SimTime) {}

    /// Override the spine's ECMP hash among non-empty `candidates` toward
    /// leaf `dst`.
    fn spine_pick(
        &mut self,
        _spine: SpineId,
        _dst: usize,
        _candidates: &[ChannelId],
    ) -> Option<ChannelId> {
        None
    }

    /// Export policy-owned counters (the pipeline exports what it owns).
    fn export_metrics(&self, _reg: &mut MetricsRegistry) {}
}

/// The leaf/spine dataplane of a whole fabric running policy `P`: the
/// shared pipeline plus the policy's own state. Implements [`Dataplane`].
#[derive(Clone, Debug)]
pub struct Pipeline<P> {
    /// Flowlet and DRE parameters (public so experiments can report them).
    pub params: CongaParams,
    pub(crate) policy: P,
    label: &'static str,
    shared: Shared,
    flowlets: Vec<FlowletTable>,
    fallback: FallbackTable,
}

impl<P: LeafPolicy> Pipeline<P> {
    /// A pipeline named `label` running `policy`, its flowlet tables and
    /// DREs (if the policy keeps them) built from `params` at install.
    pub fn with(label: &'static str, params: CongaParams, policy: P) -> Self {
        Pipeline {
            params,
            policy,
            label,
            shared: Shared {
                lbtag_of: Vec::new(),
                dres: DreBank::default(),
                tracer: TraceHandle::disabled(),
            },
            flowlets: Vec::new(),
            fallback: FallbackTable::default(),
        }
    }

    /// Flowlet statistics for a leaf (hits / new flowlets); zero for a
    /// policy that keeps no flowlet table.
    pub fn flowlet_stats(&self, leaf: LeafId) -> FlowletStats {
        self.flowlets
            .get(leaf.idx())
            .map(|t| t.stats)
            .unwrap_or_default()
    }

    /// The leaves whose flowlet table has been touched, and so allocated:
    /// the leaves that sourced fabric traffic through this pipeline.
    pub fn allocated_flowlet_tables(&self) -> impl Iterator<Item = LeafId> + '_ {
        (self.flowlets.iter().enumerate())
            .filter(|(_, t)| t.is_allocated())
            .map(|(l, _)| LeafId(l as u32))
    }

    /// Current quantized local DRE metric of a channel (for debugging and
    /// the parameter-ablation experiments).
    pub fn link_metric(&mut self, ch: ChannelId, now: SimTime) -> Option<u8> {
        self.shared.dres.link_metric(ch, now)
    }

    /// The flowlet state machine around [`LeafPolicy::choose`].
    fn pick(
        &mut self,
        leaf: LeafId,
        dst: usize,
        pkt: &Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        let mut d = Decision {
            leaf,
            dst,
            flow: pkt.flow,
            flow_hash: pkt.flow_hash,
            candidates,
            prev: None,
            why: Why::EveryPacket,
            now,
        };
        if !P::FLOWLETS {
            return self.policy.choose(&mut self.shared, &d, rng);
        }
        let table = &mut self.flowlets[leaf.idx()];
        match table.lookup(pkt.flow_hash, now) {
            Lookup::Active(port) if candidates.contains(&port) => return port,
            Lookup::Active(_) => d.why = Why::StalePort,
            Lookup::NewFlowlet { prev } => {
                d.why = Why::NewFlowlet { aged_out: prev };
                d.prev = prev.filter(|p| candidates.contains(p));
            }
        }
        let port = self.policy.choose(&mut self.shared, &d, rng);
        table.commit(pkt.flow_hash, port, now);
        port
    }
}

impl<P: LeafPolicy> Dataplane for Pipeline<P> {
    fn install(&mut self, topo: &Topology, fib: &Fib) {
        let p = self.params;
        self.shared.lbtag_of = fib.lbtag_of.clone();
        if P::DRES {
            self.shared.dres = DreBank::new(topo, &p);
        }
        if P::FLOWLETS {
            self.flowlets = (0..topo.n_leaves)
                .map(|_| FlowletTable::new(p.flowlet_entries, p.tfl, p.gap_mode))
                .collect();
        }
        self.fallback = FallbackTable::new(topo);
        self.policy.install(&p, topo, fib);
    }

    fn leaf_ingress(
        &mut self,
        leaf: LeafId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        now: SimTime,
        rng: &mut SimRng,
    ) -> ChannelId {
        if candidates.is_empty() {
            return self.fallback.leaf(leaf);
        }
        let dst = pkt.overlay.as_ref().map(|o| o.dst_tep.idx());
        let ch = match dst {
            Some(dst) if self.policy.deployed(leaf) => {
                self.policy.stamp(&self.shared, leaf, dst, pkt, now);
                self.pick(leaf, dst, pkt, candidates, now, rng)
            }
            // A bare packet names no destination, and a leaf the scheme is
            // not deployed at is a plain ECMP switch: hash, touch no state.
            _ => leaf_hash(leaf, pkt.flow_hash, candidates),
        };
        if let Some(o) = pkt.overlay.as_mut() {
            o.lbtag = self.shared.lbtag_of[ch.idx()];
        }
        ch
    }

    fn spine_forward(
        &mut self,
        spine: SpineId,
        pkt: &mut Packet,
        candidates: &[ChannelId],
        _now: SimTime,
        _rng: &mut SimRng,
    ) -> ChannelId {
        if candidates.is_empty() {
            return self.fallback.spine(spine);
        }
        // Spines use standard ECMP among the (parallel) downlinks whatever
        // the leaf policy (paper footnote 3) unless the scheme says otherwise.
        let dst = pkt.overlay.as_ref().map(|o| o.dst_tep.idx());
        dst.and_then(|dst| self.policy.spine_pick(spine, dst, candidates))
            .unwrap_or_else(|| {
                hash_pick(
                    candidates,
                    ecmp_mix(pkt.flow_hash, 0x5B1E_0000 + spine.0 as u64),
                )
            })
    }

    fn on_fabric_tx(&mut self, ch: ChannelId, pkt: &mut Packet, now: SimTime) {
        if self.shared.dres.on_send(ch, pkt.size, now) {
            self.policy.on_dre_update(&mut self.shared, ch, pkt, now);
        }
    }

    fn leaf_egress(&mut self, leaf: LeafId, pkt: &Packet, now: SimTime) {
        self.policy.leaf_egress(&self.shared, leaf, pkt, now);
    }

    fn name(&self) -> &'static str {
        self.label
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.policy.export_metrics(reg);
        if P::FLOWLETS {
            let (mut hits, mut new_flowlets) = (0u64, 0u64);
            for t in &self.flowlets {
                hits += t.stats.hits;
                new_flowlets += t.stats.new_flowlets;
            }
            reg.set_counter("dataplane.flowlet_hits", hits);
            reg.set_counter("dataplane.flowlet_new", new_flowlets);
        }
    }

    fn set_tracer(&mut self, tracer: TraceHandle) {
        self.shared.tracer = tracer;
    }

    fn sample_series(&mut self, now: SimTime, out: &mut SeriesRegistry) {
        self.shared.dres.sample(now, out);
        // Same shard rule as the DREs: only the owning domain's table has
        // live entries, and zero occupancy is skipped everywhere.
        for (l, t) in self.flowlets.iter().enumerate() {
            let occ = t.occupancy(now);
            if occ > 0 {
                out.record(&format!("dataplane.flowlets.leaf{l}"), now, occ as f64);
            }
        }
    }
}
