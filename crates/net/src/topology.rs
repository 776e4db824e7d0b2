//! Fabric topology description and forwarding tables.
//!
//! The primary deployment target of CONGA is the 2-tier Leaf-Spine (folded
//! Clos) fabric of paper Figure 4: hosts attach to leaf switches, every leaf
//! connects to every spine with one or more parallel links, and all
//! leaf-to-leaf paths are exactly two fabric hops. [`LeafSpineBuilder::new`]
//! constructs these, including the asymmetric variants the paper studies
//! (failed links, degraded link rates, mixed speeds).
//!
//! [`TopologyBuilder::three_tier`] starts the same builder on the
//! generalization, the pod-structured three-tier Clos of larger deployments
//! (and of CAFT's fault studies): `n_pods` pods, each with its own leaves
//! and pod-local spines fully meshed, plus a core tier above connecting
//! every spine. CONGA's congestion-aware choice stays at the leaf (the
//! LBTag still names a leaf uplink); spines and cores forward with ECMP,
//! exactly as the paper's footnote on overlay deployments prescribes.
//!
//! After construction the [`Topology`] precomputes a forwarding information
//! base ([`Fib`]): for every (leaf, destination-leaf) the candidate uplink
//! channels, and for every (spine, destination-leaf) the candidate downlink
//! channels. A candidate uplink is only valid for a destination if the spine
//! it reaches still has at least one live link to that destination leaf —
//! this is how routing (as opposed to load balancing) reacts to failures.
//! In a three-tier fabric the reachability condition recurses one tier up:
//! a spine that has lost (or never had) a downlink to the destination leaf
//! is still a candidate if it can reach a core that can reach a spine that
//! can — candidate tables are computed top-down (`spine_down` →
//! `core_down` → `spine_up_candidates` → `up_candidates`), so every
//! forwarding step strictly decreases the remaining hop count and no
//! routing loops are possible.

use crate::ids::{ChannelId, CoreId, HostId, LeafId, NodeId, SpineId};
use crate::packet::MAX_LBTAG;
use conga_sim::SimDuration;

/// What role a channel plays in the fabric; used for statistics and to decide
/// where DREs / CE marking apply (fabric links only).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelKind {
    /// Host NIC → leaf.
    AccessUp,
    /// Leaf → host NIC.
    AccessDown,
    /// Leaf → spine (a leaf *uplink*; carries an LBTag).
    LeafUp,
    /// Spine → leaf (a spine *downlink*).
    SpineDown,
    /// Spine → core (three-tier fabrics only; ECMP, no LBTag).
    SpineUp,
    /// Core → spine (three-tier fabrics only; ECMP, no LBTag).
    CoreDown,
}

impl ChannelKind {
    /// Fabric channels are the ones CONGA measures with DREs and marks CE on.
    #[inline]
    pub fn is_fabric(self) -> bool {
        matches!(
            self,
            ChannelKind::LeafUp
                | ChannelKind::SpineDown
                | ChannelKind::SpineUp
                | ChannelKind::CoreDown
        )
    }
}

/// One simplex channel: a directed (src → dst) wire with its own transmit
/// queue, rate, and propagation delay.
#[derive(Clone, Debug)]
pub struct Channel {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Propagation + pipeline delay.
    pub delay: SimDuration,
    /// Transmit queue capacity in bytes (drop-tail).
    pub queue_cap: u64,
    /// Role in the fabric.
    pub kind: ChannelKind,
}

/// Buffer sizing profile applied when building a topology.
#[derive(Clone, Copy, Debug)]
pub struct QueueProfile {
    /// Capacity of switch host-facing queues (leaf downlinks), bytes.
    pub access_bytes: u64,
    /// Capacity of fabric queues (leaf uplinks & spine ports), bytes.
    pub fabric_bytes: u64,
    /// Capacity of the host NIC transmit queue (the end-host qdisc), bytes.
    /// Hosts buffer generously — drops belong to switches, not senders.
    pub host_nic_bytes: u64,
}

impl Default for QueueProfile {
    fn default() -> Self {
        // Switch access ports are shallow (the paper leans on DCTCP-era
        // shallow edge buffers for its Incast dynamics); fabric ports are
        // deeper, matching the multi-MB occupancies of paper Figure 11(c).
        QueueProfile {
            // The testbed leaf ASIC has a ~12MB shared packet buffer with
            // dynamic thresholds: a single hot access port can absorb a
            // couple of MB before tail-dropping.
            access_bytes: 2 * 1024 * 1024,
            fabric_bytes: 12 * 1024 * 1024,
            host_nic_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A complete fabric: inventory of nodes plus the channel list.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Number of hosts.
    pub n_hosts: u32,
    /// Number of leaf switches.
    pub n_leaves: u32,
    /// Number of spine switches.
    pub n_spines: u32,
    /// Number of core switches (0 in two-tier leaf-spine fabrics).
    pub n_cores: u32,
    /// Number of pods (1 in two-tier fabrics: every spine sees every leaf).
    pub n_pods: u32,
    /// The leaf each host attaches to.
    pub host_leaf: Vec<LeafId>,
    /// All simplex channels.
    pub channels: Vec<Channel>,
}

impl Topology {
    /// The leaf a host is attached to.
    #[inline]
    pub fn leaf_of(&self, h: HostId) -> LeafId {
        self.host_leaf[h.idx()]
    }

    /// Channel lookup.
    #[inline]
    pub fn channel(&self, c: ChannelId) -> &Channel {
        &self.channels[c.idx()]
    }

    /// Hosts attached to a given leaf.
    pub fn hosts_under(&self, l: LeafId) -> Vec<HostId> {
        (0..self.n_hosts)
            .map(HostId)
            .filter(|h| self.leaf_of(*h) == l)
            .collect()
    }

    /// Build the forwarding tables for the current channel set, with every
    /// channel considered live.
    pub fn fib(&self) -> Fib {
        self.fib_live(&vec![true; self.channels.len()])
    }

    /// Build the forwarding tables with a liveness mask (`live[ch]` false ⇒
    /// the channel exists but is administratively down). Dead uplinks keep
    /// their position in [`Fib::leaf_uplinks`] — and therefore their LBTag —
    /// but are excluded from every candidate list, so a runtime link-state
    /// transition never renumbers the congestion tables.
    pub fn fib_live(&self, live: &[bool]) -> Fib {
        Fib::build_live(self, live)
    }

    /// Leaves per pod (`n_leaves` itself in a two-tier fabric).
    #[inline]
    pub fn leaves_per_pod(&self) -> u32 {
        self.n_leaves / self.n_pods.max(1)
    }

    /// Spines per pod (`n_spines` itself in a two-tier fabric).
    #[inline]
    pub fn spines_per_pod(&self) -> u32 {
        self.n_spines / self.n_pods.max(1)
    }

    /// The pod a leaf belongs to (pod-major numbering).
    #[inline]
    pub fn pod_of_leaf(&self, l: LeafId) -> u32 {
        l.0 / self.leaves_per_pod().max(1)
    }

    /// The pod a spine belongs to (pod-major numbering).
    #[inline]
    pub fn pod_of_spine(&self, s: SpineId) -> u32 {
        s.0 / self.spines_per_pod().max(1)
    }

    /// The simplex channel pairs forming the parallel links between `a`
    /// and `b`, at any tier, in parallel-link order: `(a→b, b→a)`. Links
    /// removed at build time (static failures) do not appear, so position
    /// `p` in the list is [`crate::Link::parallel`] `p`.
    pub fn link_channels(&self, a: NodeId, b: NodeId) -> Vec<(ChannelId, ChannelId)> {
        let one_way = |src, dst| {
            self.channels.iter().enumerate().filter_map(move |(i, c)| {
                (c.src == src && c.dst == dst).then_some(ChannelId(i as u32))
            })
        };
        one_way(a, b).zip(one_way(b, a)).collect()
    }

    /// Aggregate leaf-to-leaf bisection capacity in bits per second: the sum
    /// of uplink rates of one leaf, bounded by the corresponding spine
    /// downlink capacity toward each other leaf. Used to express offered
    /// load as a fraction, matching the paper's load axis.
    pub fn leaf_uplink_capacity(&self, l: LeafId) -> u64 {
        self.channels
            .iter()
            .filter(|c| c.kind == ChannelKind::LeafUp && c.src == NodeId::Leaf(l))
            .map(|c| c.rate_bps)
            .sum()
    }

    /// Total access (host NIC) capacity under a leaf in bits per second.
    pub fn access_capacity(&self, l: LeafId) -> u64 {
        self.channels
            .iter()
            .filter(|c| c.kind == ChannelKind::AccessUp)
            .filter(|c| matches!(c.src, NodeId::Host(h) if self.leaf_of(h) == l))
            .map(|c| c.rate_bps)
            .sum()
    }
}

/// Forwarding information base: candidate channels per destination,
/// precomputed once per topology so the per-packet path is just a vector
/// index.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    /// Host → its access uplink channel.
    pub host_access: Vec<ChannelId>,
    /// (leaf, local host) → downlink channel; indexed `[host]` globally.
    pub host_down: Vec<ChannelId>,
    /// All uplink channels of each leaf, ordered; the position of a channel
    /// in this vector **is** its LBTag. Uplinks that are administratively
    /// down (runtime fault) stay listed so tags remain stable across
    /// fail/recover transitions.
    pub leaf_uplinks: Vec<Vec<ChannelId>>,
    /// `up_candidates[leaf][dst_leaf]` — uplinks of `leaf` that can still
    /// reach `dst_leaf` (spine has a live downlink to it).
    pub up_candidates: Vec<Vec<Vec<ChannelId>>>,
    /// `spine_down[spine][dst_leaf]` — live parallel channels spine→leaf.
    pub spine_down: Vec<Vec<Vec<ChannelId>>>,
    /// All spine→core channels of each spine, in build order. Like
    /// `leaf_uplinks`, dead channels keep their slot so runtime
    /// fail/recover transitions never reorder the list. Empty per spine in
    /// two-tier fabrics.
    pub spine_up: Vec<Vec<ChannelId>>,
    /// `spine_up_candidates[spine][dst_leaf]` — live spine→core channels
    /// whose core can still reach `dst_leaf` (some live core→spine→leaf
    /// path exists). Consulted only when `spine_down[spine][dst_leaf]` is
    /// empty — the inter-pod (or pod-downlink-failure) detour.
    pub spine_up_candidates: Vec<Vec<Vec<ChannelId>>>,
    /// `core_down[core][dst_leaf]` — live core→spine channels toward spines
    /// that still have a live downlink to `dst_leaf`.
    pub core_down: Vec<Vec<Vec<ChannelId>>>,
    /// LBTag of each leaf-up channel (reverse map), indexed by channel.
    pub lbtag_of: Vec<u8>,
}

impl Fib {
    /// The static tables, which liveness never changes, then the four
    /// liveness tables through [`Fib::refresh_live`] — the one
    /// reachability pass, for a fresh build and a runtime transition alike.
    fn build_live(t: &Topology, live: &[bool]) -> Fib {
        let mut fib = Fib {
            host_access: vec![ChannelId(u32::MAX); t.n_hosts as usize],
            host_down: vec![ChannelId(u32::MAX); t.n_hosts as usize],
            leaf_uplinks: vec![Vec::new(); t.n_leaves as usize],
            spine_up: vec![Vec::new(); t.n_spines as usize],
            lbtag_of: vec![u8::MAX; t.channels.len()],
            ..Fib::default()
        };
        for (i, c) in t.channels.iter().enumerate() {
            let id = ChannelId(i as u32);
            match (c.kind, c.src, c.dst) {
                (ChannelKind::AccessUp, NodeId::Host(h), NodeId::Leaf(_)) => {
                    fib.host_access[h.idx()] = id;
                }
                (ChannelKind::AccessDown, NodeId::Leaf(_), NodeId::Host(h)) => {
                    fib.host_down[h.idx()] = id;
                }
                // Dead uplinks keep their slot: the slot index is the
                // LBTag, which must survive fail/recover transitions.
                // Spine→core channels likewise keep theirs, so the list
                // order is stable across transitions.
                (ChannelKind::LeafUp, NodeId::Leaf(l), NodeId::Spine(_)) => {
                    fib.leaf_uplinks[l.idx()].push(id);
                }
                (ChannelKind::SpineUp, NodeId::Spine(s), NodeId::Core(_)) => {
                    fib.spine_up[s.idx()].push(id);
                }
                (ChannelKind::SpineDown, NodeId::Spine(_), NodeId::Leaf(_))
                | (ChannelKind::CoreDown, NodeId::Core(_), NodeId::Spine(_)) => {}
                _ => panic!("inconsistent channel: {c:?}"),
            }
        }
        for ups in &fib.leaf_uplinks {
            assert!(
                ups.len() <= MAX_LBTAG,
                "leaf has {} uplinks; LBTag is 4 bits (max {MAX_LBTAG})",
                ups.len()
            );
            for (tag, ch) in ups.iter().enumerate() {
                fib.lbtag_of[ch.idx()] = tag as u8;
            }
        }
        fib.refresh_live(t, live);
        fib
    }

    /// Compute the liveness-dependent tables (`spine_down`, `core_down`,
    /// `spine_up_candidates` and `up_candidates`) in place for a liveness
    /// mask, reusing every existing allocation. The static tables —
    /// `host_access`, `host_down`, `leaf_uplinks`, `spine_up`, `lbtag_of` —
    /// do not depend on liveness and are left untouched, so a runtime
    /// link-state transition never renumbers LBTags.
    ///
    /// Candidate tables are computed top-down so each tier's reachability
    /// question reduces to the tier below it.
    pub fn refresh_live(&mut self, t: &Topology, live: &[bool]) {
        assert_eq!(live.len(), t.channels.len(), "liveness mask size");
        let nl = t.n_leaves as usize;
        for (table, rows) in [
            (&mut self.spine_down, t.n_spines),
            (&mut self.core_down, t.n_cores),
            (&mut self.spine_up_candidates, t.n_spines),
            (&mut self.up_candidates, t.n_leaves),
        ] {
            table.resize_with(rows as usize, || vec![Vec::new(); nl]);
            table.iter_mut().flatten().for_each(Vec::clear);
        }
        // A spine→leaf channel is a candidate for its leaf iff it is live.
        for (i, c) in t.channels.iter().enumerate() {
            if let (ChannelKind::SpineDown, NodeId::Spine(s), NodeId::Leaf(m)) =
                (c.kind, c.src, c.dst)
            {
                if live[i] {
                    self.spine_down[s.idx()][m.idx()].push(ChannelId(i as u32));
                }
            }
        }
        // A core→spine channel is a candidate for leaf m iff it is live and
        // its spine still has a live downlink to m.
        for (i, c) in t.channels.iter().enumerate() {
            if let (ChannelKind::CoreDown, NodeId::Core(co), NodeId::Spine(s)) =
                (c.kind, c.src, c.dst)
            {
                if !live[i] {
                    continue;
                }
                for m in 0..nl {
                    if !self.spine_down[s.idx()][m].is_empty() {
                        self.core_down[co.idx()][m].push(ChannelId(i as u32));
                    }
                }
            }
        }
        // A spine→core channel is a candidate for leaf m iff it is live and
        // its core can still descend toward m.
        for s in 0..self.spine_up.len() {
            for k in 0..self.spine_up[s].len() {
                let u = self.spine_up[s][k];
                if !live[u.idx()] {
                    continue;
                }
                let NodeId::Core(co) = t.channel(u).dst else {
                    unreachable!()
                };
                for m in 0..nl {
                    if !self.core_down[co.idx()][m].is_empty() {
                        self.spine_up_candidates[s][m].push(u);
                    }
                }
            }
        }
        // A leaf→spine uplink is a candidate for leaf m iff it is live and
        // its spine can still reach m — directly or via the core tier.
        for l in 0..nl {
            for k in 0..self.leaf_uplinks[l].len() {
                let u = self.leaf_uplinks[l][k];
                if !live[u.idx()] {
                    continue;
                }
                let NodeId::Spine(s) = t.channel(u).dst else {
                    unreachable!()
                };
                for m in 0..nl {
                    if m != l
                        && (!self.spine_down[s.idx()][m].is_empty()
                            || !self.spine_up_candidates[s.idx()][m].is_empty())
                    {
                        self.up_candidates[l][m].push(u);
                    }
                }
            }
        }
    }

    /// Number of distinct leaf-to-leaf paths from `l` to `m`: direct
    /// two-hop paths through a pod spine plus (in three-tier fabrics)
    /// four-hop detours through the core tier, counted only from spines
    /// with no direct downlink to `m` — the paths the dataplane can
    /// actually take, since spines prefer the direct descent.
    pub fn path_count(&self, t: &Topology, l: LeafId, m: LeafId) -> usize {
        self.up_candidates[l.idx()][m.idx()]
            .iter()
            .map(|&u| {
                let NodeId::Spine(s) = t.channel(u).dst else {
                    unreachable!()
                };
                let direct = self.spine_down[s.idx()][m.idx()].len();
                if direct > 0 {
                    return direct;
                }
                self.spine_up_candidates[s.idx()][m.idx()]
                    .iter()
                    .map(|&su| {
                        let NodeId::Core(co) = t.channel(su).dst else {
                            unreachable!()
                        };
                        self.core_down[co.idx()][m.idx()]
                            .iter()
                            .map(|&cd| {
                                let NodeId::Spine(s2) = t.channel(cd).dst else {
                                    unreachable!()
                                };
                                self.spine_down[s2.idx()][m.idx()].len()
                            })
                            .sum::<usize>()
                    })
                    .sum()
            })
            .sum()
    }
}

/// Builder for every fabric the simulator runs: the (possibly asymmetric)
/// two-tier Leaf-Spine fabrics of the paper's testbed, via
/// [`LeafSpineBuilder::new`], and the pod-structured three-tier Clos of
/// the large-scale cells, via [`TopologyBuilder::three_tier`]. A two-tier
/// fabric is the one-pod, zero-core case of the same construction.
///
/// Numbering is pod-major: pod `p` owns leaves
/// `p*leaves_per_pod .. (p+1)*leaves_per_pod` and spines
/// `p*spines_per_pod .. (p+1)*spines_per_pod`; cores are global.
///
/// ```
/// use conga_net::{LeafSpineBuilder, TopologyBuilder};
///
/// // The paper's testbed: 2 leaves, 2 spines, 32 hosts/leaf, 10G access,
/// // 2x40G uplinks per leaf-spine pair (Figure 7a).
/// let topo = LeafSpineBuilder::new(2, 2, 32)
///     .host_rate_gbps(10)
///     .fabric_rate_gbps(40)
///     .parallel_links(2)
///     .build();
/// assert_eq!(topo.n_hosts, 64);
/// let fib = topo.fib();
/// assert_eq!(fib.leaf_uplinks[0].len(), 4); // 2 spines x 2 parallel links
///
/// // 2 pods x (2 leaves + 2 spines), 2 cores, 4 hosts per leaf.
/// let topo = TopologyBuilder::three_tier(2, 2, 2, 2, 4).build();
/// assert_eq!(topo.n_hosts, 16);
/// assert_eq!(topo.n_leaves, 4);
/// assert_eq!(topo.n_spines, 4);
/// assert_eq!(topo.n_cores, 2);
/// let fib = topo.fib();
/// // Each leaf meshes only with its pod's 2 spines.
/// assert_eq!(fib.leaf_uplinks[0].len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    n_pods: u32,
    leaves_per_pod: u32,
    spines_per_pod: u32,
    n_cores: u32,
    hosts_per_leaf: u32,
    host_rate: u64,
    fabric_rate: u64,
    parallel: u32,
    host_delay: SimDuration,
    fabric_delay: SimDuration,
    queues: QueueProfile,
    /// (leaf, spine, parallel index) links to delete entirely.
    failed: Vec<(u32, u32, u32)>,
    /// (leaf, spine, parallel index, new rate) rate overrides.
    overrides: Vec<(u32, u32, u32, u64)>,
}

/// The two-tier name of [`TopologyBuilder`]: `LeafSpineBuilder::new(leaves,
/// spines, hosts_per_leaf)` starts a Leaf-Spine fabric.
pub type LeafSpineBuilder = TopologyBuilder;

impl TopologyBuilder {
    /// Start a two-tier Leaf-Spine fabric with the given switch counts and
    /// hosts per leaf: every leaf meshes with every spine, no core tier.
    pub fn new(n_leaves: u32, n_spines: u32, hosts_per_leaf: u32) -> Self {
        TopologyBuilder {
            n_pods: 1,
            leaves_per_pod: n_leaves,
            spines_per_pod: n_spines,
            n_cores: 0,
            hosts_per_leaf,
            host_rate: 10_000_000_000,
            fabric_rate: 40_000_000_000,
            parallel: 1,
            // Host links carry the NIC + kernel stack latency (several us
            // each way in the paper's era); fabric hops are cut-through
            // switch pipelines (~1 us). Base leaf-to-leaf RTT ~ 25 us.
            host_delay: SimDuration::from_nanos(4_000),
            fabric_delay: SimDuration::from_nanos(1_000),
            queues: QueueProfile::default(),
            failed: Vec::new(),
            overrides: Vec::new(),
        }
    }

    /// Start a pod-structured three-tier Clos: `n_pods` pods of
    /// `leaves_per_pod` leaves fully meshed with `spines_per_pod` pod-local
    /// spines, plus `n_cores` core switches each connected to every spine.
    pub fn three_tier(
        n_pods: u32,
        leaves_per_pod: u32,
        spines_per_pod: u32,
        n_cores: u32,
        hosts_per_leaf: u32,
    ) -> Self {
        assert!(n_pods >= 1 && leaves_per_pod >= 1 && spines_per_pod >= 1);
        assert!(
            n_pods == 1 || n_cores >= 1,
            "a multi-pod fabric needs at least one core switch"
        );
        TopologyBuilder {
            n_pods,
            n_cores,
            ..Self::new(leaves_per_pod, spines_per_pod, hosts_per_leaf)
        }
    }

    /// Host NIC rate in Gbps.
    pub fn host_rate_gbps(mut self, g: u64) -> Self {
        self.host_rate = g * 1_000_000_000;
        self
    }

    /// Fabric link rate in Gbps: leaf–spine and spine–core links.
    pub fn fabric_rate_gbps(mut self, g: u64) -> Self {
        self.fabric_rate = g * 1_000_000_000;
        self
    }

    /// Number of parallel links between each pod-local leaf-spine pair.
    pub fn parallel_links(mut self, k: u32) -> Self {
        self.parallel = k;
        self
    }

    /// Per-hop propagation/pipeline delay for all links.
    pub fn link_delay(mut self, d: SimDuration) -> Self {
        self.host_delay = d;
        self.fabric_delay = d;
        self
    }

    /// Queue capacities.
    pub fn queue_profile(mut self, q: QueueProfile) -> Self {
        self.queues = q;
        self
    }

    /// Remove one parallel link between `leaf` and `spine` (both directions)
    /// — the paper's Figure 7(b) failure.
    pub fn fail_link(mut self, leaf: u32, spine: u32, parallel_idx: u32) -> Self {
        self.failed.push((leaf, spine, parallel_idx));
        self
    }

    /// Override the rate of one parallel link (both directions), modelling a
    /// degraded LAG or a mixed-speed fabric (paper Figure 2's half-rate link).
    pub fn override_link_rate_gbps(
        mut self,
        leaf: u32,
        spine: u32,
        parallel_idx: u32,
        gbps: u64,
    ) -> Self {
        self.overrides
            .push((leaf, spine, parallel_idx, gbps * 1_000_000_000));
        self
    }

    /// Construct the topology. Channel order: access pairs per host, then
    /// pod-local `(leaf, spine, parallel)`-ordered LeafUp/SpineDown pairs
    /// for every link that survives, then `(spine, core)`-ordered
    /// SpineUp/CoreDown pairs.
    pub fn build(self) -> Topology {
        let n_leaves = self.n_pods * self.leaves_per_pod;
        let n_spines = self.n_pods * self.spines_per_pod;
        let n_hosts = n_leaves * self.hosts_per_leaf;
        let host_leaf: Vec<LeafId> = (0..n_hosts)
            .map(|h| LeafId(h / self.hosts_per_leaf))
            .collect();

        // One duplex link: the `up` channel, then its reverse.
        let mut channels = Vec::new();
        let mut link = |lo: NodeId, hi: NodeId, rate_bps, delay, up: (ChannelKind, u64), down| {
            for (src, dst, (kind, queue_cap)) in [(lo, hi, up), (hi, lo, down)] {
                channels.push(Channel {
                    src,
                    dst,
                    rate_bps,
                    delay,
                    queue_cap,
                    kind,
                });
            }
        };
        let fabric = self.queues.fabric_bytes;

        for (h, &l) in host_leaf.iter().enumerate() {
            link(
                NodeId::Host(HostId(h as u32)),
                NodeId::Leaf(l),
                self.host_rate,
                self.host_delay,
                (ChannelKind::AccessUp, self.queues.host_nic_bytes),
                (ChannelKind::AccessDown, self.queues.access_bytes),
            );
        }

        // Pod-local leaf-spine mesh.
        for l in 0..n_leaves {
            let pod = l / self.leaves_per_pod;
            for s in pod * self.spines_per_pod..(pod + 1) * self.spines_per_pod {
                for p in 0..self.parallel {
                    if self.failed.contains(&(l, s, p)) {
                        continue;
                    }
                    let rate = self
                        .overrides
                        .iter()
                        .find(|&&(ol, os, op, _)| (ol, os, op) == (l, s, p))
                        .map_or(self.fabric_rate, |&(_, _, _, r)| r);
                    link(
                        NodeId::Leaf(LeafId(l)),
                        NodeId::Spine(SpineId(s)),
                        rate,
                        self.fabric_delay,
                        (ChannelKind::LeafUp, fabric),
                        (ChannelKind::SpineDown, fabric),
                    );
                }
            }
        }

        // Core tier: every spine connects to every core.
        for s in 0..n_spines {
            for c in 0..self.n_cores {
                link(
                    NodeId::Spine(SpineId(s)),
                    NodeId::Core(CoreId(c)),
                    self.fabric_rate,
                    self.fabric_delay,
                    (ChannelKind::SpineUp, fabric),
                    (ChannelKind::CoreDown, fabric),
                );
            }
        }

        Topology {
            n_hosts,
            n_leaves,
            n_spines,
            n_cores: self.n_cores,
            n_pods: self.n_pods,
            host_leaf,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(l: u32) -> NodeId {
        NodeId::Leaf(LeafId(l))
    }

    fn spine(s: u32) -> NodeId {
        NodeId::Spine(SpineId(s))
    }

    fn core(c: u32) -> NodeId {
        NodeId::Core(CoreId(c))
    }

    fn testbed() -> Topology {
        LeafSpineBuilder::new(2, 2, 32)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2)
            .build()
    }

    #[test]
    fn testbed_shape_matches_paper_fig7a() {
        let t = testbed();
        assert_eq!(t.n_hosts, 64);
        assert_eq!(t.channels.len(), 64 * 2 + 2 * 2 * 2 * 2);
        let fib = t.fib();
        for l in 0..2 {
            assert_eq!(fib.leaf_uplinks[l].len(), 4, "2 spines x 2 parallel");
        }
        // 2:1 oversubscription: 320G access vs 160G uplink per leaf.
        assert_eq!(t.access_capacity(LeafId(0)), 320_000_000_000);
        assert_eq!(t.leaf_uplink_capacity(LeafId(0)), 160_000_000_000);
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(1)), 8);
    }

    #[test]
    fn lbtags_are_dense_and_within_field_width() {
        let t = testbed();
        let fib = t.fib();
        for l in 0..2usize {
            let tags: Vec<u8> = fib.leaf_uplinks[l]
                .iter()
                .map(|c| fib.lbtag_of[c.idx()])
                .collect();
            assert_eq!(tags, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn failed_link_removes_both_directions_and_prunes_candidates() {
        let t = LeafSpineBuilder::new(2, 2, 4)
            .parallel_links(2)
            .fail_link(1, 1, 0)
            .build();
        let fib = t.fib();
        // Leaf 1 lost one uplink.
        assert_eq!(fib.leaf_uplinks[1].len(), 3);
        assert_eq!(fib.leaf_uplinks[0].len(), 4);
        // Spine 1 now has a single channel to leaf 1.
        assert_eq!(fib.spine_down[1][1].len(), 1);
        // All of leaf 0's uplinks still reach leaf 1 (spine 1 retains one link).
        assert_eq!(fib.up_candidates[0][1].len(), 4);
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(1)), 2 * 2 + 2);
    }

    #[test]
    fn fully_failed_spine_is_not_a_candidate() {
        // Kill both parallel links spine1<->leaf1: leaf0 must stop using
        // spine 1 for traffic to leaf 1 entirely.
        let t = LeafSpineBuilder::new(2, 2, 4)
            .parallel_links(2)
            .fail_link(1, 1, 0)
            .fail_link(1, 1, 1)
            .build();
        let fib = t.fib();
        let cands = &fib.up_candidates[0][1];
        assert_eq!(cands.len(), 2);
        for &u in cands {
            assert_eq!(t.channel(u).dst, NodeId::Spine(SpineId(0)));
        }
    }

    #[test]
    fn rate_override_applies_to_both_directions() {
        let t = LeafSpineBuilder::new(2, 2, 1)
            .fabric_rate_gbps(80)
            .override_link_rate_gbps(1, 1, 0, 40)
            .build();
        let slow: Vec<&Channel> = t
            .channels
            .iter()
            .filter(|c| c.rate_bps == 40_000_000_000 && c.kind.is_fabric())
            .collect();
        assert_eq!(slow.len(), 2);
    }

    #[test]
    fn hosts_map_to_leaves_in_blocks() {
        let t = testbed();
        assert_eq!(t.leaf_of(HostId(0)), LeafId(0));
        assert_eq!(t.leaf_of(HostId(31)), LeafId(0));
        assert_eq!(t.leaf_of(HostId(32)), LeafId(1));
        assert_eq!(t.hosts_under(LeafId(1)).len(), 32);
    }

    #[test]
    fn fib_live_prunes_candidates_but_keeps_lbtags() {
        let t = testbed();
        let full = t.fib();
        // Take down both directions of the first leaf1-spine1 parallel link.
        let (up, down) = t.link_channels(leaf(1), spine(1))[0];
        let mut live = vec![true; t.channels.len()];
        live[up.idx()] = false;
        live[down.idx()] = false;
        let fib = t.fib_live(&live);
        // The dead uplink keeps its slot (and tag) but is not a candidate.
        assert_eq!(fib.leaf_uplinks, full.leaf_uplinks);
        assert_eq!(fib.lbtag_of, full.lbtag_of);
        assert_eq!(fib.up_candidates[1][0].len(), 3);
        assert!(!fib.up_candidates[1][0].contains(&up));
        // Spine 1 lost one downlink to leaf 1; leaf 0 keeps all 4 uplinks.
        assert_eq!(fib.spine_down[1][1].len(), 1);
        assert!(!fib.spine_down[1][1].contains(&down));
        assert_eq!(fib.up_candidates[0][1].len(), 4);
        // An all-true mask reproduces the unconstrained FIB.
        let all = t.fib_live(&vec![true; t.channels.len()]);
        assert_eq!(all.up_candidates, full.up_candidates);
        assert_eq!(all.spine_down, full.spine_down);
    }

    #[test]
    fn refresh_live_matches_fresh_build() {
        let t = testbed();
        let mut fib = t.fib();
        // Fail, recover, and fail a different link: after every transition
        // the in-place refresh must equal a from-scratch fib_live build.
        let (up_a, down_a) = t.link_channels(leaf(1), spine(1))[0];
        let (up_b, down_b) = t.link_channels(leaf(0), spine(0))[1];
        let mut live = vec![true; t.channels.len()];
        let transitions: [(&[ChannelId], bool); 3] = [
            (&[up_a, down_a], false),
            (&[up_a, down_a], true),
            (&[up_b, down_b], false),
        ];
        for (chs, state) in transitions {
            for ch in chs {
                live[ch.idx()] = state;
            }
            fib.refresh_live(&t, &live);
            let fresh = t.fib_live(&live);
            assert_eq!(fib.up_candidates, fresh.up_candidates);
            assert_eq!(fib.spine_down, fresh.spine_down);
            assert_eq!(fib.leaf_uplinks, fresh.leaf_uplinks);
            assert_eq!(fib.lbtag_of, fresh.lbtag_of);
        }
    }

    #[test]
    fn fib_live_drops_spine_with_no_live_downlink() {
        let t = testbed();
        let mut live = vec![true; t.channels.len()];
        for (up, down) in t.link_channels(leaf(1), spine(1)) {
            live[up.idx()] = false;
            live[down.idx()] = false;
        }
        let fib = t.fib_live(&live);
        // Spine 1 cannot reach leaf 1 at all: leaf 0 must avoid it.
        assert_eq!(fib.up_candidates[0][1].len(), 2);
        for &u in &fib.up_candidates[0][1] {
            assert_eq!(t.channel(u).dst, NodeId::Spine(SpineId(0)));
        }
        assert_eq!(fib.up_candidates[1][0].len(), 2);
    }

    #[test]
    fn link_channels_pairs_both_directions_in_parallel_order() {
        let t = testbed();
        let pairs = t.link_channels(leaf(0), spine(1));
        assert_eq!(pairs.len(), 2, "2 parallel links");
        for (up, down) in pairs {
            assert_eq!(t.channel(up).src, NodeId::Leaf(LeafId(0)));
            assert_eq!(t.channel(up).dst, NodeId::Spine(SpineId(1)));
            assert_eq!(t.channel(down).src, NodeId::Spine(SpineId(1)));
            assert_eq!(t.channel(down).dst, NodeId::Leaf(LeafId(0)));
        }
        // Statically failed links are absent from the pair list.
        let t2 = LeafSpineBuilder::new(2, 2, 4)
            .parallel_links(2)
            .fail_link(1, 1, 0)
            .build();
        assert_eq!(t2.link_channels(leaf(1), spine(1)).len(), 1);
        assert_eq!(t2.link_channels(leaf(0), spine(1)).len(), 2);
        // One tier up, the same lookup pairs spine→core with core→spine.
        let t3 = three_tier();
        let pairs = t3.link_channels(spine(1), core(0));
        assert_eq!(pairs.len(), 1);
        let (up, down) = pairs[0];
        assert_eq!(t3.channel(up).kind, ChannelKind::SpineUp);
        assert_eq!(
            (t3.channel(up).src, t3.channel(up).dst),
            (spine(1), core(0))
        );
        assert_eq!(t3.channel(down).kind, ChannelKind::CoreDown);
        assert_eq!(
            (t3.channel(down).src, t3.channel(down).dst),
            (core(0), spine(1))
        );
    }

    #[test]
    fn large_fabric_fig16_shape() {
        // Paper Figure 16: 6 leaves x 4 spines x 3 parallel 40G links.
        let t = LeafSpineBuilder::new(6, 4, 8).parallel_links(3).build();
        let fib = t.fib();
        for l in 0..6 {
            assert_eq!(fib.leaf_uplinks[l].len(), 12);
        }
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(5)), 12 * 3);
    }

    fn three_tier() -> Topology {
        // 2 pods x (2 leaves + 2 spines), 2 cores, 4 hosts/leaf.
        TopologyBuilder::three_tier(2, 2, 2, 2, 4).build()
    }

    #[test]
    fn three_tier_shape_and_pod_structure() {
        let t = three_tier();
        assert_eq!(
            (t.n_hosts, t.n_leaves, t.n_spines, t.n_cores),
            (16, 4, 4, 2)
        );
        assert_eq!(t.n_pods, 2);
        assert_eq!(t.leaves_per_pod(), 2);
        assert_eq!(t.spines_per_pod(), 2);
        assert_eq!(t.pod_of_leaf(LeafId(1)), 0);
        assert_eq!(t.pod_of_leaf(LeafId(2)), 1);
        assert_eq!(t.pod_of_spine(SpineId(3)), 1);
        // Channels: 16 access pairs + 4 leaves x 2 pod spines pairs
        // + 4 spines x 2 cores pairs.
        assert_eq!(t.channels.len(), 16 * 2 + 4 * 2 * 2 + 4 * 2 * 2);
        // Leaf 0 meshes only with pod-0 spines.
        let fib = t.fib();
        for &u in &fib.leaf_uplinks[0] {
            let NodeId::Spine(s) = t.channel(u).dst else {
                panic!("uplink must end at a spine")
            };
            assert_eq!(t.pod_of_spine(s), 0);
        }
        assert_eq!(fib.spine_up[0].len(), 2, "each spine sees both cores");
    }

    #[test]
    fn three_tier_routes_inter_pod_via_core_only() {
        let t = three_tier();
        let fib = t.fib();
        // Intra-pod dst: direct spine descent; spine-up detour not needed
        // but spines can still reach it through the core.
        assert!(!fib.spine_down[0][1].is_empty());
        // Inter-pod dst (leaf 2 in pod 1): pod-0 spines have NO direct
        // downlink and must go through the core tier.
        assert!(fib.spine_down[0][2].is_empty());
        assert_eq!(fib.spine_up_candidates[0][2].len(), 2);
        assert_eq!(
            fib.core_down[0][2].len(),
            2,
            "both pod-1 spines reach leaf 2"
        );
        // All of leaf 0's uplinks remain candidates for the inter-pod dst.
        assert_eq!(fib.up_candidates[0][2].len(), 2);
        // Inter-pod paths: 2 uplinks x 2 cores x 2 down-spines x 1 downlink.
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(2)), 8);
        // Intra-pod paths look exactly like a two-tier fabric's.
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(1)), 2);
    }

    #[test]
    fn three_tier_refresh_live_matches_fresh_build() {
        let t = three_tier();
        let mut fib = t.fib();
        let (su, cd) = t.link_channels(spine(2), core(0))[0];
        let (lu, sd) = t.link_channels(leaf(2), spine(2))[0];
        let mut live = vec![true; t.channels.len()];
        let transitions: [(&[ChannelId], bool); 3] =
            [(&[su, cd], false), (&[lu, sd], false), (&[su, cd], true)];
        for (chs, state) in transitions {
            for ch in chs {
                live[ch.idx()] = state;
            }
            fib.refresh_live(&t, &live);
            let fresh = t.fib_live(&live);
            assert_eq!(fib.up_candidates, fresh.up_candidates);
            assert_eq!(fib.spine_down, fresh.spine_down);
            assert_eq!(fib.spine_up_candidates, fresh.spine_up_candidates);
            assert_eq!(fib.core_down, fresh.core_down);
            assert_eq!(fib.spine_up, fresh.spine_up);
        }
    }

    #[test]
    fn three_tier_core_failure_prunes_detours_not_tags() {
        let t = three_tier();
        let full = t.fib();
        // Kill core 0 entirely (all its links, both directions).
        let mut live = vec![true; t.channels.len()];
        for s in 0..t.n_spines {
            for (su, cd) in t.link_channels(spine(s), core(0)) {
                live[su.idx()] = false;
                live[cd.idx()] = false;
            }
        }
        let fib = t.fib_live(&live);
        // LBTags and uplink slots are untouched.
        assert_eq!(fib.leaf_uplinks, full.leaf_uplinks);
        assert_eq!(fib.lbtag_of, full.lbtag_of);
        assert_eq!(fib.spine_up, full.spine_up);
        // Inter-pod candidates survive through core 1, at half the paths.
        assert_eq!(fib.spine_up_candidates[0][2].len(), 1);
        assert_eq!(fib.up_candidates[0][2].len(), 2);
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(2)), 4);
    }

    #[test]
    fn three_tier_pod_downlink_failure_detours_through_core() {
        // Kill spine 0's only downlink to leaf 1 (same pod): leaf 0's
        // uplink to spine 0 must stay a candidate for leaf 1, because the
        // spine can detour up through a core and down via spine 1.
        let t = three_tier();
        let (lu, sd) = t.link_channels(leaf(1), spine(0))[0];
        let mut live = vec![true; t.channels.len()];
        live[lu.idx()] = false;
        live[sd.idx()] = false;
        let fib = t.fib_live(&live);
        assert!(fib.spine_down[0][1].is_empty());
        assert_eq!(fib.spine_up_candidates[0][1].len(), 2);
        assert_eq!(fib.up_candidates[0][1].len(), 2);
        // Paths 0→1: spine0 detour (2 cores x 1 spine x 1 downlink = 2)
        // plus spine1 direct (1).
        assert_eq!(fib.path_count(&t, LeafId(0), LeafId(1)), 3);
    }

    #[test]
    fn channel_lists_match_the_two_builders_this_one_replaced() {
        // FNV-1a/64 over every channel — position, endpoints, kind, rate,
        // delay, queue capacity — and its LBTag, as `LeafSpineBuilder` and
        // `ThreeTierBuilder` built them at commit c12c10d. Channel ids are
        // positions in this list and every golden hangs off them: not one
        // channel may move.
        let fnv = |t: &Topology| {
            let fib = t.fib();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for (i, c) in t.channels.iter().enumerate() {
                let line = format!(
                    "{i} {:?}>{:?} {:?} {}bps {}ns {}B tag{}\n",
                    c.src,
                    c.dst,
                    c.kind,
                    c.rate_bps,
                    c.delay.as_nanos(),
                    c.queue_cap,
                    fib.lbtag_of[i]
                );
                for b in line.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        };
        let fig7b = LeafSpineBuilder::new(2, 2, 32)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2)
            .fail_link(1, 1, 0)
            .build();
        assert_eq!(fig7b.channels.len(), 142);
        assert_eq!(fnv(&fig7b), 0xb690_e17f_e6f6_e16d);
        let clos = TopologyBuilder::three_tier(4, 4, 2, 2, 16).build();
        assert_eq!(fnv(&clos), 0x28ba_57f1_b2fe_252f);
    }

    #[test]
    fn single_pod_three_tier_matches_leaf_spine_channels() {
        // n_pods == 1, n_cores == 0 degenerates to the two-tier builder.
        let a = TopologyBuilder::three_tier(1, 2, 2, 0, 4).build();
        let b = LeafSpineBuilder::new(2, 2, 4).build();
        assert_eq!(a.channels.len(), b.channels.len());
        for (x, y) in a.channels.iter().zip(&b.channels) {
            assert_eq!((x.src, x.dst, x.kind), (y.src, y.dst, y.kind));
            assert_eq!(
                (x.rate_bps, x.delay, x.queue_cap),
                (y.rate_bps, y.delay, y.queue_cap)
            );
        }
        let fa = a.fib();
        let fb = b.fib();
        assert_eq!(fa.up_candidates, fb.up_candidates);
        assert_eq!(fa.spine_down, fb.spine_down);
        assert_eq!(fa.lbtag_of, fb.lbtag_of);
    }
}
