//! CONGA's part of the leaf pipeline (paper §3, Figure 6).
//!
//! [`Conga`] is the shared [`Pipeline`] — flowlet tables, fabric-link DREs,
//! LBTag stamping, spine ECMP (paper footnote 3) — running
//! [`CongaPolicy`], which adds what only CONGA has:
//!
//! * per leaf: a [`CongestionToLeaf`] table and a [`CongestionFromLeaf`]
//!   table, and the feedback loop between them — one metric piggybacked on
//!   every packet entering the fabric, harvested at the destination leaf;
//! * per fabric transmission: the link's DRE folded into the packet's CE
//!   field (the hop-by-hop maximum of §3.3);
//! * decision provenance in the trace.
//!
//! The decision rule (§3.5): on the first packet of a flowlet, pick the
//! uplink minimizing `max(local DRE metric, remote Congestion-To-Leaf
//! metric)`; break ties in favour of the port the flow's previous flowlet
//! used (a flow only moves if a strictly better uplink exists), then
//! randomly.

use crate::dre::DreBank;
use crate::params::CongaParams;
use crate::pipeline::{Decision, LeafPolicy, Pipeline, Shared, Why};
use crate::tables::{CongestionFromLeaf, CongestionToLeaf};
use conga_net::{ChannelId, Fib, LeafId, Packet, Topology, MAX_LBTAG};
use conga_sim::{SimRng, SimTime};
use conga_telemetry::MetricsRegistry;
use conga_trace::{Candidate, TraceEvent};

/// The CONGA dataplane: implements `conga_net::Dataplane` for the whole
/// fabric.
pub type Conga = Pipeline<CongaPolicy>;

/// Per-leaf congestion tables.
#[derive(Clone, Debug)]
struct LeafTables {
    to_leaf: CongestionToLeaf,
    from_leaf: CongestionFromLeaf,
}

/// CONGA's policy-specific state: the leaf-to-leaf feedback tables, the
/// decision rule and its counters.
#[derive(Clone, Debug, Default)]
pub struct CongaPolicy {
    leaves: Vec<LeafTables>,
    /// Incremental deployment (paper §7): CONGA decides only at the flagged
    /// leaves and the rest hash like ECMP. DREs, CE marking and the egress
    /// tables still run fabric-wide — exactly as in a real rollout, where
    /// spine ASICs are upgraded first and legacy ToRs simply ignore the
    /// overlay congestion fields; traffic CONGA does not control just
    /// becomes bandwidth asymmetry it adapts around. `None` = every leaf.
    conga_leaves: Option<Vec<bool>>,
    /// Decisions where the flow stayed on its previous port (tie-break).
    pub sticky_decisions: u64,
    /// Decisions that moved a flow to a strictly better port.
    pub moved_decisions: u64,
    /// DRE updates (one per fabric transmission).
    pub dre_updates: u64,
    /// Fabric transmissions where the link's DRE raised the packet's CE.
    pub ce_raised: u64,
    /// Feedback metrics piggybacked onto outgoing packets (§3.3 step 4).
    pub feedback_piggybacked: u64,
    /// Feedback metrics harvested into Congestion-To-Leaf at egress.
    pub feedback_harvested: u64,
    /// Path-congestion observations recorded into Congestion-From-Leaf.
    pub from_leaf_records: u64,
}

impl Conga {
    /// CONGA with the given parameters.
    pub fn new(params: CongaParams) -> Self {
        Pipeline::with("conga", params, CongaPolicy::default())
    }

    /// The paper's CONGA-Flow variant (one decision per flow).
    pub fn conga_flow() -> Self {
        Pipeline::with(
            "conga-flow",
            CongaParams::conga_flow(),
            CongaPolicy::default(),
        )
    }

    /// CONGA on the leaves whose flag is true, plain ECMP on the rest.
    pub fn incremental(params: CongaParams, conga_leaves: Vec<bool>) -> Self {
        let policy = CongaPolicy {
            conga_leaves: Some(conga_leaves),
            ..CongaPolicy::default()
        };
        Pipeline::with("incremental", params, policy)
    }
}

impl CongaPolicy {
    /// Decision core: pick argmin over candidates of `max(local, remote)`.
    /// Returns the uplink and whether the tie-break kept the previous port.
    ///
    /// Kept apart from the local-only baseline's decider on purpose: this
    /// one draws a reservoir `below(k)` per tied candidate while
    /// `LocalAware` draws one `below(|ties|)` per non-sticky decision, and
    /// every policy must keep its exact RNG draw order for same-seed
    /// artifacts to stay byte-identical.
    #[allow(clippy::too_many_arguments)]
    fn decide(
        dres: &mut DreBank,
        to_leaf: &CongestionToLeaf,
        lbtag_of: &[u8],
        dst_leaf: usize,
        candidates: &[ChannelId],
        prev: Option<ChannelId>,
        now: SimTime,
        rng: &mut SimRng,
        mut capture: Option<&mut Vec<Candidate>>,
    ) -> (ChannelId, bool) {
        debug_assert!(!candidates.is_empty());
        let mut best: u16 = u16::MAX;
        // Single-pass reservoir over the tied minimum: the k-th candidate
        // matching the best metric replaces the provisional pick with
        // probability 1/k, so every tied uplink is equally likely no matter
        // how many tie (a fixed-size tie buffer silently dropped ties past
        // its capacity, biasing large fabrics toward low-indexed uplinks).
        let mut pick = candidates[0];
        let mut n_ties = 0u64;
        let mut tied_prev: Option<ChannelId> = None;
        for &u in candidates {
            let local = dres.quantized(u, now);
            let remote = to_leaf.read(dst_leaf, lbtag_of[u.idx()], now);
            let m = local.max(remote) as u16;
            if let Some(cap) = capture.as_deref_mut() {
                cap.push(Candidate {
                    ch: u.idx() as u32,
                    lbtag: lbtag_of[u.idx()],
                    local,
                    remote,
                    metric: local.max(remote),
                });
            }
            if m < best {
                best = m;
                pick = u;
                n_ties = 1;
                tied_prev = if prev == Some(u) { prev } else { None };
            } else if m == best {
                n_ties += 1;
                if rng.below(n_ties as usize) == 0 {
                    pick = u;
                }
                if prev == Some(u) {
                    tied_prev = prev;
                }
            }
        }
        // Prefer the previous port if it is among the best.
        if let Some(p) = tied_prev {
            return (p, true);
        }
        (pick, false)
    }
}

impl LeafPolicy for CongaPolicy {
    const FLOWLETS: bool = true;
    const DRES: bool = true;

    fn install(&mut self, params: &CongaParams, topo: &Topology, _fib: &Fib) {
        let nl = topo.n_leaves as usize;
        if let Some(mask) = &self.conga_leaves {
            assert_eq!(mask.len(), nl, "one incremental-rollout flag per leaf");
        }
        self.leaves = (0..nl)
            .map(|_| LeafTables {
                to_leaf: CongestionToLeaf::new(nl, MAX_LBTAG, params.metric_age),
                from_leaf: CongestionFromLeaf::new(nl, MAX_LBTAG, params.metric_age),
            })
            .collect();
    }

    fn deployed(&self, leaf: LeafId) -> bool {
        self.conga_leaves
            .as_ref()
            .is_none_or(|mask| mask[leaf.idx()])
    }

    /// Opportunistically piggyback one feedback metric for the destination
    /// leaf (paper §3.3 step 4).
    fn stamp(&mut self, sh: &Shared, leaf: LeafId, dst: usize, pkt: &mut Packet, now: SimTime) {
        let l = leaf.idx();
        let Some((tag, metric)) = self.leaves[l].from_leaf.select_feedback(dst, now) else {
            return;
        };
        if let Some(o) = pkt.overlay.as_mut() {
            o.fb_lbtag = tag;
            o.fb_metric = metric;
            o.fb_valid = true;
        }
        self.feedback_piggybacked += 1;
        if sh.tracer.wants_flow(pkt.flow) {
            sh.tracer.emit(
                now,
                TraceEvent::FeedbackPiggyback {
                    leaf: l as u32,
                    flow: pkt.flow,
                    dst_leaf: dst as u32,
                    lbtag: tag,
                    metric,
                },
            );
        }
    }

    fn choose(&mut self, sh: &mut Shared, d: &Decision<'_>, rng: &mut SimRng) -> ChannelId {
        let (l, now) = (d.leaf.idx(), d.now);
        let traced = sh.tracer.wants_flow(d.flow);
        let aged_out = match d.why {
            Why::NewFlowlet { aged_out } => aged_out,
            _ => None,
        };
        if traced {
            if let Some(p) = aged_out {
                sh.tracer.emit(
                    now,
                    TraceEvent::FlowletExpire {
                        leaf: l as u32,
                        flow: d.flow,
                        ch: p.idx() as u32,
                    },
                );
            }
        }
        let mut cap: Vec<Candidate> = Vec::new();
        let (port, sticky) = Self::decide(
            &mut sh.dres,
            &self.leaves[l].to_leaf,
            &sh.lbtag_of,
            d.dst,
            d.candidates,
            d.prev,
            now,
            rng,
            traced.then_some(&mut cap),
        );
        if sticky {
            self.sticky_decisions += 1;
        } else if aged_out.is_some() {
            self.moved_decisions += 1;
        }
        if traced {
            // The pipeline commits the port to the flowlet table right
            // after this returns, and commit emits nothing.
            if let Why::NewFlowlet { .. } = d.why {
                sh.tracer.emit(
                    now,
                    TraceEvent::FlowletNew {
                        leaf: l as u32,
                        flow: d.flow,
                        ch: port.idx() as u32,
                        prev: aged_out.map(|p| p.idx() as u32),
                    },
                );
            }
            sh.tracer.emit(
                now,
                TraceEvent::Decision {
                    leaf: l as u32,
                    flow: d.flow,
                    dst_leaf: d.dst as u32,
                    candidates: cap,
                    chosen: port.idx() as u32,
                    lbtag: sh.lbtag_of[port.idx()],
                    sticky,
                },
            );
        }
        port
    }

    fn on_dre_update(&mut self, sh: &mut Shared, ch: ChannelId, pkt: &mut Packet, now: SimTime) {
        self.dre_updates += 1;
        // Quantization is lazy but idempotent at a fixed `now`, so the
        // traced value matches what the CE update reads.
        let m = sh.dres.quantized(ch, now);
        if sh.tracer.wants_flow(pkt.flow) {
            sh.tracer.emit(
                now,
                TraceEvent::DreUpdate {
                    ch: ch.idx() as u32,
                    flow: pkt.flow,
                    bytes: pkt.size,
                    quantized: m,
                },
            );
        }
        if let Some(o) = pkt.overlay.as_mut() {
            // CE accumulates the maximum link congestion along the path.
            if m > o.ce {
                o.ce = m;
                self.ce_raised += 1;
            }
        }
    }

    fn leaf_egress(&mut self, sh: &Shared, leaf: LeafId, pkt: &Packet, now: SimTime) {
        let Some(o) = pkt.overlay.as_ref() else {
            return;
        };
        let tables = &mut self.leaves[leaf.idx()];
        // Store this packet's path congestion for later piggybacking...
        tables.from_leaf.record(o.src_tep.idx(), o.lbtag, o.ce, now);
        self.from_leaf_records += 1;
        // ...and absorb the feedback it carries into Congestion-To-Leaf.
        if o.fb_valid {
            tables
                .to_leaf
                .update(o.src_tep.idx(), o.fb_lbtag, o.fb_metric, now);
            self.feedback_harvested += 1;
            if sh.tracer.wants_flow(pkt.flow) {
                sh.tracer.emit(
                    now,
                    TraceEvent::FeedbackApply {
                        leaf: leaf.idx() as u32,
                        flow: pkt.flow,
                        src_leaf: o.src_tep.idx() as u32,
                        lbtag: o.fb_lbtag,
                        metric: o.fb_metric,
                    },
                );
            }
        }
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.set_counter("dataplane.sticky_decisions", self.sticky_decisions);
        reg.set_counter("dataplane.moved_decisions", self.moved_decisions);
        reg.set_counter("dataplane.dre_updates", self.dre_updates);
        reg.set_counter("dataplane.ce_raised", self.ce_raised);
        reg.set_counter("dataplane.feedback_piggybacked", self.feedback_piggybacked);
        reg.set_counter("dataplane.feedback_harvested", self.feedback_harvested);
        reg.set_counter("dataplane.from_leaf_records", self.from_leaf_records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conga_net::{ecmp_mix, Dataplane, HostId, LeafSpineBuilder, Overlay, SpineId};

    fn setup() -> (Topology, Fib, Conga) {
        let topo = LeafSpineBuilder::new(2, 2, 2)
            .host_rate_gbps(10)
            .fabric_rate_gbps(40)
            .parallel_links(2)
            .build();
        let fib = topo.fib();
        let mut conga = Conga::new(CongaParams::paper_default());
        conga.install(&topo, &fib);
        (topo, fib, conga)
    }

    fn fabric_pkt(flow_hash: u64, src_leaf: u32, dst_leaf: u32) -> Packet {
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
        p.overlay = Some(Overlay::new(LeafId(src_leaf), LeafId(dst_leaf)));
        p
    }

    #[test]
    fn ingress_sets_lbtag_of_chosen_uplink() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(1);
        let mut p = fabric_pkt(77, 0, 1);
        let cands = fib.up_candidates[0][1].clone();
        let ch = c.leaf_ingress(LeafId(0), &mut p, &cands, SimTime::ZERO, &mut rng);
        assert!(cands.contains(&ch));
        assert_eq!(p.overlay.unwrap().lbtag, fib.lbtag_of[ch.idx()]);
    }

    #[test]
    fn flowlet_keeps_packets_on_one_uplink() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(2);
        let cands = fib.up_candidates[0][1].clone();
        let mut first = fabric_pkt(99, 0, 1);
        let ch0 = c.leaf_ingress(LeafId(0), &mut first, &cands, SimTime::ZERO, &mut rng);
        for i in 1..50u64 {
            let mut p = fabric_pkt(99, 0, 1);
            let t = SimTime::from_micros(i * 10); // well under T_fl
            let ch = c.leaf_ingress(LeafId(0), &mut p, &cands, t, &mut rng);
            assert_eq!(ch, ch0, "flowlet must not switch paths mid-burst");
        }
        assert_eq!(c.flowlet_stats(LeafId(0)).new_flowlets, 1);
    }

    #[test]
    fn decision_avoids_congested_uplink_via_remote_metric() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(3);
        let cands = fib.up_candidates[0][1].clone();
        let now = SimTime::from_micros(100);
        // Feedback says: every uplink except tag 2 is badly congested.
        for &u in &cands {
            let tag = fib.lbtag_of[u.idx()];
            let metric = if tag == 2 { 0 } else { 7 };
            c.policy.leaves[0].to_leaf.update(1, tag, metric, now);
        }
        // Many distinct flows: all must pick the uncongested uplink.
        for f in 0..20u64 {
            let mut p = fabric_pkt(1000 + f, 0, 1);
            let ch = c.leaf_ingress(LeafId(0), &mut p, &cands, now, &mut rng);
            assert_eq!(fib.lbtag_of[ch.idx()], 2, "flow {f} took a congested path");
        }
    }

    #[test]
    fn decision_avoids_congested_uplink_via_local_dre() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(4);
        let cands = fib.up_candidates[0][1].clone();
        let now = SimTime::from_micros(50);
        // Blast the DRE of uplink 0 to saturation.
        let hot = cands[0];
        for _ in 0..10_000 {
            c.on_fabric_tx(hot, &mut fabric_pkt(1, 0, 1), now);
        }
        for f in 0..20u64 {
            let mut p = fabric_pkt(2000 + f, 0, 1);
            let ch = c.leaf_ingress(LeafId(0), &mut p, &cands, now, &mut rng);
            assert_ne!(ch, hot, "flow {f} picked the locally congested uplink");
        }
    }

    #[test]
    fn ce_field_accumulates_max_along_path() {
        let (_t, fib, mut c) = setup();
        let now = SimTime::from_micros(10);
        let up = fib.leaf_uplinks[0][0];
        // Pre-load the DRE so the quantized metric is nonzero.
        for _ in 0..5_000 {
            c.on_fabric_tx(up, &mut fabric_pkt(5, 0, 1), now);
        }
        let mut p = fabric_pkt(6, 0, 1);
        c.on_fabric_tx(up, &mut p, now);
        let ce1 = p.overlay.unwrap().ce;
        assert!(ce1 > 0);
        // A later hop with an idle DRE must not lower CE.
        let down = fib.spine_down[0][1][0];
        c.on_fabric_tx(down, &mut p, now);
        assert!(p.overlay.unwrap().ce >= ce1, "CE must be a running max");
    }

    #[test]
    fn egress_and_feedback_close_the_loop() {
        let (_t, fib, mut c) = setup();
        let now = SimTime::from_micros(20);
        // Leaf 1 receives a packet from leaf 0 with lbtag 3, CE 6.
        let mut p = fabric_pkt(8, 0, 1);
        {
            let o = p.overlay.as_mut().unwrap();
            o.lbtag = 3;
            o.ce = 6;
        }
        c.leaf_egress(LeafId(1), &p, now);
        // When leaf 1 later sends to leaf 0, the feedback must ride along —
        // using the same FIB the dataplane was installed with.
        let mut rng = SimRng::new(5);
        let mut rev = fabric_pkt(9, 1, 0);
        let rcands = fib.up_candidates[1][0].clone();
        let chosen = c.leaf_ingress(LeafId(1), &mut rev, &rcands, now, &mut rng);
        assert!(rcands.contains(&chosen));
        let o = rev.overlay.unwrap();
        assert!(o.fb_valid);
        assert_eq!(o.fb_lbtag, 3);
        assert_eq!(o.fb_metric, 6);
        assert_eq!(
            o.lbtag,
            fib.lbtag_of[chosen.idx()],
            "reverse packet must carry the chosen uplink's tag"
        );
        // Leaf 0 receives the reverse packet: Congestion-To-Leaf updated.
        c.leaf_egress(LeafId(0), &rev, now);
        assert_eq!(c.policy.leaves[0].to_leaf.read(1, 3, now), 6);
    }

    /// Synthetic decision inputs: `n` equal-cost uplinks — no DRE (reads
    /// idle) and an empty remote table — so every candidate ties at
    /// metric 0.
    fn equal_cost_setup(n: usize) -> (DreBank, CongestionToLeaf, Vec<u8>, Vec<ChannelId>) {
        let age = CongaParams::paper_default().metric_age;
        let to_leaf = CongestionToLeaf::new(2, MAX_LBTAG, age);
        let candidates = (0..n).map(|i| ChannelId(i as u32)).collect();
        (DreBank::default(), to_leaf, vec![0u8; n], candidates)
    }

    #[test]
    fn tie_break_is_uniform_beyond_max_lbtag_candidates() {
        // More equal-cost candidates than the old fixed tie buffer held:
        // the fixed [ChannelId; MAX_LBTAG] array silently dropped ties past
        // MAX_LBTAG, so uplinks 16..24 could never win. The reservoir pick
        // must select all 24 uniformly.
        let n = MAX_LBTAG + 8;
        let (mut dres, to_leaf, lbtag_of, candidates) = equal_cost_setup(n);
        let mut rng = SimRng::new(42);
        let rounds = 24_000usize;
        let mut counts = vec![0usize; n];
        for _ in 0..rounds {
            let (ch, sticky) = CongaPolicy::decide(
                &mut dres,
                &to_leaf,
                &lbtag_of,
                1,
                &candidates,
                None,
                SimTime::ZERO,
                &mut rng,
                None,
            );
            assert!(!sticky);
            counts[ch.idx()] += 1;
        }
        let expected = rounds / n; // 1000 per uplink
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c >= expected * 6 / 10 && c <= expected * 14 / 10,
                "uplink {i} won {c}/{rounds} decisions (expected ~{expected})"
            );
        }
    }

    #[test]
    fn tie_break_stays_sticky_beyond_max_lbtag_candidates() {
        // The previous port ties at a position past the old buffer bound:
        // stickiness must still hold (the old code would have evicted it).
        let n = MAX_LBTAG + 8;
        let (mut dres, to_leaf, lbtag_of, candidates) = equal_cost_setup(n);
        let mut rng = SimRng::new(43);
        let prev = candidates[n - 1];
        for _ in 0..100 {
            let (ch, sticky) = CongaPolicy::decide(
                &mut dres,
                &to_leaf,
                &lbtag_of,
                1,
                &candidates,
                Some(prev),
                SimTime::ZERO,
                &mut rng,
                None,
            );
            assert_eq!(ch, prev, "equal metrics: flow must not move");
            assert!(sticky);
        }
    }

    #[test]
    fn flow_moves_only_for_strictly_better_path() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(6);
        let cands = fib.up_candidates[0][1].clone();
        // First flowlet decides at t=0 (all metrics equal -> random).
        let mut p = fabric_pkt(55, 0, 1);
        let ch0 = c.leaf_ingress(LeafId(0), &mut p, &cands, SimTime::ZERO, &mut rng);
        // Let the flowlet expire with all metrics still equal: the flow
        // must stay (tie-break prefers the cached port).
        let later = SimTime::from_millis(5);
        let mut p2 = fabric_pkt(55, 0, 1);
        let ch1 = c.leaf_ingress(LeafId(0), &mut p2, &cands, later, &mut rng);
        assert_eq!(ch0, ch1, "no strictly better path: flow must not move");
        assert!(c.policy.sticky_decisions >= 1);
    }

    #[test]
    fn spine_ecmp_spreads_flows_across_parallel_downlinks() {
        let (_t, fib, mut c) = setup();
        let mut rng = SimRng::new(7);
        let cands = fib.spine_down[0][1].clone();
        assert_eq!(cands.len(), 2);
        let mut hits = [0usize; 2];
        for f in 0..1000u64 {
            let mut p = fabric_pkt(ecmp_mix(f, 0xF00), 0, 1);
            let ch = c.spine_forward(SpineId(0), &mut p, &cands, SimTime::ZERO, &mut rng);
            hits[cands.iter().position(|&x| x == ch).unwrap()] += 1;
        }
        assert!(hits[0] > 350 && hits[1] > 350, "imbalanced: {hits:?}");
    }
}
