//! # conga-core — the CONGA dataplane and baseline load balancers
//!
//! Bit-faithful models of the mechanisms in *CONGA: Distributed
//! Congestion-Aware Load Balancing for Datacenters* (SIGCOMM 2014, §3):
//!
//! * [`Dre`] / [`DreBank`] — the Discounting Rate Estimator measuring
//!   per-link load, and the fabric's bank of them;
//! * [`FlowletTable`] — 64 K-entry hash table with age-bit gap detection;
//! * [`CongestionToLeaf`] / [`CongestionFromLeaf`] — the leaf-to-leaf
//!   feedback tables;
//! * [`Pipeline`] — the one leaf pipeline of paper Figure 6 (flowlet lookup
//!   → on a miss, the load-balancing decision → commit, stamp the LBTag),
//!   implementing the `conga_net::Dataplane` trait once for every scheme. It
//!   owns everything the schemes share — fallbacks, flowlet tables, DREs,
//!   spine ECMP, their counters, series and the trace handle — and is
//!   generic over a [`LeafPolicy`], which supplies only its choice and the
//!   hooks it genuinely has;
//! * the policies: [`CongaPolicy`] ([`Conga`] = `Pipeline<CongaPolicy>`),
//!   [`Ecmp`], [`LocalAware`], [`PacketSpray`], [`WeightedRandom`],
//!   [`LetFlow`], [`LatencyAware`];
//! * [`FabricPolicy`] — the scheme-selection enum the engine is
//!   monomorphic over, and [`FabricPolicy::zoo`], the one table of every
//!   shipped scheme.

#![warn(missing_docs)]

mod conga;
mod dre;
mod flowlet;
mod params;
mod pipeline;
mod policies;
mod tables;

pub use conga::{Conga, CongaPolicy};
pub use dre::{Dre, DreBank};
pub use flowlet::{FlowletStats, FlowletTable, Lookup};
pub use params::{CongaParams, GapMode};
pub use pipeline::{leaf_hash, Decision, FallbackTable, LeafPolicy, Pipeline, Shared, Why};
pub use policies::{
    Ecmp, FabricPolicy, LatencyAware, LatencyAwareParams, LetFlow, LocalAware, PacketSpray,
    WeightedRandom, ZooEntry,
};
pub use tables::{CongestionFromLeaf, CongestionToLeaf};
