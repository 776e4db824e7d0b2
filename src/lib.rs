//! # conga — a Rust reproduction of CONGA (SIGCOMM 2014)
//!
//! *CONGA: Distributed Congestion-Aware Load Balancing for Datacenters*
//! (Alizadeh et al.) built from scratch on a deterministic packet-level
//! network simulator. This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — discrete-event engine (clock, event queue, seeded RNG);
//! * [`net`] — packets with the CONGA overlay header, drop-tail ports,
//!   Leaf-Spine topologies with failure injection, the forwarding engine;
//! * [`transport`] — per-packet TCP (SACK-style recovery, configurable
//!   minRTO) and MPTCP with LIA coupling;
//! * [`core`] — the CONGA dataplane (DRE, flowlet table, leaf-to-leaf
//!   congestion feedback) and the baseline load balancers;
//! * [`workloads`] — empirical flow-size distributions and traffic
//!   generators (Poisson, Incast, HDFS-write, bursty traces);
//! * [`analysis`] — FCT statistics, throughput imbalance, the bottleneck
//!   routing game (Price of Anarchy), the Theorem-2 imbalance model;
//! * [`telemetry`] — run-level metrics registry and the deterministic
//!   [`RunReport`](telemetry::RunReport) JSON artifact;
//! * [`trace`] — structured event tracing with decision provenance,
//!   deterministic JSONL + Chrome `trace_event` exporters, and the
//!   `trace_explain` replay tool;
//! * [`fleet`] — the experiment orchestrator: hashable scenario specs, a
//!   parallel cell executor with deterministic merge, and the
//!   content-addressed result cache behind the `fleet` binary;
//! * [`experiments`] — the figure harness (testbed topologies, the scheme
//!   matrix, the open-loop FCT runner).
//!
//! ## Quickstart
//!
//! ```
//! use conga::net::{LeafSpineBuilder, Network, HostId};
//! use conga::core::FabricPolicy;
//! use conga::transport::{TransportLayer, FlowSpec, TransportKind, TcpConfig};
//! use conga::sim::SimTime;
//!
//! // The paper's testbed: 64 hosts, 2 leaves, 2 spines, 2x40G uplinks.
//! let topo = LeafSpineBuilder::new(2, 2, 32)
//!     .host_rate_gbps(10)
//!     .fabric_rate_gbps(40)
//!     .parallel_links(2)
//!     .build();
//! let mut net = Network::new(topo, FabricPolicy::conga(), TransportLayer::new(), 42);
//! net.agent_call(|a, now, em| {
//!     a.start_flow(
//!         FlowSpec {
//!             src: HostId(0),
//!             dst: HostId(40),
//!             bytes: 1_000_000,
//!             kind: TransportKind::Tcp(TcpConfig::standard()),
//!         },
//!         now,
//!         em,
//!     )
//! });
//! net.run_until(SimTime::from_millis(50));
//! assert!(net.agent.records[0].fct().is_some());
//! ```

pub use conga_analysis as analysis;
pub use conga_core as core;
pub use conga_experiments as experiments;
pub use conga_fleet as fleet;
pub use conga_net as net;
pub use conga_sim as sim;
pub use conga_telemetry as telemetry;
pub use conga_trace as trace;
pub use conga_transport as transport;
pub use conga_workloads as workloads;
