//! # conga-net — packet-level datacenter fabric model
//!
//! The network substrate of the CONGA reproduction: packets with the
//! VXLAN-carried CONGA overlay header, byte-accurate drop-tail transmit
//! ports, parameterizable (and failable) Leaf-Spine topologies, and an
//! event-driven forwarding engine with two plug-in points — the switch
//! [`Dataplane`] (load-balancing policies, implemented in `conga-core`) and
//! the end-host [`HostAgent`] (transports, implemented in `conga-transport`).

#![warn(missing_docs)]

mod engine;
mod ids;
mod packet;
mod port;
mod shard;
mod topology;

pub use engine::{
    inject, Dataplane, EcnConfig, Emitter, EngineStats, HostAgent, Network, SinkAgent,
};
pub use ids::{ChannelId, CoreId, HostId, LeafId, Link, NodeId, SpineId};
pub use packet::{
    ecmp_mix, flow_tuple_hash, Overlay, Packet, PacketKind, SackBlocks, ACK_WIRE_BYTES, MAX_LBTAG,
    WIRE_OVERHEAD,
};
pub use port::{Enqueue, TxPort};
pub use shard::{Mail, PartitionTable, ShardedNetwork};
pub use topology::{
    Channel, ChannelKind, Fib, LeafSpineBuilder, QueueProfile, Topology, TopologyBuilder,
};
