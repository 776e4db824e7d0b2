//! Strongly-typed identifiers for network entities.
//!
//! Everything is a dense `u32` index under the hood so the engine can use
//! flat vectors instead of hash maps in the per-packet hot path.

use std::fmt;

/// Identifies a server (end host).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

/// Identifies a leaf (top-of-rack) switch — also a tunnel endpoint (TEP) in
/// the overlay.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LeafId(pub u32);

/// Identifies a spine (pod aggregation) switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpineId(pub u32);

/// Identifies a core switch (the third tier above the pod spines in a
/// three-tier Clos; absent from two-tier leaf-spine fabrics).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CoreId(pub u32);

/// Identifies a simplex channel (one direction of a physical link). The
/// transmit queue, rate and propagation delay live per-channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// Flat index for vector storage.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl HostId {
    /// Flat index for vector storage.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LeafId {
    /// Flat index for vector storage.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl SpineId {
    /// Flat index for vector storage.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl CoreId {
    /// Flat index for vector storage.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Any node in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeId {
    /// A server.
    Host(HostId),
    /// A top-of-rack switch.
    Leaf(LeafId),
    /// A pod aggregation (spine) switch.
    Spine(SpineId),
    /// A third-tier core switch.
    Core(CoreId),
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Host(h) => write!(f, "host{}", h.0),
            NodeId::Leaf(l) => write!(f, "leaf{}", l.0),
            NodeId::Spine(s) => write!(f, "spine{}", s.0),
            NodeId::Core(c) => write!(f, "core{}", c.0),
        }
    }
}

/// One physical (duplex) link at any tier: the `parallel`-th of the links
/// the built topology has between `a` and `b` (a link removed at build
/// time is not counted). Displays as `leaf1-spine1#0` or `spine0-core0#0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Link {
    /// One end, by convention the lower tier (leaf or spine).
    pub a: NodeId,
    /// The other end (spine or core).
    pub b: NodeId,
    /// Position among the built links between `a` and `b`.
    pub parallel: u32,
}

impl Link {
    /// The `parallel`-th built link between `a` and `b`.
    pub fn new(a: NodeId, b: NodeId, parallel: u32) -> Self {
        Link { a, b, parallel }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}#{}", self.a, self.b, self.parallel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(NodeId::Host(HostId(3)).to_string(), "host3");
        assert_eq!(NodeId::Leaf(LeafId(0)).to_string(), "leaf0");
        assert_eq!(NodeId::Spine(SpineId(7)).to_string(), "spine7");
        assert_eq!(NodeId::Core(CoreId(2)).to_string(), "core2");
        let leaf = NodeId::Leaf(LeafId(1));
        let spine = |s| NodeId::Spine(SpineId(s));
        assert_eq!(Link::new(leaf, spine(1), 0).to_string(), "leaf1-spine1#0");
        let core = NodeId::Core(CoreId(0));
        assert_eq!(Link::new(spine(0), core, 0).to_string(), "spine0-core0#0");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(ChannelId(1));
        s.insert(ChannelId(1));
        s.insert(ChannelId(2));
        assert_eq!(s.len(), 2);
        assert!(HostId(1) < HostId(2));
    }
}
