//! The flowlet table (paper §3.4).
//!
//! A hash-indexed table of 64 K entries, each holding the uplink chosen for
//! the currently-active flowlet of whatever flow(s) hash there. There is no
//! key check: colliding flows simply share an entry, which costs load-
//! balancing opportunities but never correctness (paper Remark 1).
//!
//! The hardware expires entries with a single *age bit* swept every `T_fl`:
//! a packet clears the bit; the sweep expires entries whose bit is still set
//! from the previous sweep. The observable effect is that a flowlet gap is
//! declared after an idle interval somewhere in `(T_fl, 2·T_fl]`, depending
//! on where the last packet fell in the sweep phase. Both that behaviour
//! ([`GapMode::AgeBit`]) and the idealized exact-timestamp variant
//! ([`GapMode::Exact`]) are implemented — lazily, with no timer events: the
//! expiry instant of the age-bit scheme is a pure function of the last
//! packet's timestamp.

use crate::params::GapMode;
use conga_net::ChannelId;
use conga_sim::{SimDuration, SimTime};

#[derive(Clone, Copy, Debug)]
struct Entry {
    port: ChannelId,
    last_seen: SimTime,
    ever_used: bool,
}

/// Result of a flowlet-table lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// The flowlet is active; keep using this uplink (the entry's timestamp
    /// has been refreshed).
    Active(ChannelId),
    /// A new flowlet begins. `prev` is the uplink the *previous* flowlet in
    /// this entry used, if any — the paper's tie-break prefers it so a flow
    /// only moves when a strictly better path exists.
    NewFlowlet {
        /// Uplink cached in the (expired) entry.
        prev: Option<ChannelId>,
    },
}

/// Statistics the table keeps for analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowletStats {
    /// Lookups that found an active flowlet.
    pub hits: u64,
    /// Lookups that started a new flowlet.
    pub new_flowlets: u64,
}

/// A leaf switch's flowlet table.
///
/// The slots are allocated by the first [`FlowletTable::lookup`] or
/// [`FlowletTable::commit`], not by `new`: a fabric model builds one table
/// per leaf, and a leaf that sources no traffic — every leaf outside its
/// own group in a shard domain's replica — never pays the megabyte.
#[derive(Clone, Debug)]
pub struct FlowletTable {
    /// Empty until first touched, then `mask + 1` slots.
    entries: Vec<Entry>,
    mask: usize,
    tfl: SimDuration,
    mode: GapMode,
    /// Counters.
    pub stats: FlowletStats,
}

impl FlowletTable {
    /// Create a table with `entries` slots (rounded up to a power of two)
    /// and inactivity timeout `tfl`.
    pub fn new(entries: usize, tfl: SimDuration, mode: GapMode) -> Self {
        FlowletTable {
            entries: Vec::new(),
            mask: entries.next_power_of_two().max(2) - 1,
            tfl,
            mode,
            stats: FlowletStats::default(),
        }
    }

    /// Index of the slot `flow_hash` hashes to; the first call allocates
    /// the slots.
    #[inline]
    fn slot(&mut self, flow_hash: u64) -> usize {
        if self.entries.is_empty() {
            self.entries = vec![
                Entry {
                    port: ChannelId(0),
                    last_seen: SimTime::ZERO,
                    ever_used: false,
                };
                self.mask + 1
            ];
        }
        // The low bits of the already-avalanched flow hash index the table.
        (flow_hash as usize) & self.mask
    }

    /// When does an entry last touched at `last_seen` expire?
    #[inline]
    fn expiry(&self, last_seen: SimTime) -> SimTime {
        let tfl = self.tfl.as_nanos();
        match self.mode {
            // Exact: gap declared strictly after T_fl of silence.
            GapMode::Exact => SimTime::from_nanos(last_seen.as_nanos() + tfl),
            // Age bit: the sweep at the *second* period boundary after the
            // last packet finds the age bit still set and expires the entry.
            GapMode::AgeBit => SimTime::from_nanos((last_seen.as_nanos() / tfl + 2) * tfl),
        }
    }

    /// Look up the flowlet for `flow_hash` at time `now`. If active, the
    /// entry is refreshed and its uplink returned; otherwise the caller must
    /// make a load-balancing decision and [`FlowletTable::commit`] it.
    pub fn lookup(&mut self, flow_hash: u64, now: SimTime) -> Lookup {
        let i = self.slot(flow_hash);
        let expiry = self.expiry(self.entries[i].last_seen);
        let e = &mut self.entries[i];
        if e.ever_used && now < expiry {
            e.last_seen = now;
            self.stats.hits += 1;
            Lookup::Active(e.port)
        } else {
            self.stats.new_flowlets += 1;
            Lookup::NewFlowlet {
                prev: e.ever_used.then_some(e.port),
            }
        }
    }

    /// Record the decision for a new flowlet: cache `port` and mark the
    /// entry valid.
    pub fn commit(&mut self, flow_hash: u64, port: ChannelId, now: SimTime) {
        let i = self.slot(flow_hash);
        self.entries[i] = Entry {
            port,
            last_seen: now,
            ever_used: true,
        };
    }

    /// Number of slots (configured; allocated or not).
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Whether the slots have been allocated (the table was ever touched).
    pub fn is_allocated(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Entries holding a live (unexpired) flowlet at `now`. An O(capacity)
    /// scan — only the telemetry sampler calls this, and only on sampled
    /// runs, so the cost never touches the event hot path.
    pub fn occupancy(&self, now: SimTime) -> usize {
        self.entries
            .iter()
            .filter(|e| e.ever_used && now < self.expiry(e.last_seen))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(mode: GapMode) -> FlowletTable {
        FlowletTable::new(1024, SimDuration::from_micros(500), mode)
    }

    #[test]
    fn first_packet_starts_a_flowlet() {
        let mut t = table(GapMode::Exact);
        assert_eq!(
            t.lookup(42, SimTime::ZERO),
            Lookup::NewFlowlet { prev: None }
        );
        t.commit(42, ChannelId(3), SimTime::ZERO);
        assert_eq!(t.stats.new_flowlets, 1);
    }

    #[test]
    fn packets_within_gap_stick_to_port() {
        let mut t = table(GapMode::Exact);
        t.lookup(42, SimTime::ZERO);
        t.commit(42, ChannelId(3), SimTime::ZERO);
        for us in [100u64, 400, 800, 1200] {
            // Each packet refreshes the timestamp, so 400us steps never gap.
            assert_eq!(
                t.lookup(42, SimTime::from_micros(us)),
                Lookup::Active(ChannelId(3)),
                "at {us}us"
            );
        }
        assert_eq!(t.stats.hits, 4);
    }

    #[test]
    fn exact_mode_gaps_after_exactly_tfl() {
        let mut t = table(GapMode::Exact);
        t.lookup(7, SimTime::ZERO);
        t.commit(7, ChannelId(1), SimTime::ZERO);
        // 499us later: still active.
        assert!(matches!(
            t.lookup(7, SimTime::from_micros(499)),
            Lookup::Active(_)
        ));
        // That lookup refreshed the entry; 501us after it: expired.
        assert_eq!(
            t.lookup(7, SimTime::from_micros(499 + 501)),
            Lookup::NewFlowlet {
                prev: Some(ChannelId(1))
            }
        );
    }

    #[test]
    fn age_bit_mode_gap_window_is_tfl_to_2tfl() {
        // Last packet at 100us into a 500us period: sweep at 500us clears...
        // sets the age bit; sweep at 1000us expires. Idle threshold = 900us.
        let mut t = table(GapMode::AgeBit);
        t.lookup(7, SimTime::from_micros(100));
        t.commit(7, ChannelId(1), SimTime::from_micros(100));
        // 899us of silence -> still active (expiry at t=1000us).
        assert!(matches!(
            t.lookup(7, SimTime::from_micros(999)),
            Lookup::Active(_)
        ));
        // Entry refreshed at 999us; expiry now at (999/500+2)*500 = 1500us.
        assert!(matches!(
            t.lookup(7, SimTime::from_micros(1499)),
            Lookup::Active(_)
        ));
        // Refreshed at 1499us (period 2); expiry at (2+2)*500 = 2000us.
        assert!(matches!(
            t.lookup(7, SimTime::from_micros(1999)),
            Lookup::Active(_)
        ));
        // Refreshed at 1999us (period 3); expiry at 2500us: a 501us-past-
        // expiry gap must expire the entry.
        let e = t.lookup(7, SimTime::from_micros(2500));
        assert_eq!(
            e,
            Lookup::NewFlowlet {
                prev: Some(ChannelId(1))
            }
        );
    }

    #[test]
    fn age_bit_detected_gap_bounds() {
        // Sweep the last-packet phase across the period and verify the idle
        // time needed to expire is always in (Tfl, 2*Tfl].
        let tfl = 500_000u64; // ns
        for phase_ns in (0..tfl).step_by(50_000) {
            let mut t = table(GapMode::AgeBit);
            let last = SimTime::from_nanos(7 * tfl + phase_ns);
            t.lookup(9, last);
            t.commit(9, ChannelId(2), last);
            // Find the smallest idle gap that expires the entry.
            let expiry = (last.as_nanos() / tfl + 2) * tfl;
            let gap = expiry - last.as_nanos();
            assert!(gap > tfl && gap <= 2 * tfl, "phase {phase_ns}: gap {gap}");
            assert!(matches!(
                t.lookup(9, SimTime::from_nanos(expiry - 1)),
                Lookup::Active(_)
            ));
            // Fresh table to avoid the refresh from the previous assert.
            let mut t2 = table(GapMode::AgeBit);
            t2.lookup(9, last);
            t2.commit(9, ChannelId(2), last);
            assert!(matches!(
                t2.lookup(9, SimTime::from_nanos(expiry)),
                Lookup::NewFlowlet { .. }
            ));
        }
    }

    #[test]
    fn collisions_share_entries_without_error() {
        let mut t = FlowletTable::new(2, SimDuration::from_micros(500), GapMode::Exact);
        // Two flows, same slot (hashes congruent mod 2).
        t.lookup(4, SimTime::ZERO);
        t.commit(4, ChannelId(0), SimTime::ZERO);
        // Flow with hash 6 collides and inherits the active entry.
        assert_eq!(
            t.lookup(6, SimTime::from_micros(10)),
            Lookup::Active(ChannelId(0))
        );
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let t = FlowletTable::new(60_000, SimDuration::from_micros(500), GapMode::Exact);
        assert_eq!(t.capacity(), 65_536);
    }

    #[test]
    fn slots_are_allocated_on_first_touch() {
        for touch_by_commit in [false, true] {
            let mut t = table(GapMode::AgeBit);
            assert!(!t.is_allocated());
            assert_eq!(
                t.capacity(),
                1024,
                "configured size, before any slot exists"
            );
            assert_eq!(t.occupancy(SimTime::from_micros(1)), 0);
            assert!(!t.is_allocated(), "reading does not allocate");
            if touch_by_commit {
                t.commit(5, ChannelId(1), SimTime::ZERO);
            } else {
                assert_eq!(
                    t.lookup(5, SimTime::ZERO),
                    Lookup::NewFlowlet { prev: None }
                );
            }
            assert!(t.is_allocated());
            assert_eq!(t.capacity(), 1024);
            assert_eq!(t.occupancy(SimTime::ZERO), touch_by_commit as usize);
        }
    }

    #[test]
    fn occupancy_counts_live_entries_only() {
        let mut t = table(GapMode::Exact);
        assert_eq!(t.occupancy(SimTime::ZERO), 0);
        t.commit(1, ChannelId(0), SimTime::ZERO);
        t.commit(2, ChannelId(1), SimTime::from_micros(300));
        assert_eq!(t.occupancy(SimTime::from_micros(400)), 2);
        // Entry 1 (last seen t=0, Tfl=500us) has expired by 600us.
        assert_eq!(t.occupancy(SimTime::from_micros(600)), 1);
        assert_eq!(t.occupancy(SimTime::from_micros(2000)), 0);
    }

    #[test]
    fn distinct_slots_are_independent() {
        let mut t = table(GapMode::Exact);
        t.lookup(1, SimTime::ZERO);
        t.commit(1, ChannelId(5), SimTime::ZERO);
        assert_eq!(
            t.lookup(2, SimTime::from_micros(1)),
            Lookup::NewFlowlet { prev: None }
        );
    }
}
