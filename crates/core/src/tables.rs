//! The leaf switches' congestion state tables (paper §3.3, Figure 6).
//!
//! * **Congestion-To-Leaf** (at the *source* leaf): for each destination
//!   leaf and each local uplink (LBTag), the latest path congestion metric
//!   fed back by that destination. Consulted on every load-balancing
//!   decision.
//! * **Congestion-From-Leaf** (at the *destination* leaf): for each source
//!   leaf and LBTag, the latest CE seen on arriving packets — the metrics
//!   waiting to be piggybacked back. Feedback is selected round-robin,
//!   favouring entries whose value changed since they were last sent
//!   (paper §3.3 step 4).
//!
//! Both tables age: a metric not refreshed within `metric_age` reads as
//! zero, which both bounds staleness and guarantees a congested-looking
//! path is eventually probed again.
//!
//! Both allocate their cells when the first metric is stored, not in
//! `new`: a fabric model builds the pair for every leaf, and in a shard
//! domain's replica a leaf outside the domain's group never stores one. An
//! empty table reads exactly like one whose cells are all invalid.

use conga_sim::{SimDuration, SimTime};

#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    value: u8,
    updated_at: SimTime,
    valid: bool,
    /// From-Leaf only: value changed since last piggybacked.
    changed: bool,
}

/// Congestion-To-Leaf: remote (path-wise) congestion metrics, indexed by
/// `(destination leaf, LBTag)`.
#[derive(Clone, Debug)]
pub struct CongestionToLeaf {
    /// Empty until the first `update`, then `n_leaves * n_tags` cells.
    cells: Vec<Cell>,
    n_leaves: usize,
    n_tags: usize,
    age: SimDuration,
}

impl CongestionToLeaf {
    /// Table for `n_leaves` possible destinations and `n_tags` local uplinks.
    pub fn new(n_leaves: usize, n_tags: usize, age: SimDuration) -> Self {
        CongestionToLeaf {
            cells: Vec::new(),
            n_leaves,
            n_tags,
            age,
        }
    }

    #[inline]
    fn idx(&self, dst_leaf: usize, tag: u8) -> usize {
        dst_leaf * self.n_tags + tag as usize
    }

    /// Store feedback: "path via your uplink `tag` toward `dst_leaf` has
    /// congestion `metric`".
    pub fn update(&mut self, dst_leaf: usize, tag: u8, metric: u8, now: SimTime) {
        let i = self.idx(dst_leaf, tag);
        if self.cells.is_empty() {
            self.cells = vec![Cell::default(); self.n_leaves * self.n_tags];
        }
        self.cells[i] = Cell {
            value: metric,
            updated_at: now,
            valid: true,
            changed: false,
        };
    }

    /// Read the remote metric for `(dst_leaf, tag)`. Unknown or aged-out
    /// entries read as zero — optimistic, so unprobed paths get tried.
    pub fn read(&self, dst_leaf: usize, tag: u8, now: SimTime) -> u8 {
        if self.cells.is_empty() {
            return 0;
        }
        let c = &self.cells[self.idx(dst_leaf, tag)];
        if !c.valid || now.saturating_since(c.updated_at) > self.age {
            0
        } else {
            c.value
        }
    }
}

/// Congestion-From-Leaf: CE metrics harvested from arriving packets,
/// indexed by `(source leaf, LBTag)`, with round-robin feedback selection.
#[derive(Clone, Debug)]
pub struct CongestionFromLeaf {
    /// Empty until the first `record`, then one cell per `(leaf, tag)`.
    cells: Vec<Cell>,
    /// Round-robin cursor per source leaf.
    cursor: Vec<u8>,
    n_tags: usize,
    age: SimDuration,
}

impl CongestionFromLeaf {
    /// Table for `n_leaves` possible sources, each with up to `n_tags`
    /// uplinks.
    pub fn new(n_leaves: usize, n_tags: usize, age: SimDuration) -> Self {
        CongestionFromLeaf {
            cells: Vec::new(),
            cursor: vec![0; n_leaves],
            n_tags,
            age,
        }
    }

    #[inline]
    fn idx(&self, src_leaf: usize, tag: u8) -> usize {
        src_leaf * self.n_tags + tag as usize
    }

    /// Record the CE of a packet that arrived from `src_leaf` with `tag`.
    pub fn record(&mut self, src_leaf: usize, tag: u8, ce: u8, now: SimTime) {
        let i = self.idx(src_leaf, tag);
        if self.cells.is_empty() {
            self.cells = vec![Cell::default(); self.cursor.len() * self.n_tags];
        }
        let c = &mut self.cells[i];
        // "Changed" drives the feedback priority: flag transitions only.
        if !c.valid || c.value != ce {
            c.changed = true;
        }
        c.value = ce;
        c.updated_at = now;
        c.valid = true;
    }

    /// Pick one metric to piggyback on a packet heading to `src_leaf`.
    /// Round-robin over the row, preferring changed entries; the chosen
    /// entry's changed flag is cleared. Returns `(tag, metric)`.
    pub fn select_feedback(&mut self, src_leaf: usize, now: SimTime) -> Option<(u8, u8)> {
        if self.cells.is_empty() {
            return None;
        }
        let n = self.n_tags;
        let start = self.cursor[src_leaf] as usize;
        let row = &mut self.cells[src_leaf * n..(src_leaf + 1) * n];
        let age = self.age;
        let fresh = |c: &Cell| c.valid && now.saturating_since(c.updated_at) <= age;
        // One walk from the cursor round the row: the first changed entry
        // wins, else the first fresh one.
        let mut pick = None;
        for tag in (start..n).chain(0..start) {
            let c = &row[tag];
            if fresh(c) {
                if c.changed {
                    pick = Some(tag);
                    break;
                }
                pick.get_or_insert(tag);
            }
        }
        let tag = pick?;
        row[tag].changed = false;
        self.cursor[src_leaf] = if tag + 1 == n { 0 } else { tag as u8 + 1 };
        Some((tag as u8, row[tag].value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AGE: SimDuration = SimDuration::from_millis(10);

    #[test]
    fn to_leaf_read_back() {
        let mut t = CongestionToLeaf::new(4, 12, AGE);
        t.update(2, 5, 6, SimTime::from_micros(50));
        assert_eq!(t.read(2, 5, SimTime::from_micros(60)), 6);
        assert_eq!(t.read(2, 4, SimTime::from_micros(60)), 0, "untouched tag");
        assert_eq!(t.read(1, 5, SimTime::from_micros(60)), 0, "untouched leaf");
    }

    #[test]
    fn tables_allocate_on_the_first_metric_and_read_empty_until_then() {
        let now = SimTime::from_micros(1);
        let mut to = CongestionToLeaf::new(4, 12, AGE);
        assert_eq!(to.read(3, 11, now), 0);
        assert!(to.cells.is_empty(), "a read stores nothing");
        to.update(0, 0, 1, now);
        assert_eq!(to.cells.len(), 4 * 12);
        assert_eq!(to.read(3, 11, now), 0);

        let mut from = CongestionFromLeaf::new(4, 12, AGE);
        assert_eq!(from.select_feedback(3, now), None);
        assert!(from.cells.is_empty(), "nothing to feed back stores nothing");
        from.record(3, 11, 5, now);
        assert_eq!(from.cells.len(), 4 * 12);
        assert_eq!(from.select_feedback(3, now), Some((11, 5)));
    }

    #[test]
    fn to_leaf_ages_to_zero() {
        let mut t = CongestionToLeaf::new(2, 4, AGE);
        t.update(1, 0, 7, SimTime::ZERO);
        assert_eq!(t.read(1, 0, SimTime::from_millis(9)), 7);
        assert_eq!(
            t.read(1, 0, SimTime::from_millis(11)),
            0,
            "stale metric must decay so the path is probed again"
        );
    }

    #[test]
    fn from_leaf_records_and_feeds_back() {
        let mut t = CongestionFromLeaf::new(2, 4, AGE);
        let now = SimTime::from_micros(5);
        t.record(1, 2, 4, now);
        let (tag, m) = t.select_feedback(1, now).unwrap();
        assert_eq!((tag, m), (2, 4));
    }

    #[test]
    fn feedback_prefers_changed_metrics() {
        let mut t = CongestionFromLeaf::new(1, 4, AGE);
        let now = SimTime::from_micros(1);
        t.record(0, 0, 1, now);
        t.record(0, 1, 2, now);
        t.record(0, 2, 3, now);
        // Send feedback for all three; all start as changed.
        let mut sent: Vec<u8> = Vec::new();
        for _ in 0..3 {
            sent.push(t.select_feedback(0, now).unwrap().0);
        }
        sent.sort_unstable();
        assert_eq!(sent, vec![0, 1, 2], "round-robin covers every tag");
        // Now only tag 1 changes; it must be selected next even though the
        // cursor points elsewhere.
        t.record(0, 1, 5, now);
        assert_eq!(t.select_feedback(0, now).unwrap(), (1, 5));
    }

    #[test]
    fn feedback_round_robins_when_nothing_changed() {
        let mut t = CongestionFromLeaf::new(1, 3, AGE);
        let now = SimTime::from_micros(1);
        for tag in 0..3 {
            t.record(0, tag, tag + 1, now);
        }
        // Exhaust the changed flags.
        for _ in 0..3 {
            t.select_feedback(0, now);
        }
        // Unchanged entries still get cycled through (staleness refresh).
        let a = t.select_feedback(0, now).unwrap().0;
        let b = t.select_feedback(0, now).unwrap().0;
        let c = t.select_feedback(0, now).unwrap().0;
        let mut all = vec![a, b, c];
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn feedback_skips_stale_rows() {
        let mut t = CongestionFromLeaf::new(1, 2, AGE);
        t.record(0, 0, 3, SimTime::ZERO);
        assert_eq!(
            t.select_feedback(0, SimTime::from_millis(20)),
            None,
            "everything aged out"
        );
    }

    #[test]
    fn no_feedback_without_any_traffic() {
        let mut t = CongestionFromLeaf::new(3, 4, AGE);
        assert_eq!(t.select_feedback(2, SimTime::from_micros(9)), None);
    }

    #[test]
    fn record_same_value_does_not_set_changed() {
        let mut t = CongestionFromLeaf::new(1, 2, AGE);
        let now = SimTime::from_micros(1);
        t.record(0, 0, 4, now);
        let _ = t.select_feedback(0, now); // clears changed
        t.record(0, 0, 4, now); // same value: no change flag
        t.record(0, 1, 1, now); // a genuinely new entry
                                // The changed entry (tag 1) wins even though cursor is at tag 1...
                                // regardless of cursor position the changed one must be preferred.
        assert_eq!(t.select_feedback(0, now).unwrap().0, 1);
    }

    /// The walk picks what the two-pass scan it replaced picked: a
    /// changed fresh entry first, else any fresh one, each in round-robin
    /// order from the cursor. Random rows of valid, stale and changed
    /// entries, from every cursor position.
    #[test]
    fn one_walk_matches_the_two_pass_scan() {
        fn two_pass(t: &CongestionFromLeaf, leaf: usize, now: SimTime) -> Option<usize> {
            let n = t.n_tags;
            let start = t.cursor[leaf] as usize;
            let cell = |tag: usize| &t.cells[t.idx(leaf, tag as u8)];
            let fresh = |c: &Cell| c.valid && now.saturating_since(c.updated_at) <= t.age;
            let tags = || (0..n).map(|k| (start + k) % n);
            tags()
                .find(|&tag| fresh(cell(tag)) && cell(tag).changed)
                .or_else(|| tags().find(|&tag| fresh(cell(tag))))
        }
        let mut rng = conga_sim::SimRng::new(0x0FEE_DBAC);
        let now = SimTime::from_millis(50);
        let (mut picked, mut none) = (0, 0);
        for round in 0..2_000 {
            let n_tags = 1 + round % 16;
            let mut t = CongestionFromLeaf::new(3, n_tags, AGE);
            t.cells = (0..3 * n_tags)
                .map(|_| Cell {
                    value: (rng.u64() % 8) as u8,
                    // Four in fifteen past the 10 ms age limit.
                    updated_at: now - SimDuration::from_millis(rng.u64() % 15),
                    valid: !rng.u64().is_multiple_of(4),
                    changed: rng.u64().is_multiple_of(3),
                })
                .collect();
            for leaf in 0..3 {
                t.cursor[leaf] = (rng.u64() % n_tags as u64) as u8;
                for _ in 0..n_tags + 1 {
                    let want = two_pass(&t, leaf, now);
                    let got = t.select_feedback(leaf, now).map(|(tag, _)| tag as usize);
                    assert_eq!(got, want, "{n_tags} tags, leaf {leaf}");
                    if got.is_some() {
                        picked += 1;
                    } else {
                        none += 1;
                    }
                }
            }
        }
        assert!(
            picked > 10_000 && none > 100,
            "{picked} picked, {none} none"
        );
    }
}
