//! Property tests for the simulation substrate.
//!
//! These are seeded-random property checks: each test draws many random
//! cases from a fixed-seed [`SimRng`], so the suite is fully deterministic
//! (no `proptest` dependency, no shrink files) while still exploring a wide
//! input space.

use conga_sim::{EventQueue, SimDuration, SimRng, SimTime};

/// Events always pop in non-decreasing time order, FIFO among ties,
/// and nothing is lost or invented.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = SimRng::new(0xE0E0);
    for _case in 0..64 {
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        assert_eq!(popped.len(), times.len());
        // Time order with FIFO tie-break == stable sort by time.
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, expect);
    }
}

/// Serialization time is exact for divisible cases and always rounds up.
#[test]
fn serialization_rounding() {
    let mut rng = SimRng::new(0x5E71);
    for _case in 0..512 {
        let bytes = rng.range_u64(1, 100_000);
        let rate = rng.range_u64(1_000, 100_000_000_000);
        let d = SimDuration::serialization(bytes, rate);
        let exact = bytes as u128 * 8 * 1_000_000_000;
        let got = d.as_nanos() as u128 * rate as u128;
        assert!(got >= exact, "rounded down");
        // Ceil rounding to whole nanoseconds: the overshoot is less than
        // one nanosecond's worth of bits (== rate / 1e9 bits => got-exact < rate).
        assert!(got - exact < rate as u128, "overshot: {got} vs {exact}");
    }
}

/// Time arithmetic: (t + d) - t == d, and ordering is consistent.
#[test]
fn time_arithmetic_roundtrip() {
    let mut rng = SimRng::new(0x71AE);
    for _case in 0..512 {
        let t = rng.range_u64(0, u64::MAX / 4);
        let d = rng.range_u64(0, u64::MAX / 4);
        let t0 = SimTime::from_nanos(t);
        let dd = SimDuration::from_nanos(d);
        assert_eq!((t0 + dd) - t0, dd);
        assert!(t0 + dd >= t0);
        assert_eq!(t0.saturating_since(t0 + dd), SimDuration::ZERO);
    }
}

/// Two RNGs with the same seed agree on every draw type; forked
/// streams with different labels diverge.
#[test]
fn rng_determinism() {
    let mut seeds = SimRng::new(0xDE7E);
    for _case in 0..64 {
        let seed = seeds.u64();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..20 {
            assert_eq!(a.u64(), b.u64());
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
            assert_eq!(a.below(17), b.below(17));
        }
        let mut fa = a.fork(1);
        let mut fb = b.fork(2);
        let same = (0..32).filter(|_| fa.u64() == fb.u64()).count();
        assert!(same < 4);
    }
}
