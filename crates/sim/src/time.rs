//! Simulation clock types.
//!
//! The simulator uses an integer nanosecond clock. Two distinct newtypes keep
//! absolute instants ([`SimTime`]) and spans ([`SimDuration`]) from being
//! mixed up: you can add a duration to a time, subtract two times to get a
//! duration, and scale durations — but you cannot, say, add two instants.
//!
//! A `u64` nanosecond clock wraps after ~584 years of simulated time, far
//! beyond any experiment in this repository; arithmetic is checked in debug
//! builds via the standard overflow semantics.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since t = 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative simulation time");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since t = 0.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span (an "infinite" timeout sentinel).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Span expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by an integer factor.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// The wall-clock time to serialize `bytes` onto a link of `rate_bps`
    /// bits per second, rounded up to a whole nanosecond.
    ///
    /// This is the canonical place the byte→time conversion lives so every
    /// component agrees on rounding.
    #[inline]
    pub fn serialization(bytes: u64, rate_bps: u64) -> SimDuration {
        debug_assert!(rate_bps > 0, "zero-rate link");
        let bits = bytes * 8;
        // ceil(bits * 1e9 / rate). Every packet's product fits a u64
        // (below 2^64 up to ~2.3 GB); a larger burst divides in u128,
        // where bits < 2^40 and 1e9 < 2^30 keep it under 2^70.
        let ns = match bits.checked_mul(1_000_000_000) {
            Some(p) => p.div_ceil(rate_bps),
            None => (bits as u128 * 1_000_000_000u128).div_ceil(rate_bps as u128) as u64,
        };
        SimDuration(ns)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        debug_assert!(rhs >= 0.0);
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

/// Human-friendly rendering of a nanosecond count with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "inf".to_string()
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{}ns", ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert!((SimTime::from_nanos(123_456_789).as_secs_f64() - 0.123456789).abs() < 1e-12);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(4);
        assert_eq!((t + d).as_nanos(), 14_000);
        assert_eq!((t + d) - t, d);
        assert_eq!((t - d).as_nanos(), 6_000);
        let mut u = t;
        u += d;
        assert_eq!(u, t + d);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.saturating_since(a).as_nanos(), 4);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1500 bytes at 10 Gbps = 1200 ns exactly.
        assert_eq!(
            SimDuration::serialization(1500, 10_000_000_000).as_nanos(),
            1200
        );
        // 1 byte at 3 bps = 8/3 * 1e9 ns, rounded up.
        assert_eq!(
            SimDuration::serialization(1, 3).as_nanos(),
            (8u64 * 1_000_000_000).div_ceil(3)
        );
        // Zero bytes takes zero time.
        assert_eq!(
            SimDuration::serialization(0, 40_000_000_000),
            SimDuration::ZERO
        );
    }

    /// The u64 division every packet takes agrees with the u128 formula
    /// on every size from 1 B to a 9000 B jumbo payload plus the 100 B of
    /// wire overhead, at every whole rate from 1 to 400 Gb/s.
    #[test]
    fn serialization_u64_path_matches_u128_formula() {
        for gbps in 1..=400u64 {
            let rate = gbps * 1_000_000_000;
            for bytes in 1..=9_100u64 {
                let want = (bytes as u128 * 8 * 1_000_000_000).div_ceil(rate as u128);
                let got = SimDuration::serialization(bytes, rate).as_nanos();
                assert_eq!(got as u128, want, "{bytes} B at {gbps} Gb/s");
            }
        }
    }

    #[test]
    fn serialization_no_overflow_at_large_sizes() {
        // A 1 GB burst on a 1 Gbps link: 8 seconds.
        let d = SimDuration::serialization(1_000_000_000, 1_000_000_000);
        assert_eq!(d.as_nanos(), 8_000_000_000);
        // 10 GB: bits x 1e9 overflows a u64, so this one divides in u128.
        let d = SimDuration::serialization(10_000_000_000, 10_000_000_000);
        assert_eq!(d.as_nanos(), 8_000_000_000);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(100);
        assert_eq!((d * 3).as_nanos(), 300_000);
        assert_eq!((d / 4).as_nanos(), 25_000);
        assert_eq!((d * 0.5).as_nanos(), 50_000);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, d * 3);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(250).to_string(), "250.000us");
        assert_eq!(SimDuration::from_millis(13).to_string(), "13.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }
}
