//! Sample sets and the calibrated timing loop.
//!
//! Every timing the benchmark reports is a median with quartiles and a
//! sample count, never a best-of-N: repetitions are too few (3 to ~10 per
//! run) for any tail percentile to have ten samples beyond it, so none is
//! reported. Quartiles follow Python's `statistics.quantiles(v, n=4)`
//! (the "exclusive" method), so a spread computed here equals the one the
//! acceptance driver computes from the same values.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// The samples of one metric, in the order they were taken.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// A single observation (counts, RSS, simulated statistics).
    pub fn one(v: f64) -> Self {
        Samples(vec![v])
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        s
    }

    /// The `i`-th of the three cut points of `statistics.quantiles(v, n=4)`
    /// with the default exclusive method, integer arithmetic included: the
    /// rank is clamped to `1..len-1` and the value extrapolated beyond it.
    fn quartile(&self, i: i64) -> f64 {
        let s = self.sorted();
        let ld = s.len() as i64;
        match ld {
            0 => f64::NAN,
            1 => s[0],
            _ => {
                let m = ld + 1;
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m - j * 4) as f64;
                (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
            }
        }
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quartile(2)
    }

    /// First and third quartile (both equal the sample when `n == 1`).
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quartile(1), self.quartile(3))
    }

    /// A new sample set with every value mapped through `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Samples {
        Samples(self.0.iter().map(|&v| f(v)).collect())
    }
}

/// Time `f`: calibrate an iteration count so one pass lasts at least
/// `pass`, then run `passes` passes and return every pass's nanoseconds
/// per iteration (not just the best one).
pub fn measure(pass: Duration, passes: usize, mut f: impl FnMut()) -> Samples {
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= pass || iters >= (1 << 28) {
            break;
        }
        iters *= 2;
    }
    measure_n(iters, passes, f)
}

/// [`measure`] with a fixed iteration count per pass, for bodies too
/// expensive (or too noisy on stderr) to calibrate by doubling.
pub fn measure_n(iters: u64, passes: usize, mut f: impl FnMut()) -> Samples {
    Samples(
        (0..passes)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// Wall-clock seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Samples(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.quartiles(), s.median()), ((1.0, 3.0), 2.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Samples(vec![1.0, 2.0]);
        assert_eq!((s.quartiles(), s.median()), ((0.75, 2.25), 1.5));
        assert_eq!(Samples::one(7.0).quartiles(), (7.0, 7.0));
    }

    #[test]
    fn measure_returns_every_pass() {
        let mut x = 0u64;
        let s = measure(Duration::from_micros(200), 5, || x = black_box(x + 1));
        assert_eq!(s.n(), 5);
        assert!(s.0.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
