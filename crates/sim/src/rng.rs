//! Deterministic randomness for simulations.
//!
//! All stochastic behaviour in the workspace flows through [`SimRng`], a thin
//! wrapper over a seeded PCG-64 generator, so an experiment is fully
//! reproducible from `(code, seed)`. The wrapper also carries the handful of
//! distributions the workload models need (exponential, lognormal,
//! bounded-Pareto, discrete CDF sampling) implemented directly from their
//! inverse CDFs / Box–Muller so we do not need the `rand_distr` crate.
//!
//! The generator itself is a vendored PCG-64-MCG (XSL-RR 128/64, O'Neill
//! 2014): a 128-bit multiplicative congruential state with an xor-shift /
//! random-rotation output function. It is vendored rather than pulled from
//! `rand_pcg` so the workspace builds with zero external dependencies and
//! the byte stream is pinned by this file alone.

/// PCG-64-MCG: 128-bit MCG state, XSL-RR output to 64 bits.
#[derive(Debug, Clone)]
struct Pcg64Mcg {
    state: u128,
}

/// The PCG default 128-bit multiplier.
const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64Mcg {
    /// Expand a 64-bit seed into the 128-bit state with SplitMix64 so that
    /// nearby seeds yield unrelated streams. MCG state must be odd.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let lo = next();
        let hi = next();
        Pcg64Mcg {
            state: (((hi as u128) << 64) | lo as u128) | 1,
        }
    }

    /// Advance the MCG and apply the XSL-RR output permutation.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(PCG_MULTIPLIER);
        let rot = (self.state >> 122) as u32;
        let xsl = ((self.state >> 64) as u64) ^ (self.state as u64);
        xsl.rotate_right(rot)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased uniform integer in `[0, span)` (Lemire's method with
    /// rejection).
    #[inline]
    fn next_below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        let mut m = (self.next_u64() as u128) * (span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                m = (self.next_u64() as u128) * (span as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// A seeded, deterministic random number generator for simulation use.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Pcg64Mcg,
    /// Cached second normal variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Pcg64Mcg::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derive an independent child generator; useful for giving each
    /// component its own stream so adding draws in one place does not perturb
    /// another (a classic simulation-reproducibility pitfall).
    pub fn fork(&mut self, label: u64) -> SimRng {
        // Mix the label in so forks with different labels differ even when
        // made back-to-back.
        let seed = self.inner.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is an empty range");
        self.inner.next_below(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "range_u64 requires lo < hi");
        lo + self.inner.next_below(hi - lo)
    }

    /// A raw 64-bit draw (e.g. for hash seeds).
    #[inline]
    pub fn u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given rate (mean `1/rate`), via inverse CDF.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        // 1 - U is in (0, 1], avoiding ln(0).
        -(1.0 - self.f64()).ln() / rate
    }

    /// Standard normal variate via Box–Muller (caches the paired draw).
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u in (0,1] to keep ln finite.
        let u = 1.0 - self.f64();
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal variate with the given parameters of the underlying normal.
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.std_normal()).exp()
    }

    /// Choose a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        for _ in 0..100 {
            assert_eq!(c1.u64(), c2.u64());
        }
        let mut d1 = parent1.fork(2);
        assert_ne!(c1.u64(), d1.u64());
    }

    #[test]
    fn exp_mean_close() {
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
