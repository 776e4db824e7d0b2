//! Empirical flow-size distributions (paper Figure 8 and §5.5).
//!
//! Three workloads drive the evaluation:
//!
//! * **Enterprise** — derived from the authors' own production traces
//!   (§2.6): mostly small flows; roughly half of all bytes come from flows
//!   smaller than 35 MB. The "lighter" workload where even ECMP does well.
//! * **Data-mining** — from a large analytics cluster (VL2's distribution,
//!   also used by pFabric): extremely heavy-tailed, ~3.6 % of flows are
//!   larger than 35 MB yet carry ~95 % of the bytes.
//! * **Web-search** — the DCTCP cluster distribution, used for the
//!   large-scale simulations (Figures 15 and 16).
//!
//! Distributions are piecewise log-linear interpolations of published CDF
//! points. [`FlowSizeDist::byte_fraction_below`] and
//! [`FlowSizeDist::coeff_of_variation`] expose the byte-weighted and
//! second-moment structure that Theorem 2 ties to load-balancing
//! difficulty.

use conga_sim::SimRng;

/// A flow-size distribution given as CDF breakpoints `(bytes, P[S <= bytes])`.
#[derive(Clone)]
pub struct FlowSizeDist {
    name: &'static str,
    /// Strictly increasing in both coordinates; first prob is 0, last is 1.
    points: Vec<(f64, f64)>,
    /// `ln` of each breakpoint size, so that interpolating takes none.
    ln_sizes: Vec<f64>,
    /// [`FlowSizeDist::mean`], computed once.
    mean: f64,
}

/// The name and the breakpoints, as the derive would print them: a cell's
/// cache key embeds this text, and the cached values are not part of the
/// distribution's identity.
impl std::fmt::Debug for FlowSizeDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSizeDist")
            .field("name", &self.name)
            .field("points", &self.points)
            .finish()
    }
}

impl FlowSizeDist {
    /// Build from CDF breakpoints. Panics on malformed input.
    pub fn from_points(name: &'static str, points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two CDF points");
        assert_eq!(points[0].1, 0.0, "CDF must start at probability 0");
        assert!(
            (points.last().expect("non-empty").1 - 1.0).abs() < 1e-9,
            "CDF must end at probability 1"
        );
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must increase");
            assert!(w[0].1 <= w[1].1, "probabilities must not decrease");
        }
        let mut dist = FlowSizeDist {
            name,
            points: points.to_vec(),
            ln_sizes: points.iter().map(|&(x, _)| x.ln()).collect(),
            mean: 0.0,
        };
        dist.mean = dist.moment(1);
        dist
    }

    /// The enterprise workload of paper Figure 8(a).
    ///
    /// Calibrated so that (i) the median flow is a few kB, (ii) ~half of
    /// all *bytes* come from flows under 35 MB — the paper's headline
    /// characterization.
    pub fn enterprise() -> Self {
        Self::from_points(
            "enterprise",
            &[
                (100.0, 0.0),
                (500.0, 0.2),
                (1_000.0, 0.30),
                (5_000.0, 0.52),
                (10_000.0, 0.60),
                (50_000.0, 0.75),
                (100_000.0, 0.80),
                (500_000.0, 0.90),
                (1_000_000.0, 0.93),
                (5_000_000.0, 0.97),
                (10_000_000.0, 0.982),
                (35_000_000.0, 0.992),
                (90_000_000.0, 1.0),
            ],
        )
    }

    /// The data-mining workload of paper Figure 8(b) (VL2 / pFabric).
    pub fn data_mining() -> Self {
        Self::from_points(
            "data-mining",
            &[
                (100.0, 0.0),
                (180.0, 0.10),
                (250.0, 0.20),
                (560.0, 0.30),
                (900.0, 0.40),
                (1_100.0, 0.50),
                (1_870.0, 0.60),
                (3_160.0, 0.70),
                (10_000.0, 0.80),
                (400_000.0, 0.90),
                (3_160_000.0, 0.95),
                (100_000_000.0, 0.98),
                (1_000_000_000.0, 1.0),
            ],
        )
    }

    /// The web-search workload (DCTCP cluster), for Figures 15–16.
    pub fn web_search() -> Self {
        Self::from_points(
            "web-search",
            &[
                (6_000.0, 0.0),
                (10_000.0, 0.15),
                (13_000.0, 0.20),
                (19_000.0, 0.30),
                (33_000.0, 0.40),
                (53_000.0, 0.53),
                (133_000.0, 0.60),
                (667_000.0, 0.70),
                (1_333_000.0, 0.80),
                (3_333_000.0, 0.90),
                (6_667_000.0, 0.95),
                (20_000_000.0, 0.98),
                (30_000_000.0, 1.0),
            ],
        )
    }

    /// Workload name for experiment output.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Inverse-CDF sampling with log-linear interpolation between
    /// breakpoints (sizes span 7 orders of magnitude, so interpolating in
    /// log-size is the faithful choice).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.f64();
        let i = match self
            .points
            .binary_search_by(|&(_, p)| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        if i == 0 {
            return self.points[0].0 as u64;
        }
        if i >= self.points.len() {
            return self.points.last().expect("non-empty").0 as u64;
        }
        let (x1, p1) = self.points[i];
        let p0 = self.points[i - 1].1;
        if p1 <= p0 {
            return x1 as u64;
        }
        let f = (u - p0) / (p1 - p0);
        let (l0, l1) = (self.ln_sizes[i - 1], self.ln_sizes[i]);
        (l0 + f * (l1 - l0)).exp().max(1.0) as u64
    }

    /// Mean flow size in bytes (numerical, via fine inverse-CDF quadrature,
    /// taken once when the distribution is built).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Coefficient of variation `σ/μ` of the flow size.
    pub fn coeff_of_variation(&self) -> f64 {
        let m1 = self.mean;
        let m2 = self.moment(2);
        (m2 - m1 * m1).max(0.0).sqrt() / m1
    }

    fn moment(&self, k: i32) -> f64 {
        // Integrate x^k dP using the log-linear interpolation, by fine
        // uniform sampling of the inverse CDF.
        const STEPS: usize = 200_000;
        let mut acc = 0.0;
        for j in 0..STEPS {
            let u = (j as f64 + 0.5) / STEPS as f64;
            acc += self.quantile(u).powi(k);
        }
        acc / STEPS as f64
    }

    /// The u-quantile of the size distribution.
    pub fn quantile(&self, u: f64) -> f64 {
        let i = match self
            .points
            .binary_search_by(|&(_, p)| p.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i,
        };
        if i == 0 {
            return self.points[0].0;
        }
        if i >= self.points.len() {
            return self.points.last().expect("non-empty").0;
        }
        let (x1, p1) = self.points[i];
        let p0 = self.points[i - 1].1;
        if p1 <= p0 {
            return x1;
        }
        let f = (u - p0) / (p1 - p0);
        let (l0, l1) = (self.ln_sizes[i - 1], self.ln_sizes[i]);
        (l0 + f * (l1 - l0)).exp()
    }

    /// Fraction of all *bytes* carried by flows of size ≤ `x` (the
    /// byte-weighted CDF the paper plots alongside the flow CDF).
    pub fn byte_fraction_below(&self, x: f64) -> f64 {
        const STEPS: usize = 200_000;
        let mut below = 0.0;
        let mut total = 0.0;
        for j in 0..STEPS {
            let u = (j as f64 + 0.5) / STEPS as f64;
            let s = self.quantile(u);
            total += s;
            if s <= x {
                below += s;
            }
        }
        below / total
    }

    /// CDF value `P[S <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.points[0].0 {
            return 0.0;
        }
        if x >= self.points.last().expect("non-empty").0 {
            return 1.0;
        }
        let i = self.points.partition_point(|&(s, _)| s <= x).max(1);
        let (x0, p0) = self.points[i - 1];
        let (x1, p1) = self.points[i];
        let f = (x.ln() - x0.ln()) / (x1.ln() - x0.ln());
        p0 + f * (p1 - p0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_matches_cdf_breakpoints() {
        let d = FlowSizeDist::data_mining();
        let mut rng = SimRng::new(1);
        let n = 200_000;
        let mut below_10k = 0usize;
        for _ in 0..n {
            if d.sample(&mut rng) <= 10_000 {
                below_10k += 1;
            }
        }
        let frac = below_10k as f64 / n as f64;
        assert!((frac - 0.80).abs() < 0.01, "P[S<=10k] = {frac}, want 0.80");
    }

    #[test]
    fn data_mining_is_very_heavy_tailed() {
        let d = FlowSizeDist::data_mining();
        // Paper: flows > 35MB are ~3.6% of flows but ~95% of bytes.
        let p_large = 1.0 - d.cdf(35e6);
        assert!((0.02..=0.06).contains(&p_large), "P[S>35M] = {p_large}");
        let bytes_small = d.byte_fraction_below(35e6);
        assert!(
            bytes_small < 0.15,
            "data-mining: flows <35MB carry {bytes_small:.2} of bytes, paper says ~5%"
        );
    }

    #[test]
    fn enterprise_half_the_bytes_below_35mb() {
        let d = FlowSizeDist::enterprise();
        let frac = d.byte_fraction_below(35e6);
        assert!(
            (0.35..=0.65).contains(&frac),
            "enterprise: {frac:.2} of bytes below 35MB, paper says ~50%"
        );
    }

    #[test]
    fn enterprise_lighter_than_data_mining() {
        let e = FlowSizeDist::enterprise();
        let d = FlowSizeDist::data_mining();
        assert!(
            e.coeff_of_variation() < d.coeff_of_variation(),
            "CV(enterprise) {} must be below CV(data-mining) {}",
            e.coeff_of_variation(),
            d.coeff_of_variation()
        );
    }

    #[test]
    fn means_are_in_plausible_ranges() {
        // Sanity anchors for load computation (flows/sec = load*C/(8*mean)).
        let e = FlowSizeDist::enterprise().mean();
        let d = FlowSizeDist::data_mining().mean();
        let w = FlowSizeDist::web_search().mean();
        assert!((50e3..2e6).contains(&e), "enterprise mean {e}");
        assert!((1e6..20e6).contains(&d), "data-mining mean {d}");
        assert!((0.5e6..5e6).contains(&w), "web-search mean {w}");
    }

    #[test]
    fn quantiles_monotone() {
        let d = FlowSizeDist::web_search();
        let mut prev = 0.0;
        for j in 1..100 {
            let q = d.quantile(j as f64 / 100.0);
            assert!(q >= prev, "quantile not monotone at {j}");
            prev = q;
        }
    }

    #[test]
    fn cdf_and_quantile_are_inverses() {
        let d = FlowSizeDist::enterprise();
        for &u in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let x = d.quantile(u);
            let back = d.cdf(x);
            assert!((back - u).abs() < 0.01, "u={u} -> x={x} -> {back}");
        }
    }

    #[test]
    #[should_panic(expected = "CDF must start")]
    fn malformed_cdf_rejected() {
        FlowSizeDist::from_points("bad", &[(10.0, 0.5), (20.0, 1.0)]);
    }

    /// The cached `ln` and mean change no bit: each matches the value the
    /// uncached code computed, and the debug text (a cache-key part) is
    /// the derive's.
    #[test]
    fn cached_values_are_the_computed_ones() {
        for d in [
            FlowSizeDist::enterprise(),
            FlowSizeDist::data_mining(),
            FlowSizeDist::web_search(),
        ] {
            assert_eq!(d.mean().to_bits(), d.moment(1).to_bits(), "{}", d.name);
            let mut rng = SimRng::new(3);
            for _ in 0..10_000 {
                let u = rng.f64();
                let i = d.points.partition_point(|&(_, p)| p < u);
                if i == 0 || i >= d.points.len() || d.points[i].1 <= d.points[i - 1].1 {
                    continue;
                }
                let ((x0, p0), (x1, p1)) = (d.points[i - 1], d.points[i]);
                let f = (u - p0) / (p1 - p0);
                let uncached = (x0.ln() + f * (x1.ln() - x0.ln())).exp();
                assert_eq!(d.quantile(u).to_bits(), uncached.to_bits());
            }
        }
        let d = FlowSizeDist::from_points("two", &[(1.0, 0.0), (4.0, 1.0)]);
        assert_eq!(
            format!("{d:?}"),
            r#"FlowSizeDist { name: "two", points: [(1.0, 0.0), (4.0, 1.0)] }"#
        );
    }

    #[test]
    fn mean_matches_montecarlo() {
        let d = FlowSizeDist::web_search();
        let mut rng = SimRng::new(7);
        let n = 300_000;
        let mc: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let analytic = d.mean();
        assert!(
            (mc - analytic).abs() / analytic < 0.05,
            "MC {mc} vs quadrature {analytic}"
        );
    }
}
