//! Small statistics toolkit shared by the experiments: means, percentiles
//! and a fixed-bin histogram.

/// Mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0–100) by linear interpolation on the sorted
/// sample. Returns `None` for an empty sample or an out-of-range rank
/// (experiment cells can legitimately produce zero observations — e.g. no
/// utilized windows, no completed flows — and a malformed rank from a CLI
/// flag must degrade the cell, not abort the whole fleet run).
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut s: Vec<f64> = xs.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, p)
}

/// [`percentile`] over an **already sorted** slice: no copy, no sort.
/// Callers that need several ranks of the same distribution sort once and
/// read each rank through this. Same `None` contract as [`percentile`];
/// the interpolation arithmetic is identical, so the two agree bit-for-bit
/// on sorted input.
pub fn percentile_sorted(s: &[f64], p: f64) -> Option<f64> {
    if s.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(if lo == hi {
        s[lo]
    } else {
        let f = rank - lo as f64;
        s[lo] * (1.0 - f) + s[hi] * f
    })
}

/// A fixed-width histogram over `[lo, hi)`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    /// Per-bin counts; the last bin absorbs values ≥ `hi`.
    pub bins: Vec<u64>,
    /// Values below `lo`.
    pub underflow: u64,
}

impl Histogram {
    /// `n` bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0);
        Histogram {
            lo,
            width: (hi - lo) / n as f64,
            bins: vec![0; n],
            underflow: 0,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let i = ((x - self.lo) / self.width) as usize;
        let last = self.bins.len() - 1;
        self.bins[i.min(last)] += 1;
    }

    /// Total observations in bins.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_and_nonempty_samples() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), Some(10.0));
        assert_eq!(percentile(&xs, 100.0), Some(40.0));
        assert_eq!(percentile(&xs, 50.0), Some(25.0));
        assert!((percentile(&xs, 90.0).unwrap() - 37.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_of_empty_sample_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[], 0.0), None);
    }

    #[test]
    fn percentile_of_out_of_range_rank_is_none_not_a_panic() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, -0.1), None);
        assert_eq!(percentile(&xs, 100.1), None);
        assert_eq!(percentile(&xs, f64::NAN), None);
        assert_eq!(percentile_sorted(&xs, -5.0), None);
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let xs = [40.0, 10.0, 30.0, 20.0];
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        for p in [0.0, 12.5, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&xs, p), percentile_sorted(&s, p));
        }
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 9.9, 10.5, -1.0] {
            h.add(x);
        }
        assert_eq!(h.bins[0], 2);
        assert_eq!(h.bins[4], 2, "overflow lands in the last bin");
        assert_eq!(h.underflow, 1);
        assert_eq!(h.count(), 4);
    }
}
