//! QoE metrics: rebuffering aggregates, Jain fairness (Figs. 2/6), CDFs.

use serde::{Deserialize, Serialize};

/// Jain fairness index `(Σxᵢ)² / (n·Σxᵢ²)` over per-user shares.
///
/// The paper applies it to per-slot shares `Fᵢ = dᵢ/d_need(i)` (§VI-A);
/// a value near 1 means equal service. Degenerate inputs: an empty slice
/// or all-zero shares (nobody needed anything) count as perfectly fair.
///
/// ```
/// use jmso_media::jain_index;
///
/// assert_eq!(jain_index(&[1.0, 1.0, 1.0, 1.0]), 1.0); // equal shares
/// assert_eq!(jain_index(&[1.0, 0.0, 0.0, 0.0]), 0.25); // one hog: 1/n
/// ```
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Aggregated rebuffering statistics for one user or one population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RebufferStats {
    /// Total rebuffering seconds (Σ cᵢ(n)).
    pub total_s: f64,
    /// Slots with any stall.
    pub stall_slots: u64,
    /// Slots over which the average is taken.
    pub slots: u64,
}

impl RebufferStats {
    /// Average rebuffering per slot (the paper's `PC` with Γ = `slots`).
    pub fn avg_per_slot(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.total_s / self.slots as f64
        }
    }

    /// Merge two stats (e.g. across users).
    pub fn merge(self, other: Self) -> Self {
        Self {
            total_s: self.total_s + other.total_s,
            stall_slots: self.stall_slots + other.stall_slots,
            slots: self.slots + other.slots,
        }
    }
}

/// Empirical CDF over a set of samples.
///
/// Used by the figure harness to regenerate the paper's CDF plots
/// (Figs. 2, 3, 6, 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples (NaNs are rejected).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x): fraction of samples at or below `x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (q ∈ \[0,1\]) by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }

    /// Evenly spaced `(x, P(X ≤ x))` points for plotting, `points ≥ 2`.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        if self.sorted.is_empty() {
            return vec![];
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

/// Arithmetic mean helper (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert!((jain_index(&[0.5, 0.5, 0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[2.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        // One user takes everything: index = 1/n.
        let idx = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_known_value() {
        // (1+2+3)²/(3·(1+4+9)) = 36/42.
        let idx = jain_index(&[1.0, 2.0, 3.0]);
        assert!((idx - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn rebuffer_stats_avg_and_merge() {
        let a = RebufferStats {
            total_s: 10.0,
            stall_slots: 4,
            slots: 100,
        };
        let b = RebufferStats {
            total_s: 5.0,
            stall_slots: 1,
            slots: 50,
        };
        assert!((a.avg_per_slot() - 0.1).abs() < 1e-12);
        let m = a.merge(b);
        assert_eq!(m.total_s, 15.0);
        assert_eq!(m.stall_slots, 5);
        assert_eq!(m.slots, 150);
        assert_eq!(RebufferStats::default().avg_per_slot(), 0.0);
    }

    #[test]
    fn cdf_fraction_and_quantiles() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.len(), 4);
        assert!((c.fraction_at_or_below(2.0) - 0.5).abs() < 1e-12);
        assert!((c.fraction_at_or_below(0.5) - 0.0).abs() < 1e-12);
        assert!((c.fraction_at_or_below(4.0) - 1.0).abs() < 1e-12);
        assert_eq!(c.quantile(0.5), 2.0);
        assert_eq!(c.median(), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert!((c.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_series_is_monotone() {
        let c = Cdf::new((0..100).map(|i| (i as f64).sin()).collect());
        let s = c.series(20);
        assert_eq!(s.len(), 20);
        for w in s.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert!((s.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
