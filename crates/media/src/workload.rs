//! Workload generation — the paper's §VI setup.
//!
//! "The video length that users require is set as random value ranging from
//! 250 MB to 500 MB with the variable required data rate from 300 KB/s to
//! 600 KB/s." Sizes and rates are drawn uniformly and independently per
//! user from a seeded RNG.
//!
//! For the Fig. 4b / 8b sweeps over "data amount", [`WorkloadSpec::with_mean_size_mb`]
//! rescales the size range around a target mean while preserving the
//! paper's relative spread (250–500 MB has mean 375 MB and spread ±⅓).

use crate::video::{BitrateModel, RateList, VideoSession};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distribution of per-user video sessions.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct WorkloadSpec {
    /// Uniform video size range, KB.
    pub size_range_kb: (f64, f64),
    /// Uniform required-rate range, KB/s.
    pub rate_range_kbps: (f64, f64),
    /// When set, sessions are VBR: the drawn rate is modulated by the given
    /// relative levels (e.g. `[0.75, 1.25]`) switching every
    /// `vbr_segment_slots`. At most [`RateList::CAPACITY`] levels.
    pub vbr_levels: Option<Vec<f64>>,
    /// Slots per VBR segment (ignored for CBR).
    pub vbr_segment_slots: u64,
}

impl WorkloadSpec {
    /// The paper's distribution: sizes U[250, 500] MB, rates U[300, 600] KB/s, CBR.
    pub fn paper_default() -> Self {
        Self {
            size_range_kb: (250_000.0, 500_000.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        }
    }

    /// Rescale the size range to have mean `mean_mb` while keeping the
    /// paper's relative spread (±⅓ of the mean).
    pub fn with_mean_size_mb(mut self, mean_mb: f64) -> Self {
        assert!(mean_mb > 0.0);
        let mean_kb = mean_mb * 1000.0;
        self.size_range_kb = (mean_kb * (250.0 / 375.0), mean_kb * (500.0 / 375.0));
        self
    }

    /// Mean video size implied by the spec, MB.
    pub fn mean_size_mb(&self) -> f64 {
        (self.size_range_kb.0 + self.size_range_kb.1) / 2.0 / 1000.0
    }

    /// Draw one session.
    fn draw(&self, rng: &mut StdRng) -> VideoSession {
        let size = draw_uniform(rng, self.size_range_kb);
        let rate = draw_uniform(rng, self.rate_range_kbps);
        let bitrate = match &self.vbr_levels {
            None => BitrateModel::Cbr { kbps: rate },
            Some(levels) => {
                let mut scaled = [0.0; RateList::CAPACITY];
                assert!(levels.len() <= scaled.len(), "too many VBR levels");
                for (r, l) in scaled.iter_mut().zip(levels) {
                    *r = l * rate;
                }
                BitrateModel::Vbr {
                    rates_kbps: RateList::new(&scaled[..levels.len()])
                        .unwrap_or_else(|| unreachable!("the length is checked")),
                    segment_slots: self.vbr_segment_slots,
                }
            }
        };
        VideoSession::new(size, bitrate)
    }
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

fn draw_uniform(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    debug_assert!(hi >= lo);
    if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    }
}

/// Generate `n_users` sessions deterministically from `seed`.
pub fn generate_sessions(spec: &WorkloadSpec, n_users: usize, seed: u64) -> Vec<VideoSession> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00_D15E_A5E5);
    (0..n_users).map(|_| spec.draw(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_within_paper_ranges() {
        let spec = WorkloadSpec::paper_default();
        for s in generate_sessions(&spec, 200, 1) {
            assert!((250_000.0..=500_000.0).contains(&s.total_kb));
            let r = s.bitrate.mean_rate();
            assert!((300.0..=600.0).contains(&r));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = WorkloadSpec::paper_default();
        assert_eq!(
            generate_sessions(&spec, 40, 9),
            generate_sessions(&spec, 40, 9)
        );
        assert_ne!(
            generate_sessions(&spec, 40, 9),
            generate_sessions(&spec, 40, 10)
        );
    }

    #[test]
    fn mean_size_rescaling() {
        let spec = WorkloadSpec::paper_default().with_mean_size_mb(100.0);
        assert!((spec.mean_size_mb() - 100.0).abs() < 1e-9);
        let (lo, hi) = spec.size_range_kb;
        assert!((lo - 100_000.0 * 250.0 / 375.0).abs() < 1e-6);
        assert!((hi - 100_000.0 * 500.0 / 375.0).abs() < 1e-6);
        // Paper default already has mean 375 MB.
        assert!((WorkloadSpec::paper_default().mean_size_mb() - 375.0).abs() < 1e-9);
    }

    #[test]
    fn empirical_mean_near_target() {
        let spec = WorkloadSpec::paper_default().with_mean_size_mb(350.0);
        let sessions = generate_sessions(&spec, 4000, 7);
        let mean_mb = sessions.iter().map(|s| s.total_kb).sum::<f64>() / 4000.0 / 1000.0;
        assert!(
            (mean_mb - 350.0).abs() < 10.0,
            "mean {mean_mb} not near 350"
        );
    }

    #[test]
    fn vbr_workload_builds_vbr_sessions() {
        let spec = WorkloadSpec {
            vbr_levels: Some(vec![0.8, 1.2]),
            ..WorkloadSpec::paper_default()
        };
        let s = &generate_sessions(&spec, 1, 3)[0];
        match &s.bitrate {
            BitrateModel::Vbr { rates_kbps, .. } => {
                assert_eq!(rates_kbps.len(), 2);
                assert!((rates_kbps[1] / rates_kbps[0] - 1.5).abs() < 1e-9);
            }
            other => panic!("expected VBR, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_point_ranges() {
        let spec = WorkloadSpec {
            size_range_kb: (1000.0, 1000.0),
            rate_range_kbps: (400.0, 400.0),
            ..WorkloadSpec::paper_default()
        };
        let s = &generate_sessions(&spec, 3, 0)[2];
        assert_eq!(s.total_kb, 1000.0);
        assert_eq!(s.bitrate.mean_rate(), 400.0);
    }
}
