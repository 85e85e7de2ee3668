//! RSSI → transmission power model (the paper's Definition 4 and Eq. (24)).
//!
//! The paper's fit: `P(sig) = −0.167 + 1560/v(sig)` mJ/KB, where `v` is the
//! throughput model. Note the consequence the schedulers exploit: the
//! *instantaneous power* while receiving at full rate is
//! `P(sig)·v(sig) = −0.167·v + 1560` mJ/s — i.e. receiving under a strong
//! signal is both faster **and** cheaper per byte, so shifting traffic into
//! good-signal slots saves energy twice over.

use crate::throughput::{LinearRssiThroughput, ThroughputModel};
use crate::types::{Dbm, KbPerSec, MilliJoules, MilliWatts};
use serde::{Deserialize, Serialize};

/// Maps channel quality to reception energy cost (Def. 4).
pub trait PowerModel: Send + Sync {
    /// Energy per kilobyte received at signal strength `sig` (mJ/KB).
    fn energy_per_kb(&self, sig: Dbm) -> f64;

    /// Energy for receiving `kb` kilobytes at signal strength `sig`
    /// (Eq. (3) with the shard expressed in KB).
    fn transmission_energy(&self, sig: Dbm, kb: f64) -> MilliJoules {
        MilliJoules(self.energy_per_kb(sig) * kb)
    }
}

/// The paper's reciprocal-throughput power fit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct RssiPowerModel {
    /// Additive term in mJ/KB (paper: −0.167).
    pub base: f64,
    /// Reciprocal term numerator in mJ/s (paper: 1560).
    pub scale: f64,
    /// The throughput fit `v(sig)` the reciprocal is taken against.
    pub throughput: LinearRssiThroughput,
}

impl RssiPowerModel {
    /// The paper's fitted coefficients.
    pub fn paper() -> Self {
        Self {
            base: -0.167,
            scale: 1560.0,
            throughput: LinearRssiThroughput::paper(),
        }
    }

    /// `P` of a throughput value. The degenerate-throughput guard is a
    /// select rather than an early return (÷0 yields +inf, which the
    /// select discards).
    #[inline(always)]
    fn kernel(&self, v: f64) -> f64 {
        let p = self.base + self.scale / v;
        if v <= f64::EPSILON {
            f64::MAX / 1e12
        } else {
            p
        }
    }

    /// Instantaneous radio power while receiving at the full rate `v(sig)`:
    /// `P(sig)·v(sig) = base·v + scale` (mJ/s = mW).
    pub fn full_rate_power(&self, sig: Dbm) -> MilliWatts {
        let v = self.throughput.throughput(sig).value();
        MilliWatts(self.base * v + self.scale)
    }

    /// Full-rate power expressed directly in terms of a throughput value.
    /// Used when inverting Eq. (12).
    pub fn full_rate_power_at(&self, v: KbPerSec) -> MilliWatts {
        MilliWatts(self.base * v.value() + self.scale)
    }

    /// Invert [`Self::full_rate_power_at`]: the throughput whose full-rate
    /// power equals `p`. (`base` is negative in the paper fit, so higher
    /// power corresponds to lower throughput.)
    pub fn throughput_for_power(&self, p: MilliWatts) -> KbPerSec {
        KbPerSec((p.value() - self.scale) / self.base)
    }
}

impl Default for RssiPowerModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl PowerModel for RssiPowerModel {
    #[inline]
    fn energy_per_kb(&self, sig: Dbm) -> f64 {
        // Guard the reciprocal (inside `kernel`): below the throughput
        // floor the radio cannot receive anyway; report a very large (but
        // finite) cost.
        self.kernel(self.throughput.throughput(sig).value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fit_pinned_values() {
        let m = RssiPowerModel::paper();
        // v(−80) = 2303 → P = −0.167 + 1560/2303 ≈ 0.510343 mJ/KB.
        let p = m.energy_per_kb(Dbm(-80.0));
        assert!((p - (-0.167 + 1560.0 / 2303.0)).abs() < 1e-12);
        // Strong signal is cheaper per byte than weak signal.
        assert!(m.energy_per_kb(Dbm(-50.0)) < m.energy_per_kb(Dbm(-110.0)));
    }

    #[test]
    fn transmission_energy_is_linear_in_volume() {
        let m = RssiPowerModel::paper();
        let e1 = m.transmission_energy(Dbm(-70.0), 100.0);
        let e2 = m.transmission_energy(Dbm(-70.0), 200.0);
        assert!((e2.value() - 2.0 * e1.value()).abs() < 1e-9);
    }

    #[test]
    fn full_rate_power_identity() {
        let m = RssiPowerModel::paper();
        for sig in [-110.0, -85.0, -50.0] {
            let v = m.throughput.throughput(Dbm(sig)).value();
            let direct = m.full_rate_power(Dbm(sig)).value();
            let composed = m.energy_per_kb(Dbm(sig)) * v;
            assert!((direct - composed).abs() < 1e-9, "sig {sig}");
        }
    }

    #[test]
    fn full_rate_power_decreases_with_signal() {
        // The paradox the schedulers exploit: good signal → lower power.
        let m = RssiPowerModel::paper();
        assert!(m.full_rate_power(Dbm(-50.0)).value() < m.full_rate_power(Dbm(-110.0)).value());
        // Pinned: at −110 dBm, 1560 − 0.167·329 ≈ 1505.06 mW.
        assert!((m.full_rate_power(Dbm(-110.0)).value() - (1560.0 - 0.167 * 329.0)).abs() < 1e-9);
    }

    #[test]
    fn power_throughput_inverse_roundtrip() {
        let m = RssiPowerModel::paper();
        for v in [329.0, 1200.0, 4277.0] {
            let p = m.full_rate_power_at(KbPerSec(v));
            let back = m.throughput_for_power(p);
            assert!((back.value() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_zero_throughput_is_finite() {
        let m = RssiPowerModel::paper();
        let p = m.energy_per_kb(Dbm(-1000.0));
        assert!(p.is_finite());
        assert!(p > 1e6);
    }
}
