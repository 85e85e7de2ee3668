//! The Eq. (12) energy-bound → signal-threshold conversion used by RTMA.
//!
//! RTMA enforces its per-user energy budget `Φ` by refusing to allocate to
//! users whose signal is weaker than a threshold `φ` chosen such that
//!
//! ```text
//! Φ = ½ [ P(φ)·v(φ)·τ + τ·P_tail ]                (Eq. 12)
//! ```
//!
//! i.e. `Φ` is "estimated as the mean of the maximum transmission power and
//! the tail energy in a slot". With the paper's fits the full-rate power is
//! affine in throughput (`P·v = base·v + scale`), so the equation inverts in
//! closed form:
//!
//! ```text
//! v(φ) = (2Φ/τ − scale − P_tail) / base
//! ```
//!
//! (`base < 0` in the paper fit, so a looser budget Φ yields a lower —
//! more permissive — threshold). `P_tail` is taken as the DCH power `Pd`,
//! the worst-case per-second tail draw.

use crate::cost::CrossLayerModels;
use jmso_radio::{Dbm, KbPerSec, MilliJoules, MilliWatts};
use serde::{Deserialize, Serialize};

/// A minimum-signal admission rule derived from an energy budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalThreshold {
    /// Users at or above this RSSI may receive data. `-∞` = allow all
    /// (budget slack), `+∞` = allow none (budget infeasible).
    pub min_dbm: f64,
}

impl SignalThreshold {
    /// Admit everyone (no energy constraint).
    pub fn allow_all() -> Self {
        Self {
            min_dbm: f64::NEG_INFINITY,
        }
    }

    /// Solve Eq. (12) for the threshold given budget `phi` and slot
    /// length `tau`.
    pub fn from_energy_bound(phi: MilliJoules, tau: f64, models: &CrossLayerModels) -> Self {
        assert!(tau > 0.0);
        let p_tail: MilliWatts = models.rrc.p_dch;
        // 2Φ/τ = P(φ)v(φ) + P_tail  ⇒  full-rate power target.
        let target_power = MilliWatts(2.0 * phi.value() / tau - p_tail.value());
        let v_star: KbPerSec = models.power.throughput_for_power(target_power);
        // base < 0: budgets looser than the cheapest full-rate slot give a
        // non-binding threshold; tighter than the most expensive give an
        // infeasible one. The linear inverse handles both continuously, so
        // no clamping is required — out-of-range thresholds simply admit
        // everyone / no-one.
        Self {
            min_dbm: models.throughput.signal_for(v_star).value(),
        }
    }

    /// Does the rule admit a user at RSSI `sig`? The raw IEEE-754 `>=`:
    /// deny on NaN, admit everything when `min_dbm = −∞`, nothing when
    /// `+∞`.
    #[inline]
    pub fn allows(&self, sig: Dbm) -> bool {
        sig.value() >= self.min_dbm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_radio::{PowerModel, ThroughputModel};

    fn models() -> CrossLayerModels {
        CrossLayerModels::paper()
    }

    /// A threshold derived from Φ must satisfy Eq. (12) exactly when
    /// substituted back.
    #[test]
    fn threshold_satisfies_eq12() {
        let m = models();
        let tau = 1.0;
        for phi_mj in [800.0, 900.0, 1000.0, 1100.0] {
            let th = SignalThreshold::from_energy_bound(MilliJoules(phi_mj), tau, &m);
            let sig = Dbm(th.min_dbm);
            let v = m.throughput.throughput(sig).value();
            let p = m.power.energy_per_kb(sig);
            let reconstructed = 0.5 * (p * v * tau + tau * m.rrc.p_dch.value());
            assert!(
                (reconstructed - phi_mj).abs() < 1e-6,
                "Φ={phi_mj}: got {reconstructed}"
            );
        }
    }

    /// Looser budget ⇒ lower (more permissive) threshold.
    #[test]
    fn threshold_monotone_in_budget() {
        let m = models();
        let t_tight = SignalThreshold::from_energy_bound(MilliJoules(800.0), 1.0, &m);
        let t_loose = SignalThreshold::from_energy_bound(MilliJoules(1100.0), 1.0, &m);
        assert!(t_loose.min_dbm < t_tight.min_dbm);
    }

    /// The paper's signal range maps to budgets ≈ [789, 1119] mJ; budgets
    /// outside that range admit everyone / no-one.
    #[test]
    fn budget_extremes() {
        let m = models();
        // Very loose: threshold below −110 ⇒ admits the whole range.
        let loose = SignalThreshold::from_energy_bound(MilliJoules(2000.0), 1.0, &m);
        assert!(loose.allows(Dbm(-110.0)));
        // Very tight: threshold above −50 ⇒ admits nobody in range.
        let tight = SignalThreshold::from_energy_bound(MilliJoules(200.0), 1.0, &m);
        assert!(!tight.allows(Dbm(-50.0)));
    }

    #[test]
    fn allow_all_admits_everything() {
        let t = SignalThreshold::allow_all();
        assert!(t.allows(Dbm(-200.0)));
        assert!(t.allows(Dbm(0.0)));
    }

    #[test]
    fn allows_is_inclusive() {
        let t = SignalThreshold { min_dbm: -80.0 };
        assert!(t.allows(Dbm(-80.0)));
        assert!(t.allows(Dbm(-79.9)));
        assert!(!t.allows(Dbm(-80.1)));
    }

    #[test]
    fn nan_signal_is_denied_even_by_allow_all() {
        let t = SignalThreshold::allow_all();
        assert!(!t.allows(Dbm(f64::NAN)), "NaN must never be admitted");
    }

    /// τ scaling: doubling τ doubles both sides of Eq. (12), leaving the
    /// threshold unchanged.
    #[test]
    fn tau_invariance() {
        let m = models();
        let a = SignalThreshold::from_energy_bound(MilliJoules(900.0), 1.0, &m);
        let b = SignalThreshold::from_energy_bound(MilliJoules(1800.0), 2.0, &m);
        assert!((a.min_dbm - b.min_dbm).abs() < 1e-9);
    }
}
