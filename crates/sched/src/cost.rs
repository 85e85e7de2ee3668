//! The per-slot EMA objective `f(i, φᵢ(n))` (Eq. (22)) and the cross-layer
//! model bundle the schedulers price decisions with.
//!
//! After the Lyapunov transformation the per-slot problem is
//!
//! ```text
//! min Σᵢ f(i, φᵢ)   s.t.  φᵢ ≤ capᵢ (Eq. 1),  Σφᵢ ≤ C (Eq. 2)
//!
//! f(i, φ) = V·Eᵢ(n, φ) + PCᵢ(n)·(τ − δφ/pᵢ)
//! Eᵢ(n, φ) = P(sigᵢ)·δφ           if φ ≥ 1   (Eq. 3)
//!          = E_tail(idle+τ) − E_tail(idle)   if φ = 0   (Eq. 4/5)
//! ```
//!
//! For φ ≥ 1 the cost is affine in φ with slope
//! `s = δ·(V·P(sigᵢ) − PCᵢ/pᵢ)`, and the marginal of the first unit is
//! `s − V·E_tail_slot ≤ s`; each user's cost is therefore **convex** in φ,
//! which is the fact [`crate::ema_fast`] exploits and [`crate::oracle`]
//! cross-checks.

use jmso_gateway::{SlotContext, UserSnapshot};
use jmso_radio::rrc::tail_energy_between;
use jmso_radio::{Dbm, LinearRssiThroughput, PowerModel, RrcConfig, RssiPowerModel};
use serde::{Deserialize, Serialize};

/// How `f(i, 0)` prices the tail energy of an idle slot.
///
/// The literal Eq. (5) charges an idle slot the *incremental* tail
/// `E_tail(idle+τ) − E_tail(idle)` — 733 mJ for the first idle slot under
/// the paper's 3G parameters. Since one 50 KB frame costs only 10–230 mJ,
/// a myopic per-slot optimizer then **always** prefers a token
/// transmission over idling ("trickle"), keeping the radio in DCH
/// permanently and transmitting signal-blindly. Amortizing the tail over
/// the gap it actually starts (`h` slots) restores the bursty,
/// good-signal-seeking behaviour the paper reports for EMA (§VI-B,
/// Fig. 7) while keeping the decision tail-aware; see EXPERIMENTS.md for
/// the A/B measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Default)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum TailPricing {
    /// Literal Eq. (5): one slot's incremental tail.
    #[default]
    PerSlot,
    /// The tail of an `horizon_slots`-slot gap, amortized per slot.
    Amortized {
        /// Gap length the tail is amortized over.
        horizon_slots: u32,
    },
}

impl TailPricing {
    /// The default used by the figure harness (a typical inter-burst gap;
    /// the tail saturates after ~8 slots, so 20 amortizes it fully).
    pub fn amortized_default() -> Self {
        TailPricing::Amortized { horizon_slots: 20 }
    }
}

/// The cross-layer models a scheduler prices decisions with: the
/// throughput fit, the power fit and the RRC (tail-energy) parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct CrossLayerModels {
    /// RSSI → throughput fit `v(sig)`.
    pub throughput: LinearRssiThroughput,
    /// RSSI → power fit `P(sig)`.
    pub power: RssiPowerModel,
    /// RRC state machine parameters (tail energy).
    pub rrc: RrcConfig,
}

impl CrossLayerModels {
    /// The paper's §VI parameterisation (Eq. (24) fits, 3G RRC from \[29\]).
    pub fn paper() -> Self {
        Self {
            throughput: LinearRssiThroughput::paper(),
            power: RssiPowerModel::paper(),
            rrc: RrcConfig::umts_3g(),
        }
    }
}

impl Default for CrossLayerModels {
    fn default() -> Self {
        Self::paper()
    }
}

/// Evaluator for `f(i, φ)` given one slot's context and queue values.
#[derive(Debug, Clone, Copy)]
pub struct EmaCost<'a> {
    /// Lyapunov penalty weight `V` (larger = more energy saving).
    pub v: f64,
    /// Cross-layer models.
    pub models: &'a CrossLayerModels,
    /// Slot length τ.
    pub tau: f64,
    /// Frame length δ in KB.
    pub delta_kb: f64,
    /// How φ = 0 is priced.
    pub tail_pricing: TailPricing,
}

impl<'a> EmaCost<'a> {
    /// Build from a slot context with the literal Eq. (5) tail pricing.
    pub fn new(v: f64, models: &'a CrossLayerModels, ctx: &SlotContext) -> Self {
        Self::with_pricing(v, models, ctx, TailPricing::PerSlot)
    }

    /// Build with an explicit tail pricing.
    pub fn with_pricing(
        v: f64,
        models: &'a CrossLayerModels,
        ctx: &SlotContext,
        tail_pricing: TailPricing,
    ) -> Self {
        Self {
            v,
            models,
            tau: ctx.tau,
            delta_kb: ctx.delta_kb,
            tail_pricing,
        }
    }

    /// The priced cost of one more idle slot given the radio's idle time
    /// (field-level core).
    pub fn idle_slot_energy_at(&self, idle_s: f64) -> f64 {
        match self.tail_pricing {
            TailPricing::PerSlot => {
                tail_energy_between(&self.models.rrc, idle_s, idle_s + self.tau).value()
            }
            TailPricing::Amortized { horizon_slots } => {
                let h = horizon_slots.max(1) as f64;
                tail_energy_between(&self.models.rrc, idle_s, idle_s + h * self.tau).value() / h
            }
        }
    }

    /// The priced cost of idling this user for one more slot (φ = 0).
    pub fn idle_slot_energy(&self, user: &UserSnapshot) -> f64 {
        self.idle_slot_energy_at(user.idle_s)
    }

    /// Transmission energy for `units` frames at signal `sig` (Eq. (3);
    /// field-level core).
    pub fn transmission_energy_at(&self, sig: Dbm, units: u64) -> f64 {
        self.models
            .power
            .transmission_energy(sig, self.delta_kb * units as f64)
            .value()
    }

    /// Transmission energy for `units` frames (Eq. (3)).
    pub fn transmission_energy(&self, user: &UserSnapshot, units: u64) -> f64 {
        self.transmission_energy_at(user.signal, units)
    }

    /// `f(i, φ)` from the three fields it depends on (field-level core).
    pub fn f_at(&self, sig: Dbm, rate_kbps: f64, idle_s: f64, pc: f64, units: u64) -> f64 {
        let energy = if units == 0 {
            self.idle_slot_energy_at(idle_s)
        } else {
            self.transmission_energy_at(sig, units)
        };
        let t_i = self.delta_kb * units as f64 / rate_kbps;
        self.v * energy + pc * (self.tau - t_i)
    }

    /// `f(i, φ)` for user `user` with virtual queue `pc` (Eq. (22)).
    pub fn f(&self, user: &UserSnapshot, pc: f64, units: u64) -> f64 {
        self.f_at(user.signal, user.rate_kbps, user.idle_s, pc, units)
    }

    /// Slope of `f` in φ for φ ≥ 1 from its fields (field-level core).
    pub fn slope_at(&self, sig: Dbm, rate_kbps: f64, pc: f64) -> f64 {
        let p_kb = self.models.power.energy_per_kb(sig);
        self.delta_kb * (self.v * p_kb - pc / rate_kbps)
    }

    /// Slope of `f` in φ for φ ≥ 1: `s = δ·(V·P(sig) − PC/p)`.
    pub fn slope(&self, user: &UserSnapshot, pc: f64) -> f64 {
        self.slope_at(user.signal, user.rate_kbps, pc)
    }

    /// Marginal cost of the first unit: `f(1) − f(0) = slope − V·E_tail_slot`.
    pub fn first_unit_marginal(&self, user: &UserSnapshot, pc: f64) -> f64 {
        self.slope(user, pc) - self.v * self.idle_slot_energy(user)
    }

    /// The three cost curves `(f0, f1, slope)` of one user in a single
    /// evaluation.
    ///
    /// Every arithmetic expression below replays [`EmaCost::f_at`] /
    /// [`EmaCost::slope_at`] operation-for-operation (`φ = 0` keeps the
    /// literal `δ·0/p` term, `φ = 1` the literal `δ·1` factors), except
    /// that the power fit `P(sig)` is evaluated once and shared between
    /// `f1` and `slope` — a pure function of `sig`, so the shared value
    /// is the same f64 both call sites would have produced.
    #[inline(always)]
    pub fn curves_at(&self, sig: Dbm, rate_kbps: f64, idle_s: f64, pc: f64) -> (f64, f64, f64) {
        let p_kb = self.models.power.energy_per_kb(sig);
        // f(0): idle-tail energy, zero playback delivered.
        let e0 = self.idle_slot_energy_at(idle_s);
        let t0 = self.delta_kb * 0.0 / rate_kbps;
        let f0 = self.v * e0 + pc * (self.tau - t0);
        // f(1): one δ-frame of transmission energy and playback.
        let e1 = p_kb * (self.delta_kb * 1.0);
        let t1 = self.delta_kb * 1.0 / rate_kbps;
        let f1 = self.v * e1 + pc * (self.tau - t1);
        // Affine slope for φ ≥ 1.
        let slope = self.delta_kb * (self.v * p_kb - pc / rate_kbps);
        (f0, f1, slope)
    }

    /// [`EmaCost::curves_at`] for an AoS snapshot row.
    #[inline]
    pub fn curves(&self, user: &UserSnapshot, pc: f64) -> (f64, f64, f64) {
        self.curves_at(user.signal, user.rate_kbps, user.idle_s, pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    fn user(sig: f64, rate: f64, idle: f64) -> UserSnapshot {
        UserSnapshot {
            id: 0,
            signal: Dbm(sig),
            rate_kbps: rate,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: 100,
            idle_s: idle,
            rrc_state: RrcState::Dch,
        }
    }

    fn cost(models: &CrossLayerModels) -> EmaCost<'_> {
        EmaCost {
            v: 2.0,
            models,
            tau: 1.0,
            delta_kb: 50.0,
            tail_pricing: TailPricing::PerSlot,
        }
    }

    #[test]
    fn f_matches_hand_computation() {
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        let u = user(-80.0, 500.0, 0.0);
        let pc = 3.0;
        // φ = 4: E = P(−80)·200 KB; t = 200/500 = 0.4 s.
        let p_kb = -0.167 + 1560.0 / 2303.0;
        let expect = 2.0 * p_kb * 200.0 + 3.0 * (1.0 - 0.4);
        assert!((c.f(&u, pc, 4) - expect).abs() < 1e-9);
    }

    #[test]
    fn f_at_zero_prices_tail() {
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        let u = user(-80.0, 500.0, 0.0);
        // Fresh transmitter: next idle second costs Pd·1 = 732.83 mJ.
        let expect = 2.0 * 732.83 + 5.0 * 1.0;
        assert!((c.f(&u, 5.0, 0) - expect).abs() < 1e-6);
        // Deep in the tail it costs nothing.
        let u_idle = user(-80.0, 500.0, 100.0);
        assert!((c.f(&u_idle, 5.0, 0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn slope_is_f_difference() {
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        let u = user(-72.0, 420.0, 2.0);
        let pc = -4.0;
        let s = c.slope(&u, pc);
        for phi in 1..6 {
            let diff = c.f(&u, pc, phi + 1) - c.f(&u, pc, phi);
            assert!((diff - s).abs() < 1e-9, "φ={phi}");
        }
    }

    #[test]
    fn first_unit_marginal_matches() {
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        let u = user(-90.0, 350.0, 1.0);
        let pc = 7.0;
        let m1 = c.first_unit_marginal(&u, pc);
        assert!((m1 - (c.f(&u, pc, 1) - c.f(&u, pc, 0))).abs() < 1e-9);
    }

    #[test]
    fn convexity_first_marginal_below_slope() {
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        for sig in [-110.0, -80.0, -50.0] {
            for idle in [0.0, 2.0, 10.0] {
                for pc in [-10.0, 0.0, 10.0] {
                    let u = user(sig, 450.0, idle);
                    assert!(c.first_unit_marginal(&u, pc) <= c.slope(&u, pc) + 1e-12);
                }
            }
        }
    }

    /// The curve kernel reproduces the three scalar evaluators bit-for-bit
    /// across signal/rate/idle/pc grids, including degenerate sub-floor
    /// signals.
    #[test]
    fn curve_kernel_matches_scalar_bitwise() {
        let m = CrossLayerModels::paper();
        for pricing in [TailPricing::PerSlot, TailPricing::amortized_default()] {
            let c = EmaCost {
                v: 0.7,
                models: &m,
                tau: 1.0,
                delta_kb: 50.0,
                tail_pricing: pricing,
            };
            for sig in [-140.0, -110.0, -85.3, -50.0, -10.0] {
                for rate in [300.0, 417.5, 600.0] {
                    for idle in [0.0, 0.5, 3.7, 100.0] {
                        for pc in [-12.5, -0.0, 0.0, 3.25, 40.0] {
                            let u = user(sig, rate, idle);
                            let (f0, f1, slope) = c.curves_at(Dbm(sig), rate, idle, pc);
                            assert_eq!(f0.to_bits(), c.f(&u, pc, 0).to_bits());
                            assert_eq!(f1.to_bits(), c.f(&u, pc, 1).to_bits());
                            assert_eq!(slope.to_bits(), c.slope(&u, pc).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn large_pc_makes_data_attractive() {
        // A starved user (large positive PC) should have negative slope —
        // allocating reduces the objective.
        let m = CrossLayerModels::paper();
        let c = cost(&m);
        let u = user(-80.0, 450.0, 0.0);
        assert!(c.slope(&u, 1e4) < 0.0);
        // A well-fed user (negative PC) has positive slope.
        assert!(c.slope(&u, -1e4) > 0.0);
    }
}
