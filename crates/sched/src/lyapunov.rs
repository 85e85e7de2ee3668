//! Lyapunov machinery for EMA: the virtual rebuffering queues of Eq. (16)
//! and the Theorem 1 performance bounds.
//!
//! Each user carries a signed virtual queue
//! `PCᵢ(n+1) = PCᵢ(n) + τ − tᵢ(n)` where `tᵢ(n)` is the playback time of
//! the shard delivered in slot `n`. Positive `PCᵢ` accumulates rebuffering
//! pressure; negative `PCᵢ` means the buffer holds surplus. Telescoping
//! the recursion over a session of `Γᵢ` slots recovers Eq. (15):
//! `PCᵢ(Γᵢ) = τ·Γᵢ − Σ tᵢ(n)`.

use jmso_gateway::SlotContext;
use serde::{Deserialize, Serialize};

/// The per-user virtual queues `PCᵢ(n)`.
///
/// ```
/// use jmso_sched::VirtualQueues;
///
/// let mut q = VirtualQueues::new(2);
/// q.update(0, 1.0, 0.0); // starved slot: PC₀ += τ − 0
/// q.update(1, 1.0, 3.0); // 3 s delivered in a 1 s slot: PC₁ goes negative
/// assert_eq!(q.get(0), 1.0);
/// assert_eq!(q.get(1), -2.0);
/// assert_eq!(q.lyapunov(), 0.5 * (1.0 + 4.0)); // Eq. (17)
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VirtualQueues {
    pc: Vec<f64>,
    slots_updated: Vec<u64>,
}

impl VirtualQueues {
    /// Queues for `n` users, all starting at zero.
    pub fn new(n: usize) -> Self {
        Self {
            pc: vec![0.0; n],
            slots_updated: vec![0; n],
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// True when tracking no users.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// `PCᵢ(n)` for user `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.pc[i]
    }

    /// All queue values.
    pub fn values(&self) -> &[f64] {
        &self.pc
    }

    /// Apply Eq. (16) for user `i`: one slot elapsed, `t_i` seconds of
    /// playback delivered.
    #[inline]
    pub fn update(&mut self, i: usize, tau: f64, t_i: f64) {
        self.pc[i] += tau - t_i;
        self.slots_updated[i] += 1;
    }

    /// Slots over which user `i`'s queue has been updated (`Γᵢ`).
    pub fn slots(&self, i: usize) -> u64 {
        self.slots_updated[i]
    }

    /// Apply Eq. (16) across a whole slot, given the allocation the
    /// scheduler just made: every still-watching user's queue grows by
    /// `τ − tᵢ(n)` with `tᵢ(n) = δ·φᵢ/pᵢ`. Users who finished watching no
    /// longer accrue rebuffering pressure (Eq. (8)'s `mᵢ ≥ Mᵢ` branch).
    pub fn apply_allocation(&mut self, ctx: &SlotContext, alloc: &[u64]) {
        debug_assert_eq!(alloc.len(), ctx.users.len());
        for (u, &units) in ctx.users.iter().zip(alloc) {
            if u.active {
                let t_i = ctx.playback_seconds(units, u.rate_kbps);
                self.update(u.id, ctx.tau, t_i);
            }
        }
    }

    /// Saturate user `i`'s queue at `bound` (graceful degradation under
    /// prolonged outage: unbounded `PCᵢ` growth would otherwise make EMA
    /// over-serve one user for many slots once the link returns). Returns
    /// the pre-clamp value when the clamp actually fired.
    #[inline]
    pub fn clamp(&mut self, i: usize, bound: f64) -> Option<f64> {
        let before = self.pc[i];
        if before > bound {
            self.pc[i] = bound;
            Some(before)
        } else {
            None
        }
    }

    /// The Lyapunov function `L(n) = ½ Σ PCᵢ²` (Eq. (17)).
    pub fn lyapunov(&self) -> f64 {
        0.5 * self.pc.iter().map(|x| x * x).sum::<f64>()
    }

    /// Aggregate queue `PC(n) = Σ PCᵢ(n)`.
    pub fn total(&self) -> f64 {
        self.pc.iter().sum()
    }
}

/// The drift constant `B = ½ Σᵢ (τ² + t_max²)` of Eq. (18), where `t_max`
/// bounds the playback time any one shard can carry in a slot.
pub fn drift_bound_b(n_users: usize, tau: f64, t_max: f64) -> f64 {
    0.5 * n_users as f64 * (tau * tau + t_max * t_max)
}

/// Theorem 1, energy side: `PE∞ ≤ E* + B/V`.
pub fn energy_upper_bound(e_star: f64, b: f64, v: f64) -> f64 {
    assert!(v > 0.0, "V must be positive");
    e_star + b / v
}

/// Theorem 1, rebuffering side: `PC∞ ≤ (B + V·E*) / ε`.
pub fn rebuffer_upper_bound(b: f64, v: f64, e_star: f64, eps: f64) -> f64 {
    assert!(eps > 0.0, "ε must be positive");
    (b + v * e_star) / eps
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Eq. (16) telescopes to Eq. (15): PC(Γ) = τΓ − Σ tᵢ(n).
    #[test]
    fn recursion_telescopes_to_eq15() {
        let mut q = VirtualQueues::new(1);
        let tau = 1.0;
        let ts = [0.3, 1.5, 0.0, 2.2, 0.7];
        for t in ts {
            q.update(0, tau, t);
        }
        let expect = tau * ts.len() as f64 - ts.iter().sum::<f64>();
        assert!((q.get(0) - expect).abs() < 1e-12);
        assert_eq!(q.slots(0), 5);
    }

    /// Queues go negative when delivery outpaces playback (buffer surplus).
    #[test]
    fn surplus_is_negative() {
        let mut q = VirtualQueues::new(2);
        q.update(0, 1.0, 3.0); // 3 s delivered in a 1 s slot
        q.update(1, 1.0, 0.0); // starved
        assert!(q.get(0) < 0.0);
        assert!(q.get(1) > 0.0);
        assert!((q.total() - (q.get(0) + q.get(1))).abs() < 1e-12);
    }

    /// L(n) matches Eq. (17).
    #[test]
    fn lyapunov_function() {
        let mut q = VirtualQueues::new(2);
        q.update(0, 1.0, 0.0); // PC₀ = 1
        q.update(1, 1.0, 3.0); // PC₁ = −2
        assert!((q.lyapunov() - 0.5 * (1.0 + 4.0)).abs() < 1e-12);
    }

    /// B matches its definition.
    #[test]
    fn drift_b() {
        // ½·3·(1 + 4) = 7.5
        assert!((drift_bound_b(3, 1.0, 2.0) - 7.5).abs() < 1e-12);
    }

    /// Theorem 1's energy bound by hand: E* + B/V = 500 + 20/4 = 505.
    #[test]
    fn energy_bound_by_hand() {
        assert!((energy_upper_bound(500.0, 20.0, 4.0) - 505.0).abs() < 1e-12);
        // V = 1: the whole of B is added.
        assert!((energy_upper_bound(500.0, 20.0, 1.0) - 520.0).abs() < 1e-12);
    }

    /// Theorem 1's rebuffering bound by hand:
    /// (B + V·E*)/ε = (20 + 4·500)/0.1 = 20 200.
    #[test]
    fn rebuffer_bound_by_hand() {
        assert!((rebuffer_upper_bound(20.0, 4.0, 500.0, 0.1) - 20_200.0).abs() < 1e-9);
        // V = 1 and ε = 1: B + E*.
        assert!((rebuffer_upper_bound(20.0, 1.0, 500.0, 1.0) - 520.0).abs() < 1e-12);
    }

    /// The Theorem 1 trade-off: raising V tightens the energy bound and
    /// loosens the rebuffering bound.
    #[test]
    fn theorem1_tradeoff_directions() {
        let (e_star, b, eps) = (500.0, 20.0, 0.1);
        let e_lo_v = energy_upper_bound(e_star, b, 1.0);
        let e_hi_v = energy_upper_bound(e_star, b, 100.0);
        assert!(e_hi_v < e_lo_v);
        assert!(e_hi_v >= e_star);
        let c_lo_v = rebuffer_upper_bound(b, 1.0, e_star, eps);
        let c_hi_v = rebuffer_upper_bound(b, 100.0, e_star, eps);
        assert!(c_hi_v > c_lo_v);
    }

    #[test]
    #[should_panic(expected = "V must be positive")]
    fn zero_v_rejected() {
        energy_upper_bound(1.0, 1.0, 0.0);
    }

    #[test]
    fn empty_queues() {
        let q = VirtualQueues::new(0);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.lyapunov(), 0.0);
        assert_eq!(q.total(), 0.0);
    }
}
