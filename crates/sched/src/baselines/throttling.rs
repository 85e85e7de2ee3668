//! Throttling \[15\]: pace each flow "at a rate that is lower than the bulk
//! transfer capacity but higher than the encoding rate".
//!
//! Each slot, every user is offered `⌈κ·τ·pᵢ/δ⌉` units (κ > 1), clamped by
//! Eq. (1)/(2) and remaining bytes, in fixed user order. The radio stays
//! continuously active (no bursting), so the policy never banks tail time —
//! the paper's Fig. 5b shows the resulting energy cost, and Fig. 5a the
//! rebuffering collapse once `Σ κ·pᵢ` exceeds the BS capacity.

use jmso_gateway::{Allocation, Scheduler, SlotContext};

/// The server-side pacing baseline.
#[derive(Debug, Clone, Copy)]
pub struct Throttling {
    /// Pacing factor κ over the encoding rate.
    pub kappa: f64,
}

impl Throttling {
    /// Throttle at `kappa` times the encoding rate (κ must exceed 1 to
    /// ever build buffer).
    pub fn new(kappa: f64) -> Self {
        assert!(kappa > 0.0, "κ must be positive");
        Self { kappa }
    }

    /// The typical configuration: 25 % above the encoding rate.
    pub fn paper_default() -> Self {
        Self::new(1.25)
    }
}

impl Scheduler for Throttling {
    fn name(&self) -> &'static str {
        "Throttling"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        out.reset(ctx.users.len());
        let mut budget = ctx.bs_cap_units;
        for (u, slot) in ctx.users.iter().zip(&mut out.0) {
            let target = ((self.kappa * ctx.tau * u.rate_kbps) / ctx.delta_kb).ceil() as u64;
            let grant = target.min(u.usable_cap_units(ctx.delta_kb)).min(budget);
            budget -= grant;
            *slot = grant;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn paces_at_kappa_times_rate() {
        let users = vec![user(0, -70.0, 400.0, 50)];
        let mut t = Throttling::new(1.25);
        let a = t.allocate(&ctx(&users, 400));
        // ⌈1.25·400/50⌉ = 10 units.
        assert_eq!(a.0[0], 10);
    }

    #[test]
    fn never_exceeds_link_cap() {
        let users = vec![user(0, -70.0, 600.0, 5)];
        let mut t = Throttling::new(2.0);
        assert_eq!(t.allocate(&ctx(&users, 400)).0[0], 5);
    }

    #[test]
    fn oversubscription_starves_late_users() {
        // 5 users each wanting 10 units from a budget of 25.
        let users: Vec<_> = (0..5).map(|i| user(i, -70.0, 400.0, 50)).collect();
        let mut t = Throttling::new(1.25);
        let a = t.allocate(&ctx(&users, 25));
        assert_eq!(a.0, vec![10, 10, 5, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_kappa_rejected() {
        Throttling::new(0.0);
    }
}
