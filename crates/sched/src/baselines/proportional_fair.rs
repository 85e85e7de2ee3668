//! Proportional-fair (PF): the classical cellular downlink scheduler.
//!
//! Each slot, users are ranked by the PF metric `v(sigᵢ)/T̄ᵢ` — the
//! instantaneous link rate over an exponentially averaged served
//! throughput — and the BS budget is granted in that order. PF is the
//! industry-standard point of comparison for any cellular allocation
//! study: it is channel-aware (serves users at their channel peaks, the
//! same opportunism EMA exploits for energy) but video-oblivious — it
//! knows nothing about bitrates, buffers or rebuffering, which is exactly
//! the gap the paper's cross-layer schedulers fill.

use jmso_gateway::{Allocation, Scheduler, SlotContext};

/// The proportional-fair baseline.
#[derive(Debug, Clone)]
pub struct ProportionalFair {
    /// EWMA horizon for the served-throughput average (classic PF uses
    /// ~1000 slots at millisecond TTIs; at 1 s slots a shorter memory is
    /// appropriate).
    pub ewma_alpha: f64,
    avg_served_kb: Vec<f64>,
    // Reusable ranking scratch so the hot path allocates nothing.
    order: Vec<usize>,
}

impl ProportionalFair {
    /// Build with the EWMA factor α ∈ (0, 1].
    pub fn new(ewma_alpha: f64) -> Self {
        assert!(ewma_alpha > 0.0 && ewma_alpha <= 1.0, "α must be in (0, 1]");
        Self {
            ewma_alpha,
            avg_served_kb: Vec::new(),
            order: Vec::new(),
        }
    }

    /// The default configuration used in comparisons.
    pub fn paper_default() -> Self {
        Self::new(0.05)
    }
}

impl Scheduler for ProportionalFair {
    fn name(&self) -> &'static str {
        "PF"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        let n = ctx.users.len();
        if self.avg_served_kb.len() != n {
            // Seed averages at a nominal rate to avoid divide-by-zero and
            // cold-start lotteries.
            self.avg_served_kb = vec![1.0; n];
        }
        self.order.clear();
        self.order.extend(0..n);
        let avg_served_kb = &self.avg_served_kb;
        let metric = |i: usize| {
            let u = &ctx.users[i];
            (u.link_cap_units as f64 * ctx.delta_kb) / avg_served_kb[i]
        };
        // Descending metric; explicit index tie-break keeps the unstable
        // (allocation-free) sort deterministic.
        // `total_cmp` matches `partial_cmp` on the finite non-negative
        // metrics this computes (rates and averages are positive, so no
        // −0.0/+0.0 pair can appear) and cannot panic.
        self.order
            .sort_unstable_by(|&a, &b| metric(b).total_cmp(&metric(a)).then(a.cmp(&b)));

        out.reset(n);
        let alloc = &mut out.0;
        let mut budget = ctx.bs_cap_units;
        for &i in &self.order {
            if budget == 0 {
                break;
            }
            let grant = ctx.users[i].usable_cap_units(ctx.delta_kb).min(budget);
            alloc[i] = grant;
            budget -= grant;
        }

        // EWMA update with what was actually granted.
        for (avg, granted) in self.avg_served_kb.iter_mut().zip(alloc.iter()) {
            let served = *granted as f64 * ctx.delta_kb;
            *avg = self.ewma_alpha * served + (1.0 - self.ewma_alpha) * *avg;
            // Keep strictly positive for the metric.
            *avg = avg.max(1e-6);
        }
    }

    fn export_state(&self) -> Option<String> {
        super::export_rows(&self.avg_served_kb)
    }

    fn import_state(&mut self, state: &str) -> Result<(), String> {
        super::import_rows(self.name(), &mut self.avg_served_kb, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn serves_best_channel_first_when_cold() {
        let users = vec![user(0, -105.0, 450.0, 8), user(1, -55.0, 450.0, 80)];
        let mut pf = ProportionalFair::paper_default();
        let a = pf.allocate(&ctx(&users, 60));
        assert!(
            a.0[1] > a.0[0],
            "strong channel wins the cold start: {:?}",
            a.0
        );
    }

    #[test]
    fn starved_user_rises_in_priority() {
        // User 1 has double the channel; with PF, user 0 still gets served
        // regularly because their average collapses while user 1's grows.
        let users = vec![user(0, -95.0, 450.0, 20), user(1, -60.0, 450.0, 40)];
        let mut pf = ProportionalFair::paper_default();
        let mut user0_total = 0;
        for _ in 0..50 {
            // Budget only covers one user's cap: winner takes most.
            let a = pf.allocate(&ctx(&users, 25));
            user0_total += a.0[0];
        }
        assert!(
            user0_total > 100,
            "PF must cycle service to the weak user, got {user0_total}"
        );
    }

    #[test]
    fn respects_constraints() {
        let users: Vec<_> = (0..6)
            .map(|i| user(i, -70.0 - 5.0 * i as f64, 450.0, 30))
            .collect();
        let mut pf = ProportionalFair::paper_default();
        let c = ctx(&users, 70);
        let a = pf.allocate(&c);
        a.validate(&c).expect("valid allocation");
        assert_eq!(a.total_units(), 70, "work conserving under load");
    }

    #[test]
    #[should_panic(expected = "α must be in (0, 1]")]
    fn zero_alpha_rejected() {
        ProportionalFair::new(0.0);
    }
}
