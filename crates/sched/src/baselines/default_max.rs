//! The Default strategy: "delivers video contents to each user as much as
//! possible to make full use of throughput" (§VI-A).
//!
//! Users are served in fixed index order, each taking
//! `min(link cap, remaining BS budget, remaining bytes)`. Early users can
//! seize the whole BS budget — exactly the unfairness the paper's Fig. 2
//! attributes to this strategy.

use jmso_gateway::{Allocation, Scheduler, SlotContext, SparseGrants};

/// The greedy-max baseline.
#[derive(Debug, Clone, Default)]
pub struct DefaultMax {
    /// The rows of the caller's vector the latest call granted to: the
    /// next call zeroes those and not the pool.
    grants: SparseGrants,
}

impl DefaultMax {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for DefaultMax {
    fn name(&self) -> &'static str {
        "Default"
    }

    fn grant_rows_touched(&self) -> Option<usize> {
        Some(self.grants.rows_touched())
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        self.grants.begin(out, ctx.users.len());
        let mut budget = ctx.bs_cap_units;
        // Only the listed rows can hold a non-zero ceiling: sweeping them
        // in ascending order grants what the full index-order sweep
        // would, bit for bit, at the cost of the sessions in the cell
        // instead of the pool.
        let mut sweep = |i: usize| {
            let grant = ctx.users[i].usable_cap_units(ctx.delta_kb).min(budget);
            budget -= grant;
            self.grants.grant(out, i, grant);
        };
        match ctx.soa {
            Some(live) => live.iter().for_each(|&i| sweep(i)),
            None => (0..ctx.users.len()).for_each(sweep),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn takes_everything_available() {
        let users = vec![user(0, -70.0, 450.0, 30), user(1, -70.0, 450.0, 30)];
        let mut d = DefaultMax::new();
        let c = ctx(&users, 400);
        let a = d.allocate(&c);
        assert_eq!(a.0, vec![30, 30]);
        a.validate(&c).expect("valid allocation");
    }

    #[test]
    fn early_users_seize_scarce_budget() {
        let users = vec![
            user(0, -70.0, 450.0, 50),
            user(1, -70.0, 450.0, 50),
            user(2, -70.0, 450.0, 50),
        ];
        let mut d = DefaultMax::new();
        let a = d.allocate(&ctx(&users, 60));
        assert_eq!(a.0, vec![50, 10, 0], "first-come order starves the tail");
    }

    #[test]
    fn respects_remaining_bytes() {
        let mut u = user(0, -70.0, 450.0, 50);
        u.remaining_kb = 120.0; // 3 units of 50 KB
        let users = vec![u];
        let mut d = DefaultMax::new();
        let a = d.allocate(&ctx(&users, 400));
        assert_eq!(a.0[0], 3);
    }

    /// Rows 1 and 3 are in the engine's retired shape (inactive, nothing
    /// left, link bound kept) and off the list: sweeping the list spends
    /// the scarce budget first-come over rows 0 and 2, exactly as the
    /// sweep over every row does.
    #[test]
    fn listed_sweep_grants_what_the_full_sweep_grants() {
        let mut users: Vec<_> = (0..4).map(|i| user(i, -70.0, 450.0, 50)).collect();
        for i in [1, 3] {
            users[i].active = false;
            users[i].remaining_kb = 0.0;
        }
        let full = DefaultMax::new().allocate(&ctx(&users, 60));
        let listed = DefaultMax::new().allocate(&SlotContext {
            soa: Some(&[0, 2]),
            ..ctx(&users, 60)
        });
        assert_eq!(full.0, vec![50, 0, 10, 0]);
        assert_eq!(listed.0, full.0);
    }
}
