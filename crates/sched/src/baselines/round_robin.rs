//! Round-robin: the classical competition-aware strawman.
//!
//! Each slot the starting user rotates; every user is offered up to their
//! per-slot need (like RTMA's tranches) and leftover budget is swept again
//! at full speed. Unlike RTMA it is rate- and signal-oblivious: the
//! rotation ignores who is cheap to serve and who can actually receive,
//! which is exactly the cross-layer information the paper's schedulers
//! exploit. Including it separates "RTMA wins because it is fair" from
//! "RTMA wins because it is cross-layer".

use jmso_gateway::{Allocation, Scheduler, SlotContext};

/// The rotating fair-share baseline. The rotation point is the slot
/// index, so the policy carries nothing from slot to slot (and a resumed
/// run rotates where the straight one does).
#[derive(Debug, Clone, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Construct the baseline.
    pub fn new() -> Self {
        Self
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        let n = ctx.users.len();
        out.reset(n);
        if n == 0 {
            return;
        }
        let alloc = &mut out.0;
        let mut budget = ctx.bs_cap_units;
        let start = (ctx.slot % n as u64) as usize;

        // Pass 1: one need-tranche each, starting from the rotation point.
        for k in 0..n {
            let i = (start + k) % n;
            let u = &ctx.users[i];
            let need = ((ctx.tau * u.rate_kbps) / ctx.delta_kb).ceil() as u64;
            let grant = need.min(u.usable_cap_units(ctx.delta_kb)).min(budget);
            alloc[i] = grant;
            budget -= grant;
            if budget == 0 {
                break;
            }
        }
        // Pass 2: sweep leftover budget at full speed in the same order.
        if budget > 0 {
            for k in 0..n {
                let i = (start + k) % n;
                let u = &ctx.users[i];
                let headroom = u.usable_cap_units(ctx.delta_kb) - alloc[i];
                let grant = headroom.min(budget);
                alloc[i] += grant;
                budget -= grant;
                if budget == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn rotation_moves_the_privilege() {
        let users: Vec<_> = (0..3).map(|i| user(i, -70.0, 500.0, 50)).collect();
        let mut rr = RoundRobin::new();
        // Budget covers one full user plus change: the winner rotates.
        let at = |slot| SlotContext {
            slot,
            ..ctx(&users, 55)
        };
        let a0 = rr.allocate(&at(0));
        let a1 = rr.allocate(&at(1));
        let a2 = rr.allocate(&at(2));
        let winner = |a: &Allocation| {
            a.0.iter()
                .enumerate()
                .max_by_key(|(_, v)| **v)
                .map(|(i, _)| i)
                .unwrap()
        };
        let winners = [winner(&a0), winner(&a1), winner(&a2)];
        assert_eq!(winners, [0, 1, 2]);
    }

    #[test]
    fn needs_served_before_extras() {
        let users: Vec<_> = (0..4).map(|i| user(i, -70.0, 500.0, 50)).collect();
        let mut rr = RoundRobin::new();
        // Budget = exactly 4 need-tranches (⌈500/50⌉ = 10 each).
        let a = rr.allocate(&ctx(&users, 40));
        assert_eq!(a.0, vec![10, 10, 10, 10]);
    }

    #[test]
    fn leftover_swept_at_full_speed() {
        let users: Vec<_> = (0..2).map(|i| user(i, -70.0, 500.0, 30)).collect();
        let mut rr = RoundRobin::new();
        let c = ctx(&users, 100);
        let a = rr.allocate(&c);
        assert_eq!(a.total_units(), 60, "both users at link cap");
        a.validate(&c).expect("valid allocation");
    }

    #[test]
    fn empty_users() {
        let users = vec![];
        let mut rr = RoundRobin::new();
        assert!(rr.allocate(&ctx(&users, 10)).0.is_empty());
    }
}
