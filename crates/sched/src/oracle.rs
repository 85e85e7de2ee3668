//! Brute-force oracle for tiny per-slot instances.
//!
//! Both per-slot problems the paper proves NP-hard reduce, for one slot, to
//! a bounded multi-choice knapsack. This module enumerates *every* feasible
//! allocation so the greedy of [`crate::ema_fast::solve_greedy_with`] and
//! the Algorithm 2 table of [`crate::ema::solve_dp_with`] can be validated
//! against ground truth on small instances, and so tests and examples can
//! inspect true optima.
//!
//! The state space is `Π (capᵢ+1)`, so keep instances tiny (≤ ~6 users ×
//! ≤ ~8 units).

use crate::ema::SlotUser;

/// Minimize `Σ f(i, φᵢ)` subject to `φᵢ ≤ capᵢ`, `Σφᵢ ≤ budget` by
/// exhaustive enumeration. Returns `(allocation, objective)`.
pub fn solve_exhaustive(parts: &[SlotUser], budget: u64) -> (Vec<u64>, f64) {
    let mut best_alloc = vec![0u64; parts.len()];
    let mut best = f64::INFINITY;
    let mut current = vec![0u64; parts.len()];
    recurse(
        parts,
        budget,
        0,
        0.0,
        &mut current,
        &mut best,
        &mut best_alloc,
    );
    (best_alloc, best)
}

fn recurse(
    parts: &[SlotUser],
    budget: u64,
    i: usize,
    acc: f64,
    current: &mut Vec<u64>,
    best: &mut f64,
    best_alloc: &mut Vec<u64>,
) {
    if i == parts.len() {
        if acc < *best {
            *best = acc;
            best_alloc.clone_from(current);
        }
        return;
    }
    let cap = parts[i].cap.min(budget);
    for phi in 0..=cap {
        // f can be negative (queue relief), so partial sums give no sound
        // pruning bound; enumerate fully — instances are tiny by contract.
        let c = acc + parts[i].f(phi);
        current[i] = phi;
        recurse(parts, budget - phi, i + 1, c, current, best, best_alloc);
    }
    current[i] = 0;
}

/// Exhaustive minimum of next-slot rebuffering: minimize
/// `Σᵢ max(τ − (rᵢ_carry + δφᵢ/pᵢ), 0)` — the Eq. (8) shortfall each user
/// will suffer next slot given their carried-over occupancy and this
/// slot's shard. This is the true per-slot RTM objective (unlike raw
/// playback volume, each user's benefit saturates once a full slot is
/// covered, which is exactly why RTMA's need-tranche ordering is optimal).
/// Tiny instances only.
pub fn min_rebuffer_exhaustive(
    parts: &[SlotUser],
    carry_s: &[f64],
    delta_kb: f64,
    tau: f64,
    budget: u64,
) -> f64 {
    assert_eq!(parts.len(), carry_s.len());
    #[allow(clippy::too_many_arguments)]
    fn rec(
        parts: &[SlotUser],
        carry_s: &[f64],
        delta_kb: f64,
        tau: f64,
        budget: u64,
        i: usize,
        acc: f64,
        best: &mut f64,
    ) {
        if i == parts.len() {
            *best = best.min(acc);
            return;
        }
        let cap = parts[i].cap.min(budget);
        for phi in 0..=cap {
            let t = carry_s[i] + delta_kb * phi as f64 / parts[i].rate_kbps;
            let c = (tau - t).max(0.0);
            rec(
                parts,
                carry_s,
                delta_kb,
                tau,
                budget - phi,
                i + 1,
                acc + c,
                best,
            );
        }
    }
    let mut best = f64::INFINITY;
    rec(parts, carry_s, delta_kb, tau, budget, 0, 0.0, &mut best);
    best
}

/// Exhaustive maximum of total playback seconds (a *volume* objective,
/// distinct from rebuffering: it has no per-user saturation, so its
/// optimum dumps everything on the lowest-rate user).
pub fn max_playback_exhaustive(parts: &[SlotUser], delta_kb: f64, budget: u64) -> f64 {
    fn rec(parts: &[SlotUser], delta_kb: f64, budget: u64, i: usize, acc: f64, best: &mut f64) {
        if i == parts.len() {
            *best = best.max(acc);
            return;
        }
        let cap = parts[i].cap.min(budget);
        for phi in 0..=cap {
            let t = delta_kb * phi as f64 / parts[i].rate_kbps;
            rec(parts, delta_kb, budget - phi, i + 1, acc + t, best);
        }
    }
    let mut best = 0.0;
    rec(parts, delta_kb, budget, 0, 0.0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CrossLayerModels, EmaCost};
    use crate::ema::{objective, slot_users, solve_dp_with, DpScratch};
    use crate::ema_fast::solve_greedy;
    use crate::lyapunov::VirtualQueues;
    use jmso_gateway::{SlotContext, UserSnapshot};
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    fn user(id: usize, sig: f64, rate: f64, link_cap: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(sig),
            rate_kbps: rate,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: link_cap,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    #[test]
    fn oracle_agrees_with_dp_and_greedy() {
        let users = vec![
            user(0, -95.0, 300.0, 4),
            user(1, -65.0, 550.0, 5),
            user(2, -80.0, 420.0, 3),
        ];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 7,
            users: &users,
            soa: None,
        };
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(1.5, &models, &ctx);
        let mut q = VirtualQueues::new(3);
        q.update(0, 1.0, 0.0);
        q.update(1, 1.0, 2.5);
        q.update(2, 1.0, 0.2);
        let parts = slot_users(&cost, &ctx, &q);
        let (oracle_alloc, oracle_obj) = solve_exhaustive(&parts, 7);
        assert!(oracle_alloc.iter().sum::<u64>() <= 7);
        let dp = solve_dp_with(&parts, 7, &mut DpScratch::default()).to_vec();
        let fast = solve_greedy(&parts, 7);
        assert!((objective(&parts, &dp) - oracle_obj).abs() < 1e-9);
        assert!((objective(&parts, &fast) - oracle_obj).abs() < 1e-9);
    }

    #[test]
    fn max_playback_prefers_low_rate_users() {
        // Budget 2, user 0 at 300 KB/s, user 1 at 600 KB/s: each unit on
        // user 0 is worth twice the playback time.
        let users = vec![user(0, -70.0, 300.0, 2), user(1, -70.0, 600.0, 2)];
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 2,
            users: &users,
            soa: None,
        };
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(1.0, &models, &ctx);
        let q = VirtualQueues::new(2);
        let parts = slot_users(&cost, &ctx, &q);
        let best = max_playback_exhaustive(&parts, 50.0, 2);
        // Both units to user 0: 2·50/300 = 1/3 s.
        assert!((best - 100.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn empty_instance() {
        let (alloc, obj) = solve_exhaustive(&[], 5);
        assert!(alloc.is_empty());
        assert_eq!(obj, 0.0);
    }
}
