//! The exact `O(P log P)` solver for EMA's per-slot problem.
//!
//! Each user's cost `f(i, φ)` is convex in φ (see [`crate::cost`]): the
//! marginal of the first unit is `slope − V·E_tail_slot` and every further
//! unit costs `slope`, a non-decreasing sequence. Minimizing a sum of
//! separable convex functions under a single budget is solved exactly by
//! taking units in globally non-decreasing marginal order while marginals
//! are negative — positive marginals can only raise the objective, and the
//! capacity constraint is an inequality.
//!
//! Because all of a user's post-first units share one marginal, the greedy
//! pops at most two heap entries per user, so a slot costs `O(P log P)`
//! against the `O(P·C·φ_max)` of the paper's Algorithm 2 table
//! ([`crate::ema::solve_dp_with`]), which is kept as the oracle:
//! `tests/sched_properties.rs` and `tests/multi_slot_properties.rs` pin
//! the two allocation for allocation.

use crate::ema::SlotUser;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Heap entry: a block of units with a common marginal cost.
#[derive(Debug, Clone, PartialEq)]
struct Block {
    marginal: f64,
    /// Index into the participant array.
    part: usize,
    /// Units available at this marginal.
    units: u64,
    /// Whether taking this block unlocks the user's bulk block.
    first: bool,
}

// Order blocks by `total_cmp` on the marginal, then by participant index.
// `total_cmp` is a genuine total order on all f64 bit patterns, so the
// `BinaryHeap` contract holds even for hand-built non-finite inputs. For
// finite marginals it agrees with `partial_cmp`: only pruned blocks
// (never inserted, see [`solve_greedy_with`]) could carry NaN, and the
// `−0.0 < +0.0` it distinguishes are both pruned by the `< 0.0` take-test.
impl Eq for Block {}
impl PartialOrd for Block {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Block {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.marginal
            .total_cmp(&other.marginal)
            .then_with(|| self.part.cmp(&other.part))
    }
}

/// Reusable buffers for [`solve_greedy_with`], owned by [`crate::Ema`] so
/// the engine hot path performs zero heap allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct GreedyScratch {
    heap: BinaryHeap<Reverse<Block>>,
    chosen: Vec<u64>,
}

/// The units the greedy would ever *take* from user `s`: the first unit
/// only if its marginal `f1 − f0` is strictly negative, plus the bulk
/// block only if additionally `slope < 0`. A NaN marginal compares false
/// against `< 0.0` and is treated as non-negative (never taken) — the
/// same outcome Algorithm 2's `cand < best` comparison produces for NaN
/// curves.
#[inline]
fn negative_units(s: &SlotUser) -> u64 {
    // The negated form is the point — `>= 0.0` would treat a NaN
    // marginal as takeable.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if s.cap == 0 || !(s.f1 - s.f0 < 0.0) {
        return 0;
    }
    if s.slope < 0.0 {
        s.cap
    } else {
        1
    }
}

/// Solve one slot's EMA problem exactly by marginal-cost greedy, reusing
/// `scratch`. Returns per-participant unit counts aligned with `parts`.
///
/// **Tie-break contract**, shared with the paper's Algorithm 2
/// ([`crate::ema::solve_dp_with`]) so the two agree allocation for
/// allocation and not just in objective: among equal marginals the lowest
/// participant index wins; a zero or NaN marginal is never taken; hence
/// of all optimal allocations the one with the smallest total is
/// returned. `Block`'s order is the first clause, the strict `< 0.0`
/// tests below are the second.
///
/// Two exact shortcuts sit in front of the heap:
///
/// * **Dominance pruning** — only strictly-negative-marginal blocks enter
///   the heap. A min-heap pops every negative block before any `≥ 0` one,
///   and a `≥ 0` block is never taken, so not inserting it yields the
///   same allocation with a smaller heap: a user whose queue pressure
///   doesn't pay for the first unit gets zero.
/// * **Take-all fast path** — when the total strictly-negative unit count
///   `T` fits the budget, the heap order is irrelevant: the greedy takes
///   *exactly* the negative units of every user, a closed form per user
///   (`negative_units`). Only a contended slot (`T > budget`) pays for
///   the heap. In the paper's workloads the budget binds rarely (the
///   steady trickle keeps Σcap ≪ C), so this is the common path.
pub fn solve_greedy_with<'s>(
    parts: &[SlotUser],
    bs_cap_units: u64,
    scratch: &'s mut GreedyScratch,
) -> &'s [u64] {
    let GreedyScratch { heap, chosen } = scratch;
    chosen.clear();
    chosen.resize(parts.len(), 0);
    let mut budget = bs_cap_units;

    let mut total_neg: u64 = 0;
    for s in parts {
        total_neg = total_neg.saturating_add(negative_units(s));
    }
    if total_neg <= budget {
        for (c, s) in chosen.iter_mut().zip(parts) {
            *c = negative_units(s);
        }
        return chosen;
    }

    heap.clear();
    heap.extend(
        parts
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cap > 0 && s.f1 - s.f0 < 0.0)
            .map(|(idx, s)| {
                Reverse(Block {
                    // f(1) − f(0): the first unit's marginal, which also
                    // cashes in the avoided tail slot.
                    marginal: s.f1 - s.f0,
                    part: idx,
                    units: 1,
                    first: true,
                })
            }),
    );

    while budget > 0 {
        let Some(Reverse(block)) = heap.pop() else {
            break;
        };
        let take = block.units.min(budget);
        chosen[block.part] += take;
        budget -= take;
        if block.first {
            let s = &parts[block.part];
            if s.cap > 1 && s.slope < 0.0 {
                heap.push(Reverse(Block {
                    marginal: s.slope,
                    part: block.part,
                    units: s.cap - 1,
                    first: false,
                }));
            }
        }
    }
    chosen
}

/// Solve one slot's EMA problem exactly by marginal-cost greedy
/// (allocating convenience wrapper over [`solve_greedy_with`]).
pub fn solve_greedy(parts: &[SlotUser], bs_cap_units: u64) -> Vec<u64> {
    let mut scratch = GreedyScratch::default();
    solve_greedy_with(parts, bs_cap_units, &mut scratch).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CrossLayerModels, EmaCost};
    use crate::ema::{slot_users, solve_dp_with, DpScratch};
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

    fn ctx<'a>(users: &'a [UserSnapshot], bs_cap: u64) -> SlotContext<'a> {
        SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: bs_cap,
            users,
            soa: None,
        }
    }

    /// Greedy matches Algorithm 2's allocation on a handcrafted instance
    /// mixing starved and surplus queues.
    #[test]
    fn greedy_matches_dp_handcrafted() {
        let users = vec![
            user(0, -100.0, 300.0, 8),
            user(1, -60.0, 600.0, 12),
            user(2, -80.0, 450.0, 9),
            user(3, -70.0, 350.0, 10),
        ];
        let c = ctx(&users, 18);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(2.0, &models, &c);
        let mut q = VirtualQueues::new(4);
        q.update(0, 1.0, 0.0); //  1
        q.update(1, 1.0, 4.0); // −3
        q.update(2, 1.0, 0.0); //  1
        q.update(2, 1.0, 0.0); //  2
        q.update(3, 1.0, 0.9); //  0.1
        let parts = slot_users(&cost, &c, &q);
        let fast = solve_greedy(&parts, c.bs_cap_units);
        let mut rows = DpScratch::default();
        assert_eq!(fast, solve_dp_with(&parts, c.bs_cap_units, &mut rows));
    }

    /// Positive marginals are never taken.
    #[test]
    fn never_takes_positive_marginals() {
        // Fresh users, PC = 0, already idle-saturated radios: transmitting
        // has strictly positive marginal (energy cost, no tail to save).
        let mut u = user(0, -70.0, 450.0, 40);
        u.idle_s = 100.0;
        let users = vec![u];
        let c = ctx(&users, 400);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(1.0, &models, &c);
        let q = VirtualQueues::new(1);
        let parts = slot_users(&cost, &c, &q);
        let a = solve_greedy(&parts, c.bs_cap_units);
        assert_eq!(a[0], 0);
    }

    /// Budget exhaustion stops allocation at exactly the budget.
    #[test]
    fn budget_is_hard() {
        // Strongly starved users: everything negative, wants all units.
        let users = vec![user(0, -60.0, 450.0, 50), user(1, -60.0, 450.0, 50)];
        let c = ctx(&users, 30);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(0.001, &models, &c);
        let mut q = VirtualQueues::new(2);
        for _ in 0..20 {
            q.update(0, 1.0, 0.0);
            q.update(1, 1.0, 0.0);
        }
        let parts = slot_users(&cost, &c, &q);
        let a = solve_greedy(&parts, c.bs_cap_units);
        assert_eq!(a.iter().sum::<u64>(), 30);
    }

    /// Empty participant set.
    #[test]
    fn empty_parts() {
        let users: Vec<UserSnapshot> = vec![];
        let c = ctx(&users, 100);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(1.0, &models, &c);
        let q = VirtualQueues::new(0);
        let parts = slot_users(&cost, &c, &q);
        assert!(solve_greedy(&parts, 100).is_empty());
    }
}
