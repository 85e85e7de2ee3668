//! Multi-slot allocation equality for EMA's two solvers.
//!
//! `sched_properties.rs` pins single-slot agreement between the greedy,
//! Algorithm 2 and brute force. This file pins the *stateful* form: the
//! production greedy and the Algorithm 2 table, each driven across many
//! slots through one reused scratch — queues evolving under Eq. (16),
//! pc-clamped regimes, outage slots, and per-slot redraws of the radio
//! inputs — must return the same allocation on every slot. It also pins
//! Lyapunov dominance: a user whose curve marks them dominated receives
//! zero units from both solvers.

use jmso_gateway::{SlotContext, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::ema::{slot_users, solve_dp_with, DpScratch, SlotUser};
use jmso_sched::ema_fast::{solve_greedy_with, GreedyScratch};
use jmso_sched::{CrossLayerModels, EmaCost, VirtualQueues};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandUser {
    sig: f64,
    rate: f64,
    link_cap: u64,
    idle: f64,
    remaining_kb: f64,
}

/// `link_cap` starts at 0, so outage slots (the deepest "fault") are a
/// first-class part of the distribution, not a corner case.
fn arb_user() -> impl Strategy<Value = RandUser> {
    (
        -110.0f64..-50.0,
        300.0f64..600.0,
        0u64..10,
        0.0f64..10.0,
        0.0f64..5000.0,
    )
        .prop_map(|(sig, rate, link_cap, idle, remaining_kb)| RandUser {
            sig,
            rate,
            link_cap,
            idle,
            remaining_kb,
        })
}

fn snapshots(users: &[RandUser]) -> Vec<UserSnapshot> {
    users
        .iter()
        .enumerate()
        .map(|(id, u)| UserSnapshot {
            id,
            signal: Dbm(u.sig),
            rate_kbps: u.rate,
            buffer_s: 0.0,
            remaining_kb: u.remaining_kb,
            active: true,
            link_cap_units: u.link_cap,
            idle_s: u.idle,
            rrc_state: RrcState::Dch,
        })
        .collect()
}

const N_USERS: usize = 6;

proptest! {
    /// Greedy ≡ Algorithm 2, slot by slot, across a run whose radio
    /// inputs are redrawn every slot (fades, outages, draining videos)
    /// while the queues and both solver scratches persist. Each slot is
    /// solved twice through the same scratches, so a stale row or heap
    /// entry surviving a call would show, and an optional queue clamp
    /// runs the pc-clamped regime end to end.
    #[test]
    fn greedy_tracks_algorithm2_across_slots(
        per_slot in proptest::collection::vec(
            proptest::collection::vec(arb_user(), N_USERS),
            1..10,
        ),
        budget in 0u64..40,
        v in 0.01f64..20.0,
        pc_clamp in proptest::option::of(0.5f64..5.0),
    ) {
        let models = CrossLayerModels::paper();
        let mut q = VirtualQueues::new(N_USERS);
        let mut greedy_scratch = GreedyScratch::default();
        let mut dp_scratch = DpScratch::default();
        for (slot, users) in per_slot.iter().enumerate() {
            let snaps = snapshots(users);
            let ctx = SlotContext {
                slot: slot as u64,
                tau: 1.0,
                delta_kb: 50.0,
                bs_cap_units: budget,
                users: &snaps,
                soa: None,
            };
            let cost = EmaCost::new(v, &models, &ctx);
            let parts = slot_users(&cost, &ctx, &q);
            let greedy = solve_greedy_with(&parts, budget, &mut greedy_scratch).to_vec();
            let dp = solve_dp_with(&parts, budget, &mut dp_scratch).to_vec();
            prop_assert_eq!(&greedy, &dp, "slot {} diverged", slot);
            // Same inputs again through the used scratches.
            prop_assert_eq!(solve_greedy_with(&parts, budget, &mut greedy_scratch), &dp[..]);
            prop_assert_eq!(solve_dp_with(&parts, budget, &mut dp_scratch), &dp[..]);
            let mut alloc = vec![0u64; N_USERS];
            for (part, units) in parts.iter().zip(&greedy) {
                alloc[part.id] = *units;
            }
            q.apply_allocation(&ctx, &alloc);
            if let Some(bound) = pc_clamp {
                for i in 0..N_USERS {
                    q.clamp(i, bound);
                }
            }
        }
    }

    /// Dominance: a user with `f1 − f0 > 0` and `slope ≥ 0` receives zero
    /// units from both solvers, wherever they sit in the participant
    /// list, and the two still agree on everyone else.
    #[test]
    fn dominated_user_receives_zero(
        users in proptest::collection::vec(arb_user(), 1..8),
        budget in 0u64..40,
        v in 0.01f64..20.0,
        pcs in proptest::collection::vec(-20.0f64..20.0, 8),
        cap in 1u64..10,
        f0 in -5.0f64..5.0,
        penalty in 1e-9f64..5.0,
        slope in 0.0f64..3.0,
        pos_seed in 0usize..8,
    ) {
        let snaps = snapshots(&users);
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: budget,
            users: &snaps,
            soa: None,
        };
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(v, &models, &ctx);
        let mut q = VirtualQueues::new(users.len());
        for (i, pc) in pcs.iter().take(users.len()).enumerate() {
            q.update(i, *pc, 0.0);
        }
        let mut parts = slot_users(&cost, &ctx, &q);
        let dominated = SlotUser {
            id: users.len(),
            pc: 0.0,
            cap,
            rate_kbps: 400.0,
            f0,
            f1: f0 + penalty,
            slope,
        };
        let pos = pos_seed % (parts.len() + 1);
        parts.insert(pos, dominated);

        let greedy = solve_greedy_with(&parts, budget, &mut GreedyScratch::default()).to_vec();
        let dp = solve_dp_with(&parts, budget, &mut DpScratch::default()).to_vec();
        prop_assert_eq!(&greedy, &dp);
        prop_assert_eq!(greedy[pos], 0, "a dominated user was served");
    }
}
