//! Scratch-reuse regression tests: every scheduler keeps per-slot scratch
//! buffers (RTMA's order/need/ceiling, EMA's heap, oracle rows and virtual
//! queues) that are reused across slots for the zero-allocation hot path. A
//! scheduler that has been driven on one population shape must behave
//! exactly like a freshly built one when the context shape changes —
//! stale scratch from the larger population must never leak into the
//! smaller one's allocations or exported queue values.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_gateway::{Allocation, Scheduler, SlotContext, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::{CrossLayerModels, Ema, Rtma};

/// Deterministic, slot-varying synthetic population: signals wander over
/// the paper's [−110, −50] dBm band and rates over 300–600 KB/s.
fn users(n: usize, slot: u64) -> Vec<UserSnapshot> {
    (0..n)
        .map(|id| {
            let k = slot as usize * 31 + id * 17;
            UserSnapshot {
                id,
                signal: Dbm(-50.0 - (k % 61) as f64),
                rate_kbps: 300.0 + (k % 301) as f64,
                buffer_s: (k % 7) as f64,
                remaining_kb: if k.is_multiple_of(5) { 0.0 } else { 10_000.0 },
                active: !k.is_multiple_of(5),
                link_cap_units: 5 + (k % 40) as u64,
                idle_s: 0.0,
                rrc_state: if k.is_multiple_of(2) {
                    RrcState::Dch
                } else {
                    RrcState::Idle
                },
            }
        })
        .collect()
}

/// Drive `sched` through `slots` slots of an `n`-user population,
/// returning every allocation and exported queue snapshot.
fn drive<S: Scheduler>(
    sched: &mut S,
    n: usize,
    slots: u64,
    slot_offset: u64,
) -> Vec<(Vec<u64>, Option<Vec<f64>>)> {
    let mut out = Vec::new();
    let mut alloc = Allocation::zeros(0);
    for slot in 0..slots {
        let snapshot = users(n, slot + slot_offset);
        let ctx = SlotContext {
            slot: slot + slot_offset,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 4 * n as u64,
            users: &snapshot,
            soa: None,
        };
        sched.allocate_into(&ctx, &mut alloc);
        alloc.validate(&ctx).expect("allocation within bounds");
        out.push((alloc.0.clone(), sched.queue_values().map(<[f64]>::to_vec)));
    }
    out
}

/// Warm a scheduler on 12 users, then switch to 4-user contexts and
/// compare slot-for-slot against a fresh instance that only ever saw the
/// 4-user population.
fn assert_shape_change_clean<S: Scheduler>(mut dirty: S, mut fresh: S) {
    drive(&mut dirty, 12, 5, 0);
    let after_shrink = drive(&mut dirty, 4, 8, 100);
    let from_fresh = drive(&mut fresh, 4, 8, 100);
    assert_eq!(after_shrink, from_fresh, "stale 12-user scratch leaked");
    for (alloc, q) in &after_shrink {
        assert_eq!(alloc.len(), 4);
        if let Some(q) = q {
            assert_eq!(q.len(), 4, "queue export kept the old shape");
        }
    }
}

#[test]
fn rtma_shape_change_is_clean() {
    assert_shape_change_clean(Rtma::unbounded(), Rtma::unbounded());
}

#[test]
fn ema_shape_change_is_clean() {
    let m = CrossLayerModels::paper;
    assert_shape_change_clean(Ema::new(1.0, m()), Ema::new(1.0, m()));
}

#[test]
fn ema_reference_solver_shape_change_is_clean() {
    let ema = || Ema::new(1.0, CrossLayerModels::paper()).with_reference_solver(true);
    assert_shape_change_clean(ema(), ema());
}

/// RTMA's exported queue view masks users with a zero grant ceiling
/// (fetch complete or link down): their raw per-slot need is meaningless
/// demand, and masking keeps the export independent of stale rate
/// snapshots for finished users.
#[test]
fn rtma_queue_export_masks_finished_users() {
    let mut snapshot = users(6, 3);
    snapshot[2].remaining_kb = 0.0;
    snapshot[2].active = false;
    snapshot[4].link_cap_units = 0;
    let ctx = SlotContext {
        slot: 0,
        tau: 1.0,
        delta_kb: 50.0,
        bs_cap_units: 24,
        users: &snapshot,
        soa: None,
    };
    let mut r = Rtma::unbounded();
    let mut alloc = Allocation::zeros(0);
    r.allocate_into(&ctx, &mut alloc);
    let q = r
        .queue_values()
        .expect("RTMA exports queue values")
        .to_vec();
    assert_eq!(q.len(), 6);
    assert_eq!(q[2], 0.0, "finished user must report zero demand");
    assert_eq!(q[4], 0.0, "capped-out user must report zero demand");
    for (i, &v) in q.iter().enumerate() {
        if i != 2 && i != 4 && snapshot[i].remaining_kb > 0.0 {
            assert!(v > 0.0, "live user {i} should report demand");
        }
    }
}
