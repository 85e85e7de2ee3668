//! Scratch-reuse regression tests: every scheduler keeps per-slot scratch
//! buffers (RTMA's order/need/ceiling, EMA's heap, oracle rows and virtual
//! queues) that are reused across slots for the zero-allocation hot path. A
//! scheduler that has been driven on one population shape must behave
//! exactly like a freshly built one when the context shape changes —
//! stale scratch from the larger population must never leak into the
//! smaller one's allocations or exported queue values.
//!
//! The caller's grant vector is reused the same way, and a policy that
//! writes it sparsely (`SparseGrants`: zero what the previous call
//! granted, not the pool) must hand back what it would have written into
//! a fresh one — whichever rows came, went or lost their grant in
//! between, with or without the SoA mirror, across a pool-size change.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_gateway::{Allocation, Scheduler, SlotContext, SnapshotSoA, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::{CrossLayerModels, Ema, Rtma, SchedulerSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// Which slots of a sequence carry the SoA mirror in their context.
#[derive(Debug, Clone, Copy)]
enum Mirror {
    Never,
    Always,
    /// A coin per slot: one policy instance sees both layouts.
    Mixed,
}

/// One seeded sequence of 24 slots for `spec`, two instances of the
/// policy in step: one writes into the `Allocation` it was handed last
/// slot, the other into a fresh `Allocation::zeros(0)` every slot. The
/// live set drifts (rows join and leave at random), every other slot the
/// first row granted last slot is taken off it — the multicell handover:
/// the row's grant must not survive in the reused vector — the budget is
/// often scarce, so live rows are left with zero grants too, and halfway
/// the pool shrinks from 24 rows to 16.
fn assert_reused_grants_match_fresh(spec: &SchedulerSpec, mirror: Mirror, seed: u64) {
    let models = CrossLayerModels::paper();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut reused, mut fresh) = (spec.build(1.0, &models), spec.build(1.0, &models));
    let mut kept = Allocation::zeros(0);
    let mut live = [false; 24];
    let mut soa = SnapshotSoA::new();
    for slot in 0..24u64 {
        let n = if slot < 12 { 24 } else { 16 };
        for member in live.iter_mut() {
            if rng.random::<f64>() < 0.15 {
                *member = !*member;
            }
        }
        if slot % 2 == 1 {
            if let Some(granted) = kept.0.iter().position(|&units| units > 0) {
                live[granted] = false;
            }
        }
        let users: Vec<UserSnapshot> = (0..n)
            .map(|id| UserSnapshot {
                id,
                signal: Dbm(-50.0 - rng.random_range(0..61) as f64),
                rate_kbps: 300.0 + rng.random_range(0..301) as f64,
                buffer_s: rng.random_range(0..7) as f64,
                remaining_kb: if live[id] { 10_000.0 } else { 0.0 },
                active: live[id],
                link_cap_units: 5 + rng.random_range(0..40) as u64,
                idle_s: 0.0,
                rrc_state: RrcState::Dch,
            })
            .collect();
        let mirrored = match mirror {
            Mirror::Never => false,
            Mirror::Always => true,
            Mirror::Mixed => rng.random::<f64>() < 0.5,
        };
        if mirrored {
            soa.fill_from(&users, 1.0, 50.0);
            soa.set_live_rows((0..n).filter(|&id| live[id]));
        }
        let ctx = SlotContext {
            slot,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: rng.random_range(0..3 * n) as u64,
            users: &users,
            soa: mirrored.then_some(&soa),
        };
        reused.allocate_into(&ctx, &mut kept);
        let mut new = Allocation::zeros(0);
        fresh.allocate_into(&ctx, &mut new);
        kept.validate(&ctx).expect("allocation within bounds");
        assert_eq!(
            kept, new,
            "{spec:?}, {mirror:?}, seed {seed}: reused vector diverged at slot {slot}"
        );
    }
}

#[test]
fn reused_grant_vector_equals_a_fresh_one_for_every_policy() {
    let specs = [
        SchedulerSpec::Default,
        SchedulerSpec::rtma(900.0),
        SchedulerSpec::RtmaUnbounded,
        SchedulerSpec::ema_dp(1.0),
        SchedulerSpec::ema_fast(1.0),
        SchedulerSpec::throttling_default(),
        SchedulerSpec::onoff_default(),
        SchedulerSpec::salsa_default(),
        SchedulerSpec::estreamer_default(),
        SchedulerSpec::RoundRobin,
        SchedulerSpec::pf_default(),
    ];
    for spec in &specs {
        for mirror in [Mirror::Never, Mirror::Always, Mirror::Mixed] {
            for seed in 0..16 {
                assert_reused_grants_match_fresh(spec, mirror, seed);
            }
        }
    }
}

/// The sparse clear's contract, checked in debug builds: a same-length
/// vector something else wrote is not the one the previous call filled.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "not the buffer the previous call filled")]
fn foreign_dirty_grant_vector_trips_the_assertion() {
    let snapshot = users(6, 0);
    let ctx = SlotContext {
        slot: 0,
        tau: 1.0,
        delta_kb: 50.0,
        bs_cap_units: 24,
        users: &snapshot,
        soa: None,
    };
    let mut foreign = Allocation(vec![7; 6]);
    jmso_sched::DefaultMax::new().allocate_into(&ctx, &mut foreign);
}
