//! Property-based tests for the schedulers.
//!
//! The load-bearing property is three-way agreement on EMA's per-slot
//! problem: the exact marginal greedy EMA runs and the paper's Algorithm 2
//! DP must return the *same allocation* — on random float curves, on
//! users duplicated bit-for-bit and on a half-integer marginal grid where
//! cross-user ties and zero marginals are frequent — and both must reach
//! the brute-force optimum on tiny instances.

use jmso_gateway::{Allocation, Scheduler, SlotContext, SnapshotSoA, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::ema::{objective, slot_users, solve_dp_with, DpScratch, SlotUser};
use jmso_sched::ema_fast::solve_greedy;
use jmso_sched::oracle::solve_exhaustive;
use jmso_sched::{
    CrossLayerModels, DefaultMax, EStreamer, Ema, EmaCost, OnOff, ProportionalFair, RoundRobin,
    Rtma, Salsa, SchedulerSpec, SignalThreshold, Throttling, VirtualQueues,
};
use proptest::prelude::*;

/// The paper's Algorithm 2 on fresh rows.
fn algorithm2(parts: &[SlotUser], budget: u64) -> Vec<u64> {
    solve_dp_with(parts, budget, &mut DpScratch::default()).to_vec()
}

/// Price `users` (queues set to each user's `pc`) into solver inputs.
fn priced(users: &[RandUser], budget: u64, v: f64) -> (Vec<UserSnapshot>, Vec<SlotUser>) {
    let snaps = snapshots(users);
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
    for (i, u) in users.iter().enumerate() {
        q.update(i, u.pc, 0.0); // sets PCᵢ = pc directly (τ := pc, t := 0)
    }
    let parts = slot_users(&cost, &ctx, &q);
    (snaps, parts)
}

/// A participant on the half-integer grid: `f0 = 0`, first marginal
/// `d/2`, slope `(d + rise)/2` (so the curve is convex). Every partial
/// sum of such curves is exact in f64, which makes equal marginals across
/// users *exactly* equal in both solvers.
fn arb_grid_user() -> impl Strategy<Value = (i32, i32, u64)> {
    (-8i32..5, 0i32..7, 1u64..7)
}

fn grid_parts(raw: &[(i32, i32, u64)]) -> Vec<SlotUser> {
    raw.iter()
        .enumerate()
        .map(|(id, &(d, rise, cap))| SlotUser {
            id,
            pc: 0.0,
            cap,
            rate_kbps: 400.0,
            f0: 0.0,
            f1: f64::from(d) / 2.0,
            slope: f64::from(d + rise) / 2.0,
        })
        .collect()
}

#[derive(Debug, Clone)]
struct RandUser {
    sig: f64,
    rate: f64,
    link_cap: u64,
    idle: f64,
    remaining_kb: f64,
    pc: f64,
}

fn arb_user() -> impl Strategy<Value = RandUser> {
    (
        -110.0f64..-50.0,
        300.0f64..600.0,
        0u64..10,
        0.0f64..10.0,
        0.0f64..5000.0,
        -20.0f64..20.0,
    )
        .prop_map(|(sig, rate, link_cap, idle, remaining_kb, pc)| RandUser {
            sig,
            rate,
            link_cap,
            idle,
            remaining_kb,
            pc,
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

proptest! {
    /// Greedy == Algorithm 2 == brute force on random tiny instances.
    #[test]
    fn ema_solvers_agree_with_oracle(
        users in proptest::collection::vec(arb_user(), 1..5),
        budget in 0u64..12,
        v in 0.01f64..20.0,
    ) {
        let (_, parts) = priced(&users, budget, v);
        let (_, oracle_obj) = solve_exhaustive(&parts, budget);
        let dp = algorithm2(&parts, budget);
        let fast = solve_greedy(&parts, budget);
        prop_assert_eq!(&fast, &dp);
        let obj = objective(&parts, &fast);
        prop_assert!((obj - oracle_obj).abs() < 1e-6, "solvers {obj} vs oracle {oracle_obj}");
    }

    /// Greedy == Algorithm 2, allocation for allocation, on random float
    /// curves with budgets from 0 to beyond Σcap; the scattered
    /// allocation passes `Allocation::validate` (Eq. (1)/(2)).
    #[test]
    fn greedy_equals_algorithm2_float(
        users in proptest::collection::vec(arb_user(), 1..12),
        budget in 0u64..130,
        v in 0.01f64..20.0,
    ) {
        let (snaps, parts) = priced(&users, budget, v);
        let fast = solve_greedy(&parts, budget);
        prop_assert_eq!(&fast, &algorithm2(&parts, budget));
        let ctx = SlotContext {
            slot: 0, tau: 1.0, delta_kb: 50.0, bs_cap_units: budget, users: &snaps, soa: None,
        };
        let mut alloc = Allocation::zeros(snaps.len());
        for (part, &units) in parts.iter().zip(&fast) {
            alloc.0[part.id] = units;
        }
        prop_assert!(alloc.validate(&ctx).is_ok(), "{:?}", alloc.validate(&ctx));
    }

    /// Grid users duplicated bit-for-bit, adjacent or interleaved, tie on
    /// every marginal; the lowest index must win in both solvers.
    #[test]
    fn greedy_equals_algorithm2_duplicated_users(
        raw in proptest::collection::vec(arb_grid_user(), 1..5),
        copies in 2usize..4,
        interleaved in prop::bool::ANY,
        budget in 0u64..60,
    ) {
        let dup: Vec<_> = if interleaved {
            raw.iter().cycle().take(raw.len() * copies).copied().collect()
        } else {
            raw.iter().flat_map(|&u| std::iter::repeat_n(u, copies)).collect()
        };
        let parts = grid_parts(&dup);
        prop_assert_eq!(solve_greedy(&parts, budget), algorithm2(&parts, budget));
    }

    /// Bit-identical users with *float* curves. Algorithm 2 compares
    /// table sums, and round-off in their association order breaks an
    /// exact tie between twins arbitrarily, so which twin is served is
    /// pinned on the grid above; here both solvers must still give every
    /// group of twins the same number of units.
    #[test]
    fn float_twins_share_the_same_units(
        users in proptest::collection::vec(arb_user(), 1..5),
        copies in 2usize..4,
        budget in 0u64..110,
        v in 0.01f64..20.0,
    ) {
        let dup: Vec<RandUser> = users
            .iter()
            .flat_map(|u| std::iter::repeat_n(u.clone(), copies))
            .collect();
        let (_, parts) = priced(&dup, budget, v);
        let fast = solve_greedy(&parts, budget);
        let dp = algorithm2(&parts, budget);
        let mut per_group = vec![(0u64, 0u64); users.len()];
        for ((part, &g), &d) in parts.iter().zip(&fast).zip(&dp) {
            per_group[part.id / copies].0 += g;
            per_group[part.id / copies].1 += d;
        }
        for (group, (g, d)) in per_group.into_iter().enumerate() {
            prop_assert_eq!(g, d, "group {}: greedy {:?} vs Algorithm 2 {:?}", group, fast, dp);
        }
    }

    /// The half-integer grid: one user's first marginal often equals
    /// another's slope, marginals of exactly 0 occur, and every DP sum is
    /// exact — so this is the test that fails if either solver's
    /// tie-break order drifts.
    #[test]
    fn greedy_equals_algorithm2_on_marginal_grid(
        raw in proptest::collection::vec(arb_grid_user(), 1..9),
        budget in 0u64..60,
    ) {
        let parts = grid_parts(&raw);
        let fast = solve_greedy(&parts, budget);
        prop_assert_eq!(&fast, &algorithm2(&parts, budget));
        // A marginal of exactly zero is never taken.
        for (part, &phi) in parts.iter().zip(&fast) {
            prop_assert!(phi == 0 || part.f1 - part.f0 < 0.0);
            prop_assert!(phi <= 1 || part.slope < 0.0);
        }
    }

    /// Every policy produces a feasible allocation on random contexts.
    #[test]
    fn all_policies_feasible(
        users in proptest::collection::vec(arb_user(), 1..20),
        budget in 0u64..200,
        slots in 1u64..12,
    ) {
        let snaps = snapshots(&users);
        let models = CrossLayerModels::paper();
        let mut policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(DefaultMax::new()),
            Box::new(Rtma::unbounded()),
            Box::new(Rtma::with_threshold(SignalThreshold { min_dbm: -80.0 })),
            Box::new(Ema::new(1.0, models)),
            Box::new(Throttling::new(1.25)),
            Box::new(OnOff::new(10.0, 40.0)),
            Box::new(Salsa::new(1.0, 3.0, 0.2)),
            Box::new(EStreamer::new(5.0, 60.0)),
            Box::new(RoundRobin::new()),
            Box::new(ProportionalFair::new(0.05)),
        ];
        for pol in policies.iter_mut() {
            for slot in 0..slots {
                let ctx = SlotContext {
                    slot, tau: 1.0, delta_kb: 50.0, bs_cap_units: budget, users: &snaps, soa: None,
                };
                let a = pol.allocate(&ctx);
                prop_assert!(a.validate(&ctx).is_ok(),
                    "{} produced invalid allocation: {:?}", pol.name(), a.validate(&ctx));
            }
        }
    }

    /// RTMA never allocates to users below its threshold, and exhausts
    /// either the budget or every admissible user's ceiling.
    #[test]
    fn rtma_threshold_and_work_conservation(
        users in proptest::collection::vec(arb_user(), 1..15),
        budget in 1u64..150,
        threshold in -110.0f64..-50.0,
    ) {
        let snaps = snapshots(&users);
        let ctx = SlotContext {
            slot: 0, tau: 1.0, delta_kb: 50.0, bs_cap_units: budget, users: &snaps, soa: None,
        };
        let mut r = Rtma::with_threshold(SignalThreshold { min_dbm: threshold });
        let Allocation(a) = r.allocate(&ctx);
        let mut admissible_headroom = 0u64;
        for (u, &got) in snaps.iter().zip(&a) {
            if u.signal.value() < threshold {
                prop_assert_eq!(got, 0, "below-threshold user got data");
            } else {
                admissible_headroom += u.usable_cap_units(50.0) - got;
            }
        }
        let total: u64 = a.iter().sum();
        // Work conservation: either the BS budget is exhausted or every
        // admissible user is at their ceiling.
        prop_assert!(total == budget || admissible_headroom == 0,
            "left {admissible_headroom} headroom with {} budget unused", budget - total);
    }

    /// Scheduler specs build and serde-roundtrip for arbitrary parameters.
    #[test]
    fn spec_roundtrip(phi_raw in 100.0f64..2000.0, v_raw in 0.25f64..50.0) {
        // Snap to an exactly-representable grid: the JSON layer may lose
        // the last ulp of arbitrary doubles.
        let phi = (phi_raw * 4.0).round() / 4.0;
        let v = (v_raw * 4.0).round() / 4.0;
        for spec in [
            SchedulerSpec::rtma(phi),
            SchedulerSpec::ema_dp(v),
            SchedulerSpec::ema_fast(v),
        ] {
            let j = serde_json::to_string(&spec).unwrap();
            let back: SchedulerSpec = serde_json::from_str(&j).unwrap();
            prop_assert_eq!(&back, &spec);
            let _ = spec.build(1.0, &CrossLayerModels::paper());
        }
    }
}

proptest! {
    /// Every policy with an SoA fast path must allocate bit-identically
    /// whether it reads the AoS snapshots or the contiguous SoA mirror —
    /// the contract that lets the engine and multicell loops hand either
    /// representation to any scheduler.
    #[test]
    fn soa_context_allocates_identically_to_aos(
        users in proptest::collection::vec(arb_user(), 1..12),
        budget in 0u64..60,
        inactive_mask in proptest::collection::vec(prop::bool::ANY, 12),
        phi in 700.0f64..1300.0,
    ) {
        let mut snaps = snapshots(&users);
        for (s, &off) in snaps.iter_mut().zip(&inactive_mask) {
            if off {
                // Mirror the engine's retired/roamed rows: no demand, no
                // capacity, inactive.
                s.active = false;
                s.remaining_kb = 0.0;
                s.link_cap_units = 0;
            }
        }
        let mut soa = SnapshotSoA::new();
        soa.fill_from(&snaps, 1.0, 50.0);
        let aos_ctx = SlotContext {
            slot: 0, tau: 1.0, delta_kb: 50.0, bs_cap_units: budget, users: &snaps, soa: None,
        };
        let soa_ctx = SlotContext { soa: Some(&soa), ..aos_ctx };
        let models = CrossLayerModels::paper();
        let build_all = || -> Vec<Box<dyn Scheduler>> {
            vec![
                SchedulerSpec::Default.build(1.0, &models),
                SchedulerSpec::RtmaUnbounded.build(1.0, &models),
                SchedulerSpec::rtma(phi).build(1.0, &models),
            ]
        };
        for (mut via_aos, mut via_soa) in build_all().into_iter().zip(build_all()) {
            let a = via_aos.allocate(&aos_ctx);
            let b = via_soa.allocate(&soa_ctx);
            prop_assert_eq!(&a.0, &b.0, "{} diverged between AoS and SoA", via_aos.name());
        }
    }
}

/// Integral-need strategy: rates divisible by δ/τ so ⌈τp/δ⌉ is exact and
/// no tranche unit is partially wasted.
fn arb_integral_rate_user() -> impl Strategy<Value = RandUser> {
    (
        -110.0f64..-50.0,
        6u32..13, // rate = 50·k ∈ [300, 600]
        0u64..12,
    )
        .prop_map(|(sig, k, link_cap)| RandUser {
            sig,
            rate: 50.0 * k as f64,
            link_cap,
            idle: 0.0,
            remaining_kb: 1e9,
            pc: 0.0,
        })
}

proptest! {
    /// The paper's §IV claim: "RTMA is local optimal in one slot without
    /// the energy limitation". With integral needs and empty buffers,
    /// RTMA's allocation achieves exactly the exhaustive minimum of the
    /// Eq. (8) next-slot rebuffering.
    #[test]
    fn rtma_is_locally_optimal_per_slot(
        users in proptest::collection::vec(arb_integral_rate_user(), 1..5),
        budget in 0u64..14,
    ) {
        use jmso_sched::oracle::min_rebuffer_exhaustive;

        let snaps = snapshots(&users);
        let ctx = SlotContext {
            slot: 0, tau: 1.0, delta_kb: 50.0, bs_cap_units: budget, users: &snaps, soa: None,
        };
        let mut rtma = Rtma::unbounded();
        let Allocation(alloc) = rtma.allocate(&ctx);
        let rtma_rebuf: f64 = snaps
            .iter()
            .zip(&alloc)
            .map(|(u, &phi)| (1.0 - 50.0 * phi as f64 / u.rate_kbps).max(0.0))
            .sum();

        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(1.0, &models, &ctx);
        let q = VirtualQueues::new(users.len());
        let parts = slot_users(&cost, &ctx, &q);
        let carry = vec![0.0; parts.len()];
        // Users with zero capacity are excluded from the oracle's search
        // space but still stall a full slot each.
        let unreachable = (users.len() - parts.len()) as f64;
        let best = min_rebuffer_exhaustive(&parts, &carry, 50.0, 1.0, budget) + unreachable;
        prop_assert!(
            rtma_rebuf <= best + 1e-9,
            "RTMA {rtma_rebuf} vs exhaustive optimum {best}"
        );
    }
}
