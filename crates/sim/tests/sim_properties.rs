//! Property-based tests for the simulation engine: physical invariants
//! must hold for random scenarios under every policy.

use jmso_sim::{ArrivalSpec, CapacitySpec, Scenario, SchedulerSpec, SignalSpec, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Default),
        Just(SchedulerSpec::RtmaUnbounded),
        (700.0f64..1300.0).prop_map(SchedulerSpec::rtma),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema),
        Just(SchedulerSpec::throttling_default()),
        Just(SchedulerSpec::onoff_default()),
        Just(SchedulerSpec::salsa_default()),
        Just(SchedulerSpec::estreamer_default()),
        Just(SchedulerSpec::RoundRobin),
        Just(SchedulerSpec::pf_default()),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..8,         // users
        50u64..300,        // slots
        500.0f64..8_000.0, // capacity KB/s
        500.0f64..4_000.0, // video size KB
        arb_spec(),
        0u64..1_000,                    // seed
        prop::bool::ANY,                // markov vs sine
        prop::option::of(1.0f64..30.0), // staggered arrivals
    )
        .prop_map(|(n, slots, cap, size, spec, seed, markov, stagger)| {
            let mut s = Scenario::paper_default(n);
            s.slots = slots;
            s.capacity = CapacitySpec::Constant { kbps: cap };
            s.workload = WorkloadSpec {
                size_range_kb: (size, size * 1.5),
                rate_range_kbps: (300.0, 600.0),
                vbr_levels: None,
                vbr_segment_slots: 30,
            };
            if markov {
                s.signal = SignalSpec::Markov {
                    min_dbm: -110.0,
                    max_dbm: -50.0,
                    levels: 16,
                    move_prob: 0.3,
                };
            }
            s.scheduler = spec;
            s.seed = seed;
            if let Some(mean) = stagger {
                s.arrivals = ArrivalSpec::Staggered {
                    mean_interval_slots: mean,
                };
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Physical invariants for any scenario/policy combination.
    #[test]
    fn engine_invariants(scenario in arb_scenario()) {
        let r = scenario.run().unwrap();
        prop_assert_eq!(r.per_user.len(), scenario.n_users);
        prop_assert!(r.slots_run <= scenario.slots);
        let tau = scenario.tau;
        for u in &r.per_user {
            // Byte conservation.
            prop_assert!(u.fetched_kb >= 0.0 && u.fetched_kb <= u.video_kb + 1e-6);
            // Playback conservation: can't watch more than delivered.
            prop_assert!(u.watched_s <= u.fetched_kb / u.rate_kbps + 1e-6);
            // Rebuffering bounded by active time.
            prop_assert!(u.rebuffer_s >= 0.0);
            prop_assert!(u.rebuffer_s <= u.active_slots as f64 * tau + 1e-6);
            prop_assert!(u.stall_slots <= u.active_slots);
            prop_assert!(u.startup_slots <= u.active_slots);
            // Energy is non-negative and the tail is bounded by one full
            // tail per idle stretch (coarsely: idle_slots · Pd·τ).
            prop_assert!(u.energy.transmission.value() >= -1e-9);
            prop_assert!(u.energy.tail.value() >= -1e-9);
            prop_assert!(u.energy.tail.value() <= u.idle_slots as f64 * 732.83 * tau + 1e-6);
            // Slot accounting: every post-arrival slot is tx or idle
            // (pre-arrival slots are unmetered).
            prop_assert!(u.tx_slots + u.idle_slots <= r.slots_run);
        }
    }

    /// Determinism: the same scenario always produces the identical result.
    #[test]
    fn engine_deterministic(scenario in arb_scenario()) {
        prop_assert_eq!(scenario.run().unwrap(), scenario.run().unwrap());
    }

    /// Completion monotonicity: doubling the horizon never decreases any
    /// user's fetched bytes or watched seconds.
    #[test]
    fn longer_horizon_dominates(scenario in arb_scenario()) {
        let short = scenario.run().unwrap();
        let mut scenario2 = scenario.clone();
        scenario2.slots = scenario.slots * 2;
        let long = scenario2.run().unwrap();
        for (a, b) in short.per_user.iter().zip(&long.per_user) {
            prop_assert!(b.fetched_kb >= a.fetched_kb - 1e-6);
            prop_assert!(b.watched_s >= a.watched_s - 1e-6);
        }
    }

    /// Differential: the active-set hot path (`run`, enum-dispatched
    /// signals, block sampling, retirement of finished users) must produce
    /// a `SimResult` identical to the reference all-users loop
    /// (`run_reference`, per-slot `sample()` through boxed
    /// `SignalKind::Dyn` trait objects) — including the per-slot fairness
    /// and power series, and under collector staleness and noise (the
    /// noisy collector forces the full snapshot pass).
    #[test]
    fn active_set_matches_reference(
        scenario in arb_scenario(),
        staleness in 0u64..5,
        noisy in prop::bool::ANY,
    ) {
        let mut s = scenario;
        s.record_series = true;
        s.collector.staleness_slots = staleness;
        if noisy {
            s.collector.signal_noise_std_db = 3.0;
        }
        prop_assert_eq!(s.run().unwrap(), s.run_reference().unwrap());
    }

    /// Scenario serde round-trip for arbitrary configurations.
    #[test]
    fn scenario_roundtrip(scenario in arb_scenario()) {
        let j = serde_json::to_string(&scenario).unwrap();
        let back: Scenario = serde_json::from_str(&j).unwrap();
        // Reruns must agree even if float formatting wobbles a ulp.
        prop_assert_eq!(back.run().unwrap().scheduler, scenario.run().unwrap().scheduler);
    }
}
