//! Property-based tests for the open-system workload path: Poisson and
//! declared churn, mid-run arrivals *and* departures, with and without a
//! fault plan.
//!
//! The driver's slot loop is **bit-identical** to the reference loop —
//! per-user results, every recorded series, and the full per-slot trace
//! bytes — on such scenarios, whose live population rises and falls
//! mid-run. The suite also pins the checkpoint format: pausing an
//! open-system run at a slot where the live population differs from the
//! seed population and resuming must reproduce the straight run exactly.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    ArrivalSpec, CapacitySpec, Diurnal, EngineCheckpoint, FaultSpec, RunOutcome, Scenario,
    SchedulerSpec, SessionLength, SignalSpec, SimResult, TraceRecorder, WorkloadSpec,
};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Default),
        (700.0f64..1300.0).prop_map(SchedulerSpec::rtma),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema),
        Just(SchedulerSpec::RoundRobin),
        Just(SchedulerSpec::pf_default()),
    ]
}

/// Session-length distributions for Poisson churn.
fn arb_session() -> impl Strategy<Value = SessionLength> {
    prop_oneof![
        (5.0f64..80.0).prop_map(|mean_slots| SessionLength::Exponential { mean_slots }),
        (1u64..20, 20u64..120).prop_map(|(min_slots, max_slots)| SessionLength::Uniform {
            min_slots,
            max_slots,
        }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..10,          // users
        60u64..200,          // slots
        500.0f64..6_000.0,   // capacity KB/s
        1_000.0f64..5_000.0, // video size KB
        arb_spec(),
        0u64..1_000,     // seed
        prop::bool::ANY, // markov vs sine
        prop::bool::ANY, // record_series
        // Poisson ingredients: mean interarrival, optional diurnal
        // curve, optional session-length truncation.
        (
            0.5f64..15.0,
            prop::option::of((4u64..40, 0.0f64..0.9)),
            prop::option::of(arb_session()),
        ),
        // Declared ingredients: per-user (arrival, stay) fractions of
        // the horizon — arrivals up to 2× the horizon (past-horizon
        // arrivals are legal) and mid-run departures.
        (
            prop::bool::ANY,
            prop::collection::vec((0.0f64..2.0, prop::option::of(0.05f64..1.0)), 10),
        ),
    )
        .prop_map(
            |(n, slots, cap, size, spec, seed, markov, series, poisson, declared)| {
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
                s.record_series = series;
                let (use_declared, raw_users) = declared;
                s.arrivals = if use_declared {
                    let horizon = slots as f64;
                    let users = &raw_users[..n];
                    ArrivalSpec::Declared {
                        arrivals: users.iter().map(|&(a, _)| (a * horizon) as u64).collect(),
                        departures: users
                            .iter()
                            .map(|&(a, stay)| {
                                stay.map(|f| (a * horizon) as u64 + ((f * horizon) as u64).max(1))
                            })
                            .collect(),
                    }
                } else {
                    let (mean_interval_slots, diurnal, session_slots) = poisson;
                    ArrivalSpec::Poisson {
                        mean_interval_slots,
                        diurnal: diurnal.map(|(period_slots, depth)| Diurnal {
                            period_slots,
                            depth,
                        }),
                        session_slots,
                    }
                };
                s
            },
        )
}

/// Run fully traced (with live-population counts) and return the
/// deterministic pieces: the result (latency quantiles scrubbed — they
/// are wall-clock measurements) and the trace serialized to JSONL bytes.
fn traced_serial(s: &Scenario) -> (SimResult, String) {
    let mut rec = TraceRecorder::new().with_live_counts();
    let r = s.run_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    let bytes = trace.to_jsonl();
    (scrub(r), bytes)
}

fn traced_reference(s: &Scenario) -> (SimResult, String) {
    let mut rec = TraceRecorder::new().with_live_counts();
    let r = s.run_reference_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    let bytes = trace.to_jsonl();
    (scrub(r), bytes)
}

fn scrub(mut r: SimResult) -> SimResult {
    if let Some(t) = r.telemetry.as_mut() {
        t.sched_ns_p50 = 0;
        t.sched_ns_p95 = 0;
        t.sched_ns_p99 = 0;
        t.sched_ns_max = 0;
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Open-system runs equal the reference loop bit-for-bit — full
    /// results and full trace bytes — while the live population rises
    /// and falls mid-run.
    #[test]
    fn open_system_equals_reference(scenario in arb_scenario()) {
        let (driven, driven_trace) = traced_serial(&scenario);
        let (reference, reference_trace) = traced_reference(&scenario);
        prop_assert_eq!(&driven, &reference, "result diverged from the reference");
        prop_assert_eq!(&driven_trace, &reference_trace, "trace bytes diverged");
    }

    /// A faulted open system — fades and outages read in phase A, the
    /// capacity cut and the fault notes in phase B, late arrivals through
    /// the gate — equals the reference loop in results and trace bytes.
    #[test]
    fn faulted_open_system_equals_reference(
        scenario in arb_scenario(),
        fault_seed in 0u64..500,
        n_events in 1usize..6,
    ) {
        let mut s = scenario;
        s.faults = FaultSpec::Generated { seed: fault_seed, n_events };
        let (driven, driven_trace) = traced_serial(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(&driven, &reference, "result diverged from the reference");
        prop_assert_eq!(&driven_trace, &reference_trace, "trace bytes diverged");
    }

    /// Checkpoints carry departure slots: pausing an open-system run
    /// mid-churn (live population ≠ seed population), round-tripping the
    /// checkpoint through JSON, and resuming reproduces the straight
    /// run's results and trace exactly.
    #[test]
    fn open_system_checkpoint_resume_is_exact(
        scenario in arb_scenario(),
        pause_frac in 0.1f64..0.9,
    ) {
        let s = scenario;
        let pause = ((s.slots as f64 * pause_frac) as u64).min(s.slots - 1);
        let (straight, straight_trace) = traced_serial(&s);

        let mut rec = TraceRecorder::new().with_live_counts();
        let outcome = s.run_until(&mut rec, pause).expect("valid scenario runs");
        let (stitched, stitched_trace) = match outcome {
            RunOutcome::Done(r) => {
                let trace = rec.into_trace(&r.scheduler);
                (scrub(r), trace.to_jsonl())
            }
            RunOutcome::Paused(ck) => {
                let json = ck.to_json().expect("checkpoint serializes");
                let ck2 = EngineCheckpoint::from_json(&json).expect("checkpoint parses");
                prop_assert_eq!(ck2.slot(), pause);
                let mut rec2 = TraceRecorder::new().with_live_counts();
                let r = s.resume_from(&mut rec2, &ck2).expect("resume runs");
                let trace = rec2.into_trace(&r.scheduler);
                (scrub(r), trace.to_jsonl())
            }
        };
        prop_assert_eq!(
            straight,
            stitched,
            "open-system resume diverged from straight run"
        );
        prop_assert_eq!(straight_trace, stitched_trace, "trace diverged across resume");
    }
}
