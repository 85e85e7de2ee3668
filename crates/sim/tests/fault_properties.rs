//! Property-based tests for the fault-injection and checkpoint/resume
//! subsystems.
//!
//! Two contracts are load-bearing enough to fuzz:
//!
//! 1. **Fault-off is free**: a scenario with an *empty* declared fault
//!    plan must be byte-identical (full per-slot trace, both engine
//!    loops) to the same scenario with `FaultSpec::None`. This is the
//!    zero-overhead-when-disabled guarantee — threading the hooks
//!    through the hot loop must not perturb a single sample.
//! 2. **Checkpoints are exact**: pausing at an arbitrary slot and
//!    resuming from the serialized checkpoint must reproduce the
//!    straight run's per-user results *and* its full per-slot trace,
//!    including under active fault plans.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    AbrPolicy, AbrSpec, ArrivalSpec, BitrateLadder, CapacitySpec, EngineCheckpoint, FaultEvent,
    FaultSpec, MultiCellScenario, RunOutcome, Scenario, SchedulerSpec, SignalSpec, SimResult,
    SlotTrace, TraceRecorder, WorkloadSpec,
};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Default),
        Just(SchedulerSpec::RtmaUnbounded),
        (700.0f64..1300.0).prop_map(SchedulerSpec::rtma),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema),
        Just(SchedulerSpec::RoundRobin),
        Just(SchedulerSpec::pf_default()),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..6,           // users
        60u64..250,          // slots
        500.0f64..6_000.0,   // capacity KB/s
        1_000.0f64..6_000.0, // video size KB
        arb_spec(),
        0u64..1_000,                    // seed
        prop::bool::ANY,                // markov vs sine
        prop::option::of(1.0f64..20.0), // staggered arrivals
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

/// An optional, always-valid fault plan for the scenario: events are
/// clamped to the scenario's user/slot ranges after generation.
fn arb_faults() -> impl Strategy<Value = Option<(u64, usize)>> {
    prop::option::of((0u64..500, 1usize..5))
}

fn apply_faults(s: &mut Scenario, faults: Option<(u64, usize)>) {
    if let Some((seed, n_events)) = faults {
        s.faults = FaultSpec::Generated { seed, n_events };
    }
}

/// Run fully traced (every slot) and return the deterministic pieces:
/// the result and the trace serialized to JSONL bytes.
fn traced(s: &Scenario) -> (SimResult, String) {
    let mut rec = TraceRecorder::new();
    let r = s.run_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    let bytes = trace.to_jsonl();
    (r, bytes)
}

fn traced_reference(s: &Scenario) -> (SimResult, String) {
    let mut rec = TraceRecorder::new();
    let r = s.run_reference_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    (r, trace.to_jsonl())
}

/// Deterministic subset of a `SimResult` (telemetry latency quantiles
/// are wall-clock, so full equality is not meaningful under tracing).
fn deterministic_parts(r: &SimResult) -> (Vec<jmso_sim::UserResult>, u64, Vec<f64>, Vec<f64>) {
    (
        r.per_user.clone(),
        r.slots_run,
        r.fairness_series.clone(),
        r.power_series_j.clone(),
    )
}

/// The result without its wall-clock part (the scheduler-latency
/// quantiles of a traced run's telemetry summary).
fn scrub_clock(mut r: SimResult) -> SimResult {
    if let Some(t) = r.telemetry.as_mut() {
        (
            t.sched_ns_p50,
            t.sched_ns_p95,
            t.sched_ns_p99,
            t.sched_ns_max,
        ) = (0, 0, 0, 0);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An empty declared fault plan is indistinguishable from no plan:
    /// both engine loops produce byte-identical traces and identical
    /// deterministic results.
    #[test]
    fn empty_fault_plan_is_byte_identical(scenario in arb_scenario()) {
        let mut with_empty = scenario.clone();
        with_empty.faults = FaultSpec::Declared { events: vec![] };

        let (r_none, t_none) = traced(&scenario);
        let (r_empty, t_empty) = traced(&with_empty);
        prop_assert_eq!(t_none, t_empty, "hot-path trace diverged");
        prop_assert_eq!(deterministic_parts(&r_none), deterministic_parts(&r_empty));

        let (rr_none, tr_none) = traced_reference(&scenario);
        let (rr_empty, tr_empty) = traced_reference(&with_empty);
        prop_assert_eq!(tr_none, tr_empty, "reference-path trace diverged");
        prop_assert_eq!(deterministic_parts(&rr_none), deterministic_parts(&rr_empty));
    }

    /// Pause at a random slot, serialize the checkpoint through JSON,
    /// resume — the stitched run must equal the straight run exactly
    /// (per-user results, series, and the full per-slot trace), with or
    /// without an active fault plan.
    #[test]
    fn checkpoint_resume_reproduces_straight_run(
        scenario in arb_scenario(),
        faults in arb_faults(),
        pause_frac in 0.0f64..1.0,
    ) {
        let mut s = scenario;
        apply_faults(&mut s, faults);
        let pause = ((s.slots as f64 * pause_frac) as u64).min(s.slots - 1);

        let (straight, straight_trace) = traced(&s);

        let mut rec = TraceRecorder::new();
        let outcome = s.run_until(&mut rec, pause).expect("valid scenario runs");
        let (stitched, stitched_trace) = match outcome {
            // Run finished (or went idle-complete) before the pause slot.
            RunOutcome::Done(r) => {
                let trace = rec.into_trace(&r.scheduler);
                (r, trace.to_jsonl())
            }
            RunOutcome::Paused(ck) => {
                // Round-trip the checkpoint through its JSON form so the
                // serialized representation is what gets tested.
                let json = ck.to_json().expect("checkpoint serializes");
                let ck2 = EngineCheckpoint::from_json(&json).expect("checkpoint parses");
                prop_assert_eq!(ck2.slot(), pause);
                let mut rec2 = TraceRecorder::new();
                let r = s.resume_from(&mut rec2, &ck2).expect("resume runs");
                let trace = rec2.into_trace(&r.scheduler);
                (r, trace.to_jsonl())
            }
        };
        prop_assert_eq!(
            deterministic_parts(&straight),
            deterministic_parts(&stitched),
            "resume diverged from straight run"
        );
        prop_assert_eq!(straight_trace, stitched_trace, "trace diverged across resume");
    }

    /// The identity that stands where the second engine stood: one cell,
    /// nobody roaming, is the single-cell run of the base scenario — the
    /// settings a multicell run ignores at their defaults — field for
    /// field and byte for byte, queue values included. The cell budget
    /// sits on the δ grid because the two run kinds scale it by a fault
    /// factor in different orders (⌊⌊S/δ⌋·f⌋, ⌊S·f/δ⌋), which agree
    /// there and can differ by a unit off it.
    #[test]
    fn one_cell_multicell_is_the_single_cell_run(
        scenario in arb_scenario(),
        faults in arb_faults(),
        ladder in prop::option::of(prop::bool::ANY),
        record_series in prop::bool::ANY,
    ) {
        let mut base = scenario;
        apply_faults(&mut base, faults);
        if let CapacitySpec::Constant { kbps } = &mut base.capacity {
            *kbps = (*kbps / base.delta_kb).round() * base.delta_kb;
        }
        base.record_series = record_series;
        base.abr = ladder.map(|multi_rung| AbrSpec {
            ladder: BitrateLadder {
                multipliers: if multi_rung { vec![0.5, 0.75, 1.0] } else { vec![1.0] },
            },
            chunk_slots: 4,
            policy: AbrPolicy::BufferBased { low_s: 4.0, high_s: 12.0 },
            initial_rung: None,
        });
        let single = Scenario {
            arrivals: ArrivalSpec::Simultaneous,
            ..base.clone()
        };
        let mc = MultiCellScenario { base, n_cells: 1, handover_prob: 0.0 };

        let (one_cell, one_cell_trace) = mc.run_traced(1).expect("multicell run");
        let (plain, plain_trace) = single.run_traced(1).expect("single-cell run");
        prop_assert_eq!(one_cell_trace.to_jsonl(), plain_trace.to_jsonl());
        prop_assert_eq!(scrub_clock(one_cell.result), scrub_clock(plain));
        prop_assert_eq!(one_cell.handovers, 0);
        prop_assert_eq!(one_cell.mean_cell_occupancy, vec![single.n_users as f64]);
    }

    /// Fault plans themselves are deterministic and serde-stable: a
    /// generated plan rerun from its JSON form yields identical results.
    #[test]
    fn faulted_runs_are_serde_stable(
        scenario in arb_scenario(),
        seed in 0u64..500,
        n_events in 1usize..5,
    ) {
        let mut s = scenario;
        s.faults = FaultSpec::Generated { seed, n_events };
        let j = serde_json::to_string(&s).expect("scenario serializes");
        let back: Scenario = serde_json::from_str(&j).expect("scenario parses");
        let (a, ta) = traced(&s);
        let (b, tb) = traced(&back);
        prop_assert_eq!(deterministic_parts(&a), deterministic_parts(&b));
        prop_assert_eq!(ta, tb);
    }

    /// A fault plan is an input of the one slot pipeline: the faulted
    /// run equals the reference loop — deterministic results, warnings
    /// and trace bytes.
    #[test]
    fn faulted_run_equals_reference(
        scenario in arb_scenario(),
        fault_seed in 0u64..500,
        n_events in 1usize..5,
    ) {
        let mut s = scenario;
        apply_faults(&mut s, Some((fault_seed, n_events)));
        let (driven, driven_trace) = traced(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(driven_trace, reference_trace, "trace bytes diverged");
        prop_assert_eq!(deterministic_parts(&driven), deterministic_parts(&reference));
        prop_assert_eq!(driven.warnings, reference.warnings);
    }

    /// Recording is observation only in a roaming multicell run, with
    /// or without a fault plan: the traced run equals the untraced one,
    /// which repeats exactly.
    #[test]
    fn multicell_traced_run_equals_untraced(
        scenario in arb_scenario(),
        faults in arb_faults(),
        n_cells in 2usize..5,
        handover_prob in 0.0f64..0.15,
    ) {
        let mut base = scenario;
        apply_faults(&mut base, faults);
        let mc = MultiCellScenario { base, n_cells, handover_prob };
        let plain = mc.run().expect("multicell run");
        prop_assert_eq!(&mc.run().expect("multicell rerun"), &plain);
        let (traced, _) = mc.run_traced(1).expect("traced multicell run");
        prop_assert_eq!(
            deterministic_parts(&traced.result),
            deterministic_parts(&plain.result)
        );
        prop_assert_eq!(traced.handovers, plain.handovers);
        prop_assert_eq!(traced.mean_cell_occupancy, plain.mean_cell_occupancy);
    }
}

/// Declared fault events survive a scenario serde round-trip untouched.
#[test]
fn declared_fault_events_roundtrip() {
    let mut s = Scenario::paper_default(3);
    s.faults = FaultSpec::Declared {
        events: vec![
            FaultEvent::DeepFade {
                user: 0,
                from_slot: 5,
                until_slot: 20,
                depth_db: 18.0,
            },
            FaultEvent::LinkOutage {
                user: 1,
                from_slot: 10,
                until_slot: 30,
            },
            FaultEvent::CapDegradation {
                from_slot: 0,
                until_slot: 50,
                factor: 0.5,
            },
            FaultEvent::Departure { user: 2, slot: 40 },
            FaultEvent::LateArrival {
                user: 1,
                delay_slots: 12,
            },
        ],
    };
    let j = serde_json::to_string(&s).expect("serializes");
    let back: Scenario = serde_json::from_str(&j).expect("parses");
    assert_eq!(back.faults, s.faults);
    let _ = SlotTrace::from_jsonl(&{
        let (r, t) = {
            let mut rec = TraceRecorder::new();
            let r = s.run_with(&mut rec).expect("runs");
            let trace = rec.into_trace(&r.scheduler);
            (r, trace.to_jsonl())
        };
        assert!(r.slots_run > 0);
        t
    })
    .expect("faulted trace parses back");
}

/// One spec per `SchedulerSpec` variant, each with a cell budget (KB/s
/// for five users) under which its cross-slot state is in play at the
/// pause: a binding one for the rotation and the averages, an ample one
/// for the watermark policies, whose clients must be able to fill up.
/// The match makes a new variant a compile error here until it is
/// listed, so a policy that grows state cannot skip the resume check
/// below.
fn every_scheduler_variant() -> Vec<(SchedulerSpec, f64)> {
    let listed = |spec: &SchedulerSpec| match spec {
        SchedulerSpec::Default
        | SchedulerSpec::Rtma { .. }
        | SchedulerSpec::RtmaUnbounded
        | SchedulerSpec::Ema { .. }
        | SchedulerSpec::Throttling { .. }
        | SchedulerSpec::OnOff { .. }
        | SchedulerSpec::Salsa { .. }
        | SchedulerSpec::EStreamer { .. }
        | SchedulerSpec::RoundRobin
        | SchedulerSpec::ProportionalFair { .. } => (),
    };
    let specs = vec![
        (SchedulerSpec::Default, 1_700.0),
        (SchedulerSpec::rtma(900.0), 1_700.0),
        (SchedulerSpec::RtmaUnbounded, 1_700.0),
        (SchedulerSpec::ema(1.0), 1_700.0),
        (SchedulerSpec::throttling_default(), 1_700.0),
        (
            SchedulerSpec::OnOff {
                low_s: 2.0,
                high_s: 6.0,
            },
            6_000.0,
        ),
        (SchedulerSpec::salsa_default(), 1_700.0),
        (
            SchedulerSpec::EStreamer {
                refill_s: 2.0,
                target_s: 8.0,
            },
            6_000.0,
        ),
        (SchedulerSpec::RoundRobin, 1_700.0),
        (SchedulerSpec::pf_default(), 1_700.0),
    ];
    specs.iter().for_each(|(spec, _)| listed(spec));
    specs
}

/// Every policy, paused mid-run and resumed through the sidecar's JSON,
/// prints the straight run's result and trace — on a closed cell and
/// under staggered arrivals. Whatever a policy carries from slot to slot
/// (queues, rotation, averages, watermark phases) has to be in its
/// exported state for this to hold.
#[test]
fn every_scheduler_resumes_onto_its_straight_run() {
    for (spec, kbps) in every_scheduler_variant() {
        for stagger in [None, Some(9.0)] {
            let mut s = Scenario::paper_default(5);
            s.slots = 250;
            s.seed = 11;
            // A frame longer than a second of playback: a client's fill
            // can overshoot its high watermark by more than the slot
            // drains, so the watermark policies do switch phase.
            s.delta_kb = 700.0;
            s.capacity = CapacitySpec::Constant { kbps };
            s.workload = WorkloadSpec {
                size_range_kb: (40_000.0, 60_000.0),
                rate_range_kbps: (300.0, 600.0),
                vbr_levels: None,
                vbr_segment_slots: 30,
            };
            s.record_series = true;
            s.scheduler = spec.clone();
            if let Some(mean_interval_slots) = stagger {
                s.arrivals = ArrivalSpec::Staggered {
                    mean_interval_slots,
                };
            }
            let (straight, straight_trace) = traced(&s);

            let mut rec = TraceRecorder::new();
            let RunOutcome::Paused(ck) = s.run_until(&mut rec, 97).expect("runs") else {
                panic!("{spec:?}: the run must still be going at slot 97");
            };
            let json = ck.to_json().expect("checkpoint serializes");
            let ck = EngineCheckpoint::from_json(&json).expect("checkpoint parses");
            let mut rec = TraceRecorder::new();
            let resumed = s.resume_from(&mut rec, &ck).expect("resume runs");
            assert_eq!(
                deterministic_parts(&straight),
                deterministic_parts(&resumed),
                "{spec:?}, stagger {stagger:?}: result diverged across resume"
            );
            assert_eq!(
                straight_trace,
                rec.into_trace(&resumed.scheduler).to_jsonl(),
                "{spec:?}, stagger {stagger:?}: trace diverged across resume"
            );
        }
    }
}
