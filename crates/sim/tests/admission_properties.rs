//! Property-based tests pinning the admission hot path: the
//! incrementally-maintained feasibility aggregates (`n_active`,
//! `rate_sum`) and the driver's admission tick are *bit-identical* to
//! the paths they replaced.
//!
//! * The hot admission tick reads running aggregates updated at the
//!   O(1) event points (arrival commit, rejection, `done_watching`
//!   flip); the retired full-population rescan survives as
//!   `admission_aggregates_reference` inside the reference engine loop.
//!   Under heavy deferral churn — Poisson arrivals, `max_defer_slots`
//!   ∈ {0, 1, 30}, exponential sessions ending while other users sit in
//!   the deferred queue — both loops must produce the same results and
//!   the same trace bytes.
//! * The hot tick keeps the users who came due in a waiting room and
//!   visits only the ones it admits or rejects: the next admit is the
//!   leftmost user whose rate passes (the verdict is monotone in it),
//!   and a deferral is a function of the clock. Only an `Admit` reaches
//!   the arrival gate; the reference tick finds its candidates by
//!   scanning every user. Same rulings in the same order for
//!   `max_defer_slots` ∈ {0, 1, 30}, also under a plan that brings users
//!   in descending index order, and a checkpoint taken while users sit
//!   deferred resumes byte for byte (the room is not checkpointed: it is
//!   re-derived from the arrival slots and deferral counts).

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    AbrSpec, AdmissionDecision, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec,
    CollectorSpec, EngineCheckpoint, FaultEvent, FaultSpec, MultiCellScenario, NullRecorder,
    OriginModel, RunOutcome, Scenario, SchedulerSpec, SessionLength, SimError, SimResult,
    SlotDriver, TraceRecorder, WorkloadSpec, NEVER_DEPARTS,
};
use proptest::prelude::*;

/// Feasibility specs spanning the defer-policy extremes: 0 (reject on
/// first infeasible slot), 1 (a single retry), 30 (long deferral queues
/// where sessions end mid-defer).
fn arb_feasibility() -> impl Strategy<Value = AdmissionSpec> {
    (
        0.3f64..4.0,
        prop::option::of(0.001f64..0.5),
        prop::option::of(50.0f64..5_000.0),
        prop_oneof![Just(0u64), Just(1u64), Just(30u64)],
    )
        .prop_map(
            |(v, omega_s, phi_mj, max_defer_slots)| AdmissionSpec::Feasibility {
                v,
                omega_s,
                phi_mj,
                max_defer_slots,
            },
        )
}

/// Open-system scenarios tuned for admission churn: arrivals fast
/// enough to queue up, capacity tight enough that candidates get
/// deferred or rejected, and (optionally) memoryless session lengths so
/// active users abandon — flipping `done_watching`, and with it the
/// aggregates — while later arrivals are still deferred.
fn arb_churn_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            3usize..10,        // users
            100u64..260,       // slots
            400.0f64..2_500.0, // capacity KB/s
            800.0f64..3_000.0, // video size KB
            0u64..1_000,       // seed
            prop::bool::ANY,   // record_series
        ),
        (
            1.0f64..8.0,                      // Poisson mean interarrival
            prop::option::of(20.0f64..120.0), // exponential session mean
            prop_oneof![
                Just(SchedulerSpec::Default),
                (700.0f64..1300.0).prop_map(SchedulerSpec::rtma)
            ],
        ),
    )
        .prop_map(
            |((n, slots, cap, size, seed, series), (mean_interval, session_mean, sched))| {
                let mut s = Scenario::paper_default(n);
                s.slots = slots;
                s.capacity = CapacitySpec::Constant { kbps: cap };
                s.workload = WorkloadSpec {
                    size_range_kb: (size, size * 1.5),
                    rate_range_kbps: (300.0, 600.0),
                    vbr_levels: None,
                    vbr_segment_slots: 30,
                };
                s.scheduler = sched;
                s.seed = seed;
                s.record_series = series;
                s.arrivals = ArrivalSpec::Poisson {
                    mean_interval_slots: mean_interval,
                    diurnal: None,
                    session_slots: session_mean
                        .map(|mean_slots| SessionLength::Exponential { mean_slots }),
                };
                s
            },
        )
}

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

/// Run to the top of `pause`, round-trip the checkpoint through JSON,
/// resume, and return what the two halves add up to.
fn traced_resumed(s: &Scenario, pause: u64) -> (SimResult, String) {
    let mut rec = TraceRecorder::new().with_live_counts();
    match s.run_until(&mut rec, pause).expect("valid scenario runs") {
        RunOutcome::Done(r) => {
            let trace = rec.into_trace(&r.scheduler);
            (scrub(r), trace.to_jsonl())
        }
        RunOutcome::Paused(ck) => {
            let json = ck.to_json().expect("checkpoint serializes");
            let ck = EngineCheckpoint::from_json(&json).expect("checkpoint parses");
            assert_eq!(ck.slot(), pause);
            let mut rec = TraceRecorder::new().with_live_counts();
            let r = s.resume_from(&mut rec, &ck).expect("resume runs");
            let trace = rec.into_trace(&r.scheduler);
            (scrub(r), trace.to_jsonl())
        }
    }
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

    /// The tentpole identity: the hot loop's incrementally-maintained
    /// aggregates rule exactly like the reference loop's per-candidate
    /// full rescan — same per-user results, same admission decisions in
    /// the trace, same bytes — under deferral churn and mid-defer
    /// session endings.
    #[test]
    fn incremental_aggregates_match_reference_rescan(
        scenario in arb_churn_scenario(),
        admission in arb_feasibility(),
    ) {
        let mut s = scenario;
        s.admission = Some(admission);

        let (hot, hot_trace) = traced_serial(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(&hot, &reference, "incremental aggregates diverged from rescan");
        prop_assert_eq!(
            &hot_trace,
            &reference_trace,
            "trace bytes diverged between hot and reference loops"
        );
    }

    /// Events of a fault plan meet the admission tick (a late arrival
    /// reaches the gate late, a departure frees capacity mid-defer): the
    /// driver still rules like the reference loop — results, warnings
    /// and trace bytes.
    #[test]
    fn faulted_admission_equals_reference(
        scenario in arb_churn_scenario(),
        admission in arb_feasibility(),
        fault_seed in 0u64..500,
        n_events in 1usize..5,
    ) {
        let mut s = scenario;
        s.admission = Some(admission);
        s.faults = FaultSpec::Generated { seed: fault_seed, n_events };

        let (driven, driven_trace) = traced_serial(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(&driven, &reference, "faulted admission diverged from the reference");
        prop_assert_eq!(&driven_trace, &reference_trace, "trace bytes diverged");
    }

    /// The arrival queue (planned list, waiting room, gate) is derived
    /// state: pausing right after a tick that ruled — with users just
    /// deferred, just admitted for the paused slot, or still planned —
    /// and resuming from the sidecar JSON continues with the same
    /// rulings, results and trace bytes.
    #[test]
    fn checkpoint_resume_rebuilds_the_arrival_queue(
        scenario in arb_churn_scenario(),
        admission in arb_feasibility(),
        pick in 0usize..1_000,
    ) {
        let mut s = scenario;
        s.admission = Some(admission);
        let ruled_slots: Vec<u64> = rulings(&s, false).iter().map(|r| r.0).collect();
        let pause = match ruled_slots.get(pick % ruled_slots.len().max(1)) {
            Some(slot) => (slot + 1).min(s.slots - 1),
            None => s.slots / 2,
        };

        let (straight, straight_trace) = traced_serial(&s);
        let (stitched, stitched_trace) = traced_resumed(&s, pause);
        prop_assert_eq!(&straight, &stitched, "resume at slot {} diverged", pause);
        prop_assert_eq!(&straight_trace, &stitched_trace, "trace diverged across slot {}", pause);
    }
}

/// Result and trace bytes of one door into the slot, run under the
/// scenario's own recorder.
fn through(
    s: &Scenario,
    door: impl FnOnce(&mut TraceRecorder) -> Result<SimResult, SimError>,
) -> (SimResult, String) {
    let mut rec = s.trace_recorder(1);
    let r = door(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler).to_jsonl();
    (scrub(r), trace)
}

/// Every door that remains gives the same result and trace bytes as
/// `run_with` — and `run`, which keeps no trace, the same result. The
/// doors include a resume from the top of a slot whose predecessor
/// deferred somebody, and `run_reference_with`, whose finish folds every
/// row where the others fold the rows the run wrote.
fn every_door_agrees(s: &Scenario) {
    let sidecar = std::env::temp_dir().join(format!(
        "jmso-doors-{}-{}.json",
        std::process::id(),
        s.faults.is_none()
    ));
    let (base, base_trace) = through(s, |rec| s.run_with(rec));
    // A pause, and sidecars at a third and two thirds of the run.
    let (mid, third) = (base.slots_run / 2, base.slots_run / 3);
    // Not vacuous: the run defers arrivals and switches rungs, and the
    // plan, when there is one, shows.
    assert!(base_trace.contains("\"defer\"") && base_trace.contains("\"abr\":["));
    assert_eq!(base_trace.contains("deep_fade start"), !s.faults.is_none());
    let mid_defer = rulings(s, false)
        .iter()
        .filter(|r| r.2 == AdmissionDecision::Defer)
        .map(|r| r.0 + 1)
        .find(|&slot| slot > third)
        .expect("a deferral after the first third");
    let doors = [
        ("run_traced", {
            let (r, trace) = s.run_traced(1).expect("valid scenario runs");
            (scrub(r), trace.to_jsonl())
        }),
        ("run_until + resume_from", traced_resumed(s, mid)),
        ("resumed mid-defer", traced_resumed(s, mid_defer)),
        (
            "run_checkpointed_with",
            through(s, |rec| s.run_checkpointed_with(rec, third, &sidecar)),
        ),
        (
            "resumed from its sidecar",
            through(s, |rec| {
                s.resume_from(rec, &EngineCheckpoint::read_file(&sidecar)?)
            }),
        ),
        (
            "driver",
            through(s, |rec| {
                let mut drv = s.driver(rec, None)?;
                while drv.step(rec).is_some() {}
                Ok(drv.finish(rec))
            }),
        ),
        (
            "run_reference_with",
            through(s, |rec| s.run_reference_with(rec)),
        ),
    ];
    let _ = std::fs::remove_file(&sidecar);
    for (door, (r, trace)) in &doors {
        assert_eq!(r, &base, "{door}");
        assert_eq!(trace, &base_trace, "{door}");
    }
    let untraced = SimResult {
        telemetry: None,
        ..base
    };
    assert_eq!(s.run().expect("valid scenario runs"), untraced, "run");
}

/// A deterministic congested configuration exercising all three event
/// points (admit, defer→admit, reject at the defer cap) must see the
/// incremental and reference loops agree — and actually defer
/// at least one arrival, so the identity above is not vacuous. With ABR
/// and a declared fault plan, it and its fault-free twin give the same
/// answer through every door into the slot.
#[test]
fn congested_cell_defers_and_all_loops_agree() {
    let mut s = Scenario::paper_default(8);
    s.slots = 240;
    s.capacity = CapacitySpec::Constant { kbps: 600.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 3_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.seed = 7;
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 2.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 60.0 }),
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: Some(0.01),
        phi_mj: None,
        max_defer_slots: 5,
    });

    let mut rec = TraceRecorder::new().with_live_counts();
    let r = s.run_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    let deferred = trace
        .records
        .iter()
        .flat_map(|rec| &rec.adm)
        .filter(|a| a.decision == AdmissionDecision::Defer)
        .count();
    assert!(deferred > 0, "congestion must defer at least one arrival");
    let (hot, hot_trace) = (scrub(r), trace.to_jsonl());

    let (reference, reference_trace) = traced_reference(&s);
    assert_eq!(hot, reference);
    assert_eq!(hot_trace, reference_trace);

    // The longer-running cell of the tests below, the richest scenario.
    let mut s = congested(30);
    s.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        ..AbrSpec::single_rung()
    });
    let plan = FaultSpec::Declared {
        events: vec![
            FaultEvent::DeepFade {
                user: 0,
                from_slot: 2,
                until_slot: 10,
                depth_db: 12.0,
            },
            FaultEvent::CapDegradation {
                from_slot: 4,
                until_slot: 9,
                factor: 0.5,
            },
            FaultEvent::Departure { user: 2, slot: 6 },
        ],
    };
    for faults in [plan, FaultSpec::None] {
        s.faults = faults;
        every_door_agrees(&s);
        live_and_multi_lane_doors_agree(&s);
    }
    // A deferral cap of one slot rejects as well.
    let mut s = Scenario {
        admission: congested(1).admission,
        ..s
    };
    every_door_agrees(&s);
    s.faults = FaultSpec::None;
    let (r, trace) = through(&s, |rec| s.run_with(rec));
    assert!(trace.contains("\"reject\""), "the one-slot cap must reject");
    assert_eq!(through(&s, |rec| s.run_reference_with(rec)), (r, trace));
}

/// The doors that take no admission controller: the live driver — every
/// departure set before its user's arrival is — against the reference
/// run of the declared plan it ends with, and the multi-lane engine: one
/// lane against the reference of the cell it stands for, two lanes
/// traced against two lanes untraced.
fn live_and_multi_lane_doors_agree(s: &Scenario) {
    let plan = s.arrivals.compile(s.n_users, s.seed);
    let declared = Scenario {
        admission: None,
        arrivals: ArrivalSpec::Declared {
            arrivals: plan.arrivals.clone(),
            departures: (plan.departures.iter())
                .map(|&d| (d != NEVER_DEPARTS).then_some(d))
                .collect(),
        },
        ..s.clone()
    };
    assert!(
        plan.any_departures(),
        "the plan must have departures to set"
    );
    let live = through(&declared, |rec| {
        let mut drv = declared.driver(rec, None)?;
        drv.defer_all_arrivals()?;
        for (user, (&a, &d)) in plan.arrivals.iter().zip(&plan.departures).enumerate() {
            if d != NEVER_DEPARTS {
                drv.set_departure(user, d)?;
            }
            drv.set_arrival(user, a)?;
        }
        while drv.step(rec).is_some() {}
        Ok(drv.finish(rec))
    });
    assert_eq!(
        live,
        through(&declared, |rec| declared.run_reference_with(rec))
    );

    let cell = Scenario {
        admission: None,
        arrivals: ArrivalSpec::Simultaneous,
        collector: CollectorSpec::perfect(),
        origin: OriginModel::Infinite,
        rate_via_dpi: false,
        ..s.clone()
    };
    let lanes = |n_cells| MultiCellScenario {
        base: cell.clone(),
        n_cells,
        handover_prob: 0.05,
    };
    if s.faults.is_none() {
        // One lane's budget goes through the per-cell fault hook, which
        // quantises differently; without faults it is the cell's.
        let (one, trace) = lanes(1).run_traced(1).expect("valid scenario runs");
        let one = (scrub(one.result), trace.to_jsonl());
        assert_eq!(one, through(&cell, |rec| cell.run_reference_with(rec)));
    }
    let two = lanes(2);
    let (stepped, _) = two.run_traced(1).expect("valid scenario runs");
    assert!(stepped.handovers > 0);
    let untraced = MultiCellScenario::run(&two).expect("valid scenario runs");
    assert_eq!(scrub(stepped.result).per_user, untraced.result.per_user);
}

/// A cell with room for two sessions at a time (slack is the only
/// budget) and a new arrival every other slot: arrivals are admitted
/// while there is room, deferred until a session ends, and rejected at
/// the deferral cap.
fn congested(max_defer_slots: u64) -> Scenario {
    let mut s = Scenario::paper_default(24);
    s.slots = 240;
    s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 3_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.seed = 7;
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 2.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 20.0 }),
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots,
    });
    s
}

/// `(slot, user, decision)` of every ruling in a trace, in record order.
fn rulings(s: &Scenario, reference: bool) -> Vec<(u64, usize, AdmissionDecision)> {
    let mut rec = TraceRecorder::new().with_live_counts();
    let r = if reference {
        s.run_reference_with(&mut rec)
    } else {
        s.run_with(&mut rec)
    }
    .expect("valid scenario runs");
    rec.into_trace(&r.scheduler)
        .records
        .iter()
        .flat_map(|rec| rec.adm.iter().map(|a| (rec.slot, a.user, a.decision)))
        .collect()
}

/// The waiting-room tick rules exactly like the reference tick's
/// scan of every user, at each deferral cap: 0 never defers (the queue
/// is the planned list alone), 1 carries a user across one tick, 30
/// keeps users in the waiting room for many.
#[test]
fn merged_queue_rules_like_the_reference_scan() {
    for max_defer_slots in [0u64, 1, 30] {
        let s = congested(max_defer_slots);
        let hot = rulings(&s, false);
        assert_eq!(
            hot,
            rulings(&s, true),
            "rulings differ at max_defer_slots = {max_defer_slots}"
        );
        let count = |d| hot.iter().filter(|r| r.2 == d).count();
        assert!(count(AdmissionDecision::Admit) > 0);
        match max_defer_slots {
            0 => {
                assert_eq!(count(AdmissionDecision::Defer), 0);
                assert!(count(AdmissionDecision::Reject) > 0);
            }
            1 => {
                assert!(count(AdmissionDecision::Defer) > 0);
                assert!(count(AdmissionDecision::Reject) > 0);
            }
            // Thirty slots outlast the waits: everyone gets in.
            _ => assert!(count(AdmissionDecision::Defer) > 100),
        }
        // One tick's rulings come in ascending user order.
        for w in hot.windows(2) {
            assert!(w[0].0 < w[1].0 || w[0].1 < w[1].1, "{w:?}");
        }
    }
}

/// A checkpoint taken at the top of a slot whose predecessor deferred
/// somebody — the waiting room is non-empty at the pause — continues byte
/// for byte, at every such slot of the run.
#[test]
fn resume_mid_deferral_is_byte_identical() {
    let s = congested(30);
    let (straight, straight_trace) = traced_serial(&s);
    let mut pauses: Vec<u64> = rulings(&s, false)
        .iter()
        .filter(|r| r.2 == AdmissionDecision::Defer)
        .map(|r| r.0 + 1)
        .collect();
    pauses.dedup();
    assert!(pauses.len() > 3, "the cell must defer across several slots");
    for pause in pauses {
        let (stitched, stitched_trace) = traced_resumed(&s, pause);
        assert_eq!(straight, stitched, "resume at slot {pause}");
        assert_eq!(straight_trace, stitched_trace, "trace across slot {pause}");
    }
}

/// The sidecar a resumed run writes later on is the straight run's: a
/// user waiting at the resume slot `a` carries deferrals into the
/// restored tally, and those must not be counted again when the wait
/// re-opens — neither by a later sidecar taken while the user still
/// waits (`b = a + 1`) nor once they are admitted or rejected (`b` well
/// past the wait).
#[test]
fn sidecars_after_a_mid_deferral_resume_match_the_straight_run() {
    fn sidecar(drv: &mut SlotDriver, at: u64) -> Option<String> {
        while !drv.is_finished() {
            if drv.next_slot() == at {
                let ck = drv.checkpoint(&NullRecorder).expect("checkpoint");
                return Some(ck.to_json().expect("serializes"));
            }
            drv.step(&mut NullRecorder);
        }
        None
    }
    let s = congested(30);
    let mut pauses: Vec<u64> = rulings(&s, false)
        .iter()
        .filter(|r| r.2 == AdmissionDecision::Defer)
        .map(|r| r.0 + 1)
        .collect();
    pauses.dedup();
    let mut compared = 0;
    for a in pauses.into_iter().step_by(4) {
        let mut at_a = s.driver(&mut NullRecorder, None).expect("driver");
        let ck = sidecar(&mut at_a, a).expect("a deferral precedes the run's end");
        let ck = EngineCheckpoint::from_json(&ck).expect("checkpoint parses");
        for b in [a + 1, a + 40] {
            let mut straight = s.driver(&mut NullRecorder, None).expect("driver");
            let mut resumed = s.driver(&mut NullRecorder, Some(&ck)).expect("resume");
            let Some(want) = sidecar(&mut straight, b) else {
                continue;
            };
            assert_eq!(
                sidecar(&mut resumed, b),
                Some(want),
                "resumed at {a}, sidecar at {b}"
            );
            compared += 1;
        }
    }
    assert!(compared > 4, "only {compared} sidecars compared");
}

/// User order is not plan order: a declared plan whose arrivals descend
/// by user index — the last two users first, then the two before them
/// three slots later — through the congested cell. A tick rules in
/// ascending user order, so it interleaves the newly due (low indices)
/// with those still waiting from earlier slots (high ones). At deferral
/// caps 0, 1 and 30 the rulings and trace bytes equal the reference's
/// through every door.
#[test]
fn descending_plan_rules_like_the_reference_on_every_door() {
    for max_defer_slots in [0u64, 1, 30] {
        let mut s = congested(max_defer_slots);
        let n = s.n_users;
        let plan: Vec<u64> = (0..n).map(|i| 1 + 3 * ((n - 1 - i) / 2) as u64).collect();
        s.arrivals = ArrivalSpec::Declared {
            arrivals: plan.clone(),
            departures: Vec::new(),
        };
        let hot = rulings(&s, false);
        assert_eq!(
            hot,
            rulings(&s, true),
            "max_defer_slots = {max_defer_slots}"
        );
        let count = |d| hot.iter().filter(|r| r.2 == d).count();
        assert!(count(AdmissionDecision::Admit) > 0 && count(AdmissionDecision::Reject) > 0);
        assert_eq!(count(AdmissionDecision::Defer) > 0, max_defer_slots > 0);
        // Under the long cap, some tick rules a user who just came due
        // before a higher-indexed one who came due slots earlier.
        let interleaved = hot.windows(2).any(|w| {
            let (slot, due) = (w[0].0, w[0].0 + 1);
            w[1].0 == slot && plan[w[0].1] == due && plan[w[1].1] < due
        });
        assert!(interleaved || max_defer_slots < 30, "{hot:?}");
        let base = through(&s, |rec| s.run_with(rec));
        let pause = match hot.iter().find(|r| r.2 == AdmissionDecision::Defer) {
            Some(r) => r.0 + 1,
            None => base.0.slots_run / 2,
        };
        let doors = [
            (
                "driver",
                through(&s, |rec| {
                    let mut drv = s.driver(rec, None)?;
                    while drv.step(rec).is_some() {}
                    Ok(drv.finish(rec))
                }),
            ),
            (
                "run_reference_with",
                through(&s, |rec| s.run_reference_with(rec)),
            ),
        ];
        for (door, got) in &doors {
            assert_eq!(got, &base, "{door}, max_defer_slots = {max_defer_slots}");
        }
        assert_eq!(
            traced_resumed(&s, pause),
            traced_serial(&s),
            "resumed at slot {pause}, max_defer_slots = {max_defer_slots}"
        );
    }
}
