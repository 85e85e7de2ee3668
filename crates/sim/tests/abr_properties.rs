//! Property-based tests pinning the PR 8 contract: ABR ladders and
//! gateway admission control are first-class machinery whose *identity
//! configurations are bit-identical to the paths they extend*.
//!
//! * A single-rung ladder (`[1.0]`) plus `AlwaysAdmit` must reproduce
//!   today's constant-bitrate run exactly — per-user results AND full
//!   trace bytes — on the driver, the reference loop, and multicell.
//! * A real multi-rung ABR run must itself be bit-identical to the
//!   reference loop and across checkpoint/resume with ABR client state
//!   captured mid-chunk (checkpoint format v3).
//! * A feasibility admission run must survive checkpoint/resume exactly
//!   (deferred-queue state and the running Ω̂/Φ̂ accumulators are part
//!   of the v3 sidecar).

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    AbrPolicy, AbrSpec, AdmissionDecision, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec,
    CollectorSpec, EngineCheckpoint, FaultSpec, MultiCellScenario, RunOutcome, Scenario,
    SchedulerSpec, SimResult, TraceRecorder, WorkloadSpec,
};
use proptest::prelude::*;

fn arb_sched() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Default),
        (700.0f64..1300.0).prop_map(SchedulerSpec::rtma),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema_fast),
        Just(SchedulerSpec::pf_default()),
    ]
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalSpec> {
    prop_oneof![
        Just(ArrivalSpec::Simultaneous),
        (2.0f64..12.0).prop_map(|mean_interval_slots| ArrivalSpec::Poisson {
            mean_interval_slots,
            diurnal: None,
            session_slots: None,
        }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..8,           // users
        80u64..200,          // slots
        600.0f64..4_000.0,   // capacity KB/s
        1_000.0f64..4_000.0, // video size KB
        arb_sched(),
        0u64..1_000,     // seed
        prop::bool::ANY, // record_series
        arb_arrivals(),
    )
        .prop_map(|(n, slots, cap, size, sched, seed, series, arrivals)| {
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
            s.arrivals = arrivals;
            s
        })
}

fn arb_policy() -> impl Strategy<Value = AbrPolicy> {
    prop_oneof![
        (0.0f64..6.0, 6.0f64..20.0)
            .prop_map(|(low_s, high_s)| AbrPolicy::BufferBased { low_s, high_s }),
        (0.2f64..1.0).prop_map(|safety| AbrPolicy::RateBased { safety }),
    ]
}

fn arb_abr() -> impl Strategy<Value = AbrSpec> {
    (arb_policy(), 1u64..8, prop::option::of(0usize..3)).prop_map(
        |(policy, chunk_slots, initial_rung)| AbrSpec {
            ladder: BitrateLadder {
                multipliers: vec![0.5, 0.75, 1.0],
            },
            chunk_slots,
            policy,
            initial_rung,
        },
    )
}

fn arb_feasibility() -> impl Strategy<Value = AdmissionSpec> {
    (
        0.5f64..5.0,
        prop::option::of(0.001f64..0.5),
        prop::option::of(50.0f64..5_000.0),
        1u64..20,
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

/// Run fully traced and return the deterministic pieces: the result
/// (wall-clock latency quantiles scrubbed) and the trace JSONL bytes.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole identity: a single-rung ladder plus `AlwaysAdmit`
    /// reproduces the constant-bitrate run bit-for-bit — results and
    /// trace bytes — on the driver and the reference loop.
    #[test]
    fn single_rung_always_admit_is_bit_identical(scenario in arb_scenario()) {
        let mut identity = scenario.clone();
        identity.abr = Some(AbrSpec::single_rung());
        identity.admission = Some(AdmissionSpec::AlwaysAdmit);

        let (plain, plain_trace) = traced_serial(&scenario);
        let (id_serial, id_serial_trace) = traced_serial(&identity);
        prop_assert_eq!(&plain, &id_serial, "serial result diverged");
        prop_assert_eq!(&plain_trace, &id_serial_trace, "serial trace diverged");

        let (id_ref, id_ref_trace) = traced_reference(&identity);
        prop_assert_eq!(&plain, &id_ref, "reference result diverged");
        prop_assert_eq!(&plain_trace, &id_ref_trace, "reference trace diverged");
    }

    /// Multi-rung ABR runs — rung switches staged in phase C, committed
    /// in phase D — are bit-identical to the reference loop.
    #[test]
    fn abr_equals_reference(scenario in arb_scenario(), abr in arb_abr()) {
        let mut s = scenario;
        s.abr = Some(abr);
        let (driven, driven_trace) = traced_serial(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(&driven, &reference, "result diverged from the reference");
        prop_assert_eq!(&driven_trace, &reference_trace, "trace bytes diverged");
    }

    /// Fades, outages and departures from a fault plan feed the rate
    /// estimates and buffers the ABR policy reads: a faulted multi-rung
    /// run is still bit-identical to the reference loop.
    #[test]
    fn abr_faulted_equals_reference(
        scenario in arb_scenario(),
        abr in arb_abr(),
        fault_seed in 0u64..500,
        n_events in 1usize..5,
    ) {
        let mut s = scenario;
        s.abr = Some(abr);
        s.faults = FaultSpec::Generated { seed: fault_seed, n_events };
        let (driven, driven_trace) = traced_serial(&s);
        let (reference, reference_trace) = traced_reference(&s);
        prop_assert_eq!(&driven, &reference, "result diverged from the reference");
        prop_assert_eq!(&driven_trace, &reference_trace, "trace bytes diverged");
    }

    /// Pausing an ABR run mid-chunk, round-tripping the v3 checkpoint
    /// through JSON, and resuming reproduces the straight run exactly
    /// (per-user rung state and chunk progress are part of the sidecar).
    #[test]
    fn abr_checkpoint_resume_is_exact(
        scenario in arb_scenario(),
        abr in arb_abr(),
        pause_frac in 0.1f64..0.9,
    ) {
        let mut s = scenario;
        s.abr = Some(abr);
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
        prop_assert_eq!(straight, stitched, "ABR resume diverged from straight run");
        prop_assert_eq!(straight_trace, stitched_trace, "trace diverged across resume");
    }

    /// Feasibility admission state (deferred-arrival queue, defer
    /// tallies, the running E* accumulators) survives checkpoint/resume
    /// exactly.
    #[test]
    fn admission_checkpoint_resume_is_exact(
        scenario in arb_scenario(),
        admission in arb_feasibility(),
        mean_interval in 2.0f64..10.0,
        pause_frac in 0.1f64..0.9,
    ) {
        let mut s = scenario;
        // Feasibility control needs an open arrival process to rule on.
        s.arrivals = ArrivalSpec::Poisson {
            mean_interval_slots: mean_interval,
            diurnal: None,
            session_slots: None,
        };
        s.admission = Some(admission);
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
                let mut rec2 = TraceRecorder::new().with_live_counts();
                let r = s.resume_from(&mut rec2, &ck2).expect("resume runs");
                let trace = rec2.into_trace(&r.scheduler);
                (scrub(r), trace.to_jsonl())
            }
        };
        prop_assert_eq!(straight, stitched, "admission resume diverged");
        prop_assert_eq!(straight_trace, stitched_trace, "trace diverged across resume");
    }
}

fn mc_base(n_users: usize) -> Scenario {
    let mut s = Scenario::paper_default(n_users);
    s.slots = 500;
    s.capacity = CapacitySpec::Constant { kbps: 2_000.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (5_000.0, 10_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s
}

fn mc(n_users: usize, n_cells: usize, p: f64) -> MultiCellScenario {
    MultiCellScenario {
        base: mc_base(n_users),
        n_cells,
        handover_prob: p,
    }
}

fn abr_ladder() -> AbrSpec {
    AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        ..AbrSpec::single_rung()
    }
}

/// Single-rung + AlwaysAdmit is the identity on multicell too.
#[test]
fn multicell_single_rung_identity() {
    let plain = mc(6, 3, 0.05);
    let mut identity = plain.clone();
    identity.base.abr = Some(AbrSpec::single_rung());
    identity.base.admission = Some(AdmissionSpec::AlwaysAdmit);

    let a = plain.run().expect("plain runs");
    let b = identity.run().expect("identity runs");
    assert_eq!(a, b, "multicell identity diverged");
}

/// A real multi-rung multicell ABR run switches rungs, and its traced
/// run equals the untraced one, which repeats exactly.
#[test]
fn multicell_abr_switches_rungs_and_repeats() {
    let mut m = mc(8, 4, 0.05);
    m.base.capacity = CapacitySpec::Constant { kbps: 900.0 };
    m.base.abr = Some(abr_ladder());
    let plain = m.run().expect("multicell abr runs");
    assert_eq!(m.run().expect("multicell abr reruns"), plain);
    let (traced, trace) = m.run_traced(1).expect("traced multicell abr runs");
    assert_eq!(traced.result.per_user, plain.result.per_user);
    assert_eq!(traced.handovers, plain.handovers);
    let switches: usize = trace.records.iter().map(|r| r.abr.len()).sum();
    assert!(switches > 0, "congested cells must trigger rung switches");
}

/// Stale and noisy collectors (RTMA reading the SoA mirror among them)
/// and a feasibility admission controller run in the driver exactly as
/// in the reference loop — result, warnings (none) and trace bytes.
#[test]
fn collector_and_admission_inputs_equal_the_reference() {
    let mut stale = mc_base(3);
    stale.slots = 200;
    stale.collector = CollectorSpec {
        staleness_slots: 4,
        signal_noise_std_db: 0.0,
    };
    let mut noisy = stale.clone();
    noisy.collector.signal_noise_std_db = 2.0;
    let mut noisy_soa = noisy.clone();
    noisy_soa.scheduler = SchedulerSpec::rtma(900.0);
    let mut adm = mc_base(3);
    adm.slots = 200;
    adm.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 10.0,
        diurnal: None,
        session_slots: None,
    };
    adm.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 10,
    });

    for (name, s) in [
        ("stale collector", &stale),
        ("noisy collector", &noisy),
        ("noisy collector + SoA", &noisy_soa),
        ("feasibility admission", &adm),
    ] {
        let driven = traced_serial(s);
        assert!(
            driven.0.warnings.is_empty(),
            "{name}: {:?}",
            driven.0.warnings
        );
        assert_eq!(driven, traced_reference(s), "{name}");
    }
}

/// Feasibility admission control is single-cell machinery: multicell
/// runs reject it with a field-named error (AlwaysAdmit stays legal).
#[test]
fn multicell_rejects_feasibility_admission() {
    let mut m = mc(4, 2, 0.0);
    m.base.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 10.0,
        diurnal: None,
        session_slots: None,
    };
    m.base.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 10,
    });
    let msg = m.run().expect_err("must be rejected").to_string();
    assert!(msg.contains("admission"), "{msg}");
}

/// Under congestion the feasibility controller actually defers and
/// rejects late arrivals — the decisions land in the trace, rejected
/// users never fetch a byte, and the run admits strictly less work
/// than `AlwaysAdmit`.
#[test]
fn feasibility_admission_gates_congested_arrivals() {
    let mut s = Scenario::paper_default(6);
    s.slots = 400;
    // Far below n·r̄, so the per-user slack ε̂ goes negative as soon as
    // a second user is in the system.
    s.capacity = CapacitySpec::Constant { kbps: 800.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (4_000.0, 8_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 30.0,
        diurnal: None,
        session_slots: None,
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: Some(0.01),
        phi_mj: None,
        max_defer_slots: 3,
    });

    let mut rec = TraceRecorder::new().with_live_counts();
    let gated = s.run_with(&mut rec).expect("gated run");
    let trace = rec.into_trace(&gated.scheduler);
    let mut deferred = 0usize;
    let mut rejected: Vec<usize> = Vec::new();
    for record in &trace.records {
        for a in &record.adm {
            match a.decision {
                AdmissionDecision::Admit => {}
                AdmissionDecision::Defer => deferred += 1,
                AdmissionDecision::Reject => rejected.push(a.user),
            }
        }
    }
    assert!(deferred > 0, "congestion must defer at least one arrival");
    assert!(!rejected.is_empty(), "deferral must escalate to rejection");
    for &u in &rejected {
        assert_eq!(
            gated.per_user[u].fetched_kb, 0.0,
            "rejected user {u} fetched"
        );
        assert_eq!(
            gated.per_user[u].watched_s, 0.0,
            "rejected user {u} watched"
        );
    }

    let mut open = s.clone();
    open.admission = Some(AdmissionSpec::AlwaysAdmit);
    let ungated = open.run().expect("ungated run");
    let fetched = |r: &SimResult| r.per_user.iter().map(|u| u.fetched_kb).sum::<f64>();
    assert!(
        fetched(&gated) < fetched(&ungated),
        "gating must admit strictly less work ({} vs {})",
        fetched(&gated),
        fetched(&ungated)
    );
}

/// Multi-rung ABR under congestion switches down — switches land in the
/// trace — and strictly reduces both delivered volume and rebuffering
/// against the fixed-bitrate run of the same cell.
#[test]
fn abr_down_switches_under_congestion() {
    let mut s = Scenario::paper_default(4);
    s.slots = 400;
    s.capacity = CapacitySpec::Constant { kbps: 900.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (4_000.0, 8_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    let fixed = s.run().expect("fixed-rate run");

    s.abr = Some(abr_ladder());
    let mut rec = TraceRecorder::new();
    let abr = s.run_with(&mut rec).expect("abr run");
    let trace = rec.into_trace(&abr.scheduler);
    let switches: usize = trace.records.iter().map(|r| r.abr.len()).sum();
    assert!(switches > 0, "congestion must trigger rung switches");
    assert!(
        abr.total_rebuffer_s() < fixed.total_rebuffer_s(),
        "down-switching must cut rebuffering ({} vs {})",
        abr.total_rebuffer_s(),
        fixed.total_rebuffer_s()
    );
}
