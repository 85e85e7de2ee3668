//! Regression tests for state bleed between runs: interleaving the
//! active-set loop, the reference loop and traced runs — in any order,
//! through shared recorders — must never change what any individual run
//! produces. Every engine run builds its scheduler and scratch fresh, and
//! `TraceRecorder::begin_run` resets all per-run state; these tests pin
//! both properties at the scenario level.

use jmso_sim::{
    CapacitySpec, MultiCellScenario, Scenario, SchedulerSpec, TraceRecorder, WorkloadSpec,
};

/// A contended cell small enough to run many times per test.
fn contended(n: usize, spec: SchedulerSpec) -> Scenario {
    let mut s = Scenario::paper_default(n);
    s.slots = 120;
    s.seed = 7;
    s.capacity = CapacitySpec::Constant {
        kbps: 300.0 * n as f64,
    };
    s.workload = WorkloadSpec {
        size_range_kb: (30_000.0, 60_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.scheduler = spec;
    s
}

/// Interleaving `run`, `run_reference` and `run_traced` in any order
/// reproduces each loop's result exactly — no scratch survives a run.
#[test]
fn interleaved_loops_are_pure() {
    for spec in [SchedulerSpec::RtmaUnbounded, SchedulerSpec::ema(1.0)] {
        let s = contended(4, spec);
        let base_run = s.run().unwrap();
        let base_ref = s.run_reference().unwrap();
        let (_, base_trace) = s.run_traced(1).unwrap();
        for _ in 0..3 {
            assert_eq!(s.run_reference().unwrap(), base_ref);
            let (traced, trace) = s.run_traced(1).unwrap();
            assert_eq!(traced.per_user, base_run.per_user);
            assert_eq!(trace, base_trace);
            assert_eq!(s.run().unwrap(), base_run);
        }
        assert_eq!(base_run.per_user, base_ref.per_user);
    }
}

/// One recorder reused across runs of *different* scenarios (different
/// user counts, schedulers and horizons) behaves exactly like a fresh
/// recorder for every run.
#[test]
fn recorder_reuse_matches_fresh() {
    let a = contended(4, SchedulerSpec::RtmaUnbounded);
    let b = contended(2, SchedulerSpec::ema(0.5));

    let mut fresh = TraceRecorder::new();
    a.run_with(&mut fresh).unwrap();
    let expect_a = fresh.clone().into_trace("t");
    let mut fresh = TraceRecorder::new();
    b.run_with(&mut fresh).unwrap();
    let expect_b = fresh.clone().into_trace("t");

    let mut shared = TraceRecorder::new();
    a.run_with(&mut shared).unwrap();
    assert_eq!(shared.clone().into_trace("t"), expect_a);
    b.run_with(&mut shared).unwrap();
    assert_eq!(shared.clone().into_trace("t"), expect_b);
    // Back to the first scenario: nothing from run B may leak in.
    a.run_with(&mut shared).unwrap();
    assert_eq!(shared.clone().into_trace("t"), expect_a);
    // And the reference loop through the same shared recorder agrees too.
    a.run_reference_with(&mut shared).unwrap();
    assert_eq!(shared.into_trace("t"), expect_a);
}

/// Attaching a recorder must not perturb the simulation itself.
#[test]
fn tracing_does_not_perturb_results() {
    let s = contended(3, SchedulerSpec::ema(2.0));
    let plain = s.run().unwrap();
    let (traced, _) = s.run_traced(4).unwrap();
    assert_eq!(plain.per_user, traced.per_user);
    assert_eq!(plain.slots_run, traced.slots_run);
    assert!(plain.telemetry.is_none());
    assert!(traced.telemetry.is_some());
}

/// Multicell traced runs reconcile the same way single-cell ones do:
/// per-record combined allocation fits the summed budget, and trace
/// energy/rebuffering totals match the aggregate result.
#[test]
fn multicell_trace_reconciles() {
    let mc = MultiCellScenario {
        base: contended(6, SchedulerSpec::RtmaUnbounded),
        n_cells: 2,
        handover_prob: 0.1,
    };
    let (res, trace) = mc.run_traced(1).unwrap();
    assert_eq!(trace.records.len() as u64, res.result.slots_run);
    for r in &trace.records {
        assert!(r.alloc.iter().sum::<u64>() <= r.cap);
    }
    let e = trace.energy_by_user_mj();
    let reb = trace.rebuffer_by_user_s();
    for (i, u) in res.result.per_user.iter().enumerate() {
        let want = u.energy.total().value();
        assert!(
            (e[i] - want).abs() <= 1e-6 * want.max(1.0),
            "user {i} energy: trace {} vs result {want}",
            e[i]
        );
        assert!((reb[i] - u.rebuffer_s).abs() <= 1e-6 * u.rebuffer_s.max(1.0));
    }
    // Rerunning traced is deterministic (every run builds its lanes
    // afresh).
    let (_, again) = mc.run_traced(1).unwrap();
    assert_eq!(trace, again);
}
