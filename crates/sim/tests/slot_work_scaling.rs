//! A slot costs the sessions in the cell, not the pool they came from.
//!
//! The same declared arrival plan — six sessions staggered over the
//! first fifteen slots, each twelve slots long — runs on a 2 000-user
//! pool and on a 50 000-user pool whose extra users never arrive. The
//! Data Receiver, the scheduler's sweep, its upkeep of the grant vector,
//! the collector's share of phase B and the windowed-fairness fold must
//! visit exactly the same number of rows on both pools in *every* slot,
//! slot 0 included: a pass-through collector's rows stand as built, and
//! an infinite origin ships each flow's volume when the build sets it,
//! so slot 0 is a slot like any other. The work counts are
//! deterministic, so these are exact equalities, not timings.
//! So is the finish's: it folds the rows the run wrote — the users who
//! went live and the admission rejects — and on both pools the same
//! number of them.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    AdmissionDecision, AdmissionSpec, ArrivalSpec, CapacitySpec, NullRecorder, Scenario,
    SchedulerSpec, SlotWork, TraceRecorder, WorkloadSpec,
};

const SESSIONS: usize = 6;
const STAY_SLOTS: u64 = 12;
const HORIZON: u64 = 60;

/// The plan on a pool of `pool` users: user `i < SESSIONS` arrives at
/// slot `3·i` and leaves twelve slots later (the paper's 375 MB videos
/// never finish first); everyone else never arrives.
fn scenario(pool: usize, admission: bool) -> Scenario {
    let mut s = Scenario::paper_default(pool);
    s.slots = HORIZON;
    let mut arrivals = vec![u64::MAX; pool];
    let mut departures = vec![None; pool];
    for i in 0..SESSIONS {
        arrivals[i] = 3 * i as u64;
        departures[i] = Some(3 * i as u64 + STAY_SLOTS);
    }
    s.arrivals = ArrivalSpec::Declared {
        arrivals,
        departures,
    };
    // No budgets: with at most four sessions in a 20 MB/s cell the
    // slack is positive, so every planned arrival is admitted at once.
    s.admission = admission.then_some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s
}

fn work_per_slot(s: &Scenario) -> Vec<SlotWork> {
    let mut driver = s.driver(&mut NullRecorder, None).expect("valid scenario");
    let mut work = Vec::new();
    while driver.step(&mut NullRecorder).is_some() {
        work.push(driver.last_slot_work());
    }
    work
}

#[test]
fn slot_work_follows_the_live_sessions_not_the_pool() {
    for admission in [false, true] {
        let small = work_per_slot(&scenario(2_000, admission));
        let large = work_per_slot(&scenario(50_000, admission));
        assert_eq!(small.len(), HORIZON as usize);
        assert_eq!(large.len(), HORIZON as usize);
        assert_eq!(
            small, large,
            "per-slot work differs between pools (admission: {admission})"
        );
        // No slot walks the receiver's flows on either pool, slot 0
        // included.
        for (slot, w) in small.iter().chain(&large).enumerate() {
            assert_eq!(w.receiver_flows, 0, "slot {}", slot % HORIZON as usize);
        }
        // And it is the plan's work: nothing for the collector, at most
        // the four overlapping sessions (plus tails still draining) for
        // the scheduler — whose vector upkeep is at most last slot's
        // grants zeroed and this slot's written — and none once the last
        // tail has drained.
        for w in &small {
            assert_eq!(w.collector_rows, 0);
            assert!(w.scheduler_rows <= SESSIONS, "{w:?}");
            assert!(w.grant_rows_cleared <= 2 * SESSIONS, "{w:?}");
        }
        assert!(small[..20].iter().all(|w| w.scheduler_rows > 0));
        assert!(small[1..20].iter().all(|w| w.grant_rows_cleared > 0));
        assert_eq!(small[HORIZON as usize - 1].scheduler_rows, 0);
        assert_eq!(small[HORIZON as usize - 1].grant_rows_cleared, 0);
    }
}

/// Every policy's context lists the live rows, so the scheduler rows a
/// slot reports are the sessions in the cell under any policy — even
/// one that still walks the pool itself — and never the 50 000 rows.
#[test]
fn every_policy_is_handed_the_live_sessions() {
    for spec in [
        SchedulerSpec::rtma(900.0),
        SchedulerSpec::ema(1.0),
        SchedulerSpec::pf_default(),
    ] {
        let s = scenario(50_000, false).with_scheduler(spec.clone());
        let rows: Vec<usize> = work_per_slot(&s).iter().map(|w| w.scheduler_rows).collect();
        assert!(rows.iter().all(|&n| n <= SESSIONS), "{spec:?}: {rows:?}");
        assert!(rows[..20].iter().all(|&n| n > 0), "{spec:?}: {rows:?}");
        assert_eq!(rows[HORIZON as usize - 1], 0, "{spec:?}");
    }
}

/// The windowed-fairness fold (`record_series`) visits the rows its
/// window touched, and a collector that holds reports pays the pool once
/// — its first pass, which fills the report cache — and the live rows
/// after.
#[test]
fn series_and_held_reports_follow_the_live_sessions_too() {
    let run = |pool: usize| {
        let mut s = scenario(pool, false);
        s.record_series = true;
        s.collector.staleness_slots = 3;
        work_per_slot(&s)
    };
    let (small, large) = (run(2_000), run(50_000));
    assert_eq!(small[0].collector_rows, 2_000);
    assert_eq!(large[0].collector_rows, 50_000);
    for (slot, (a, b)) in small.iter().zip(&large).enumerate() {
        assert_eq!(a.fairness_rows, b.fairness_rows, "slot {slot}");
        assert_eq!(a.grant_rows_cleared, b.grant_rows_cleared, "slot {slot}");
        if slot > 0 {
            assert_eq!(a.collector_rows, b.collector_rows, "slot {slot}");
            assert_eq!(a.collector_rows, a.scheduler_rows, "slot {slot}");
        }
        let ends_window = (slot + 1) % 10 == 0;
        assert!(a.fairness_rows <= SESSIONS, "{a:?}");
        assert_eq!(a.fairness_rows > 0, ends_window && slot < 30, "slot {slot}");
    }
}

/// A congested cell under admission: twenty sessions due one a slot
/// from slot 1, room for about two at a time, a three-slot deferral cap
/// — so the tick admits, defers and rejects. It rules on the same
/// candidates in every slot on both pools, and the finish folds the
/// same rows: the users who went live and the rejects, never the pool.
#[test]
fn admission_rulings_and_the_fold_follow_the_plan_not_the_pool() {
    const DUE: usize = 20;
    let run = |pool: usize| {
        let mut s = Scenario::paper_default(pool);
        s.slots = HORIZON;
        s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
        s.workload = WorkloadSpec {
            size_range_kb: (2_000.0, 3_000.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        };
        let mut arrivals = vec![u64::MAX; pool];
        for (i, a) in arrivals.iter_mut().take(DUE).enumerate() {
            *a = 1 + i as u64;
        }
        s.arrivals = ArrivalSpec::Declared {
            arrivals,
            departures: Vec::new(),
        };
        s.admission = Some(AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 3,
        });
        let mut rec = TraceRecorder::new().with_live_counts();
        let mut driver = s.driver(&mut rec, None).expect("valid scenario");
        let mut ruled = Vec::new();
        while driver.step(&mut rec).is_some() {
            ruled.push(driver.last_slot_work().candidates_ruled);
        }
        let folded = driver.rows_to_fold();
        let r = driver.finish(&mut rec);
        let trace = rec.into_trace(&r.scheduler);
        let count = |d| {
            (trace.records.iter())
                .flat_map(|rec| &rec.adm)
                .filter(|a| a.decision == d)
                .count()
        };
        let decisions = [
            count(AdmissionDecision::Admit),
            count(AdmissionDecision::Defer),
            count(AdmissionDecision::Reject),
        ];
        (ruled, folded, decisions)
    };
    let (small, large) = (run(2_000), run(50_000));
    assert_eq!(small, large, "rulings or folded rows differ between pools");
    let (ruled, folded, [admits, defers, rejects]) = small;
    assert!(
        admits > 0 && defers > 0 && rejects > 0,
        "{admits}/{defers}/{rejects}"
    );
    assert_eq!(ruled.iter().sum::<usize>(), admits + defers + rejects);
    assert!(ruled.iter().all(|&n| n <= DUE), "{ruled:?}");
    // Nobody arrives at slot 0, so the users who went live are the
    // admits (the last tick's, if any, would go live past the horizon).
    assert!(
        (rejects..=admits + rejects).contains(&folded),
        "{folded} rows folded, {admits} admits, {rejects} rejects"
    );
}

/// The tick's decision work follows its admits, not its waiting room:
/// the same congested plan — a session due every slot for the first 200
/// slots, room for about two at a time — under deferral caps of 30 and
/// 300. The longer cap keeps more users waiting, so the tick rules on
/// far more candidates, yet in every slot it evaluates the admission
/// rule at most `(admits + 1)·(2⌈log₂ n⌉ + 2)` times.
#[test]
fn admission_evaluations_follow_the_admits_not_the_waiting_room() {
    const POOL: usize = 2_000;
    const DUE: usize = 200;
    let run = |max_defer_slots: u64| {
        let mut s = Scenario::paper_default(POOL);
        s.slots = 400;
        s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
        s.workload = WorkloadSpec {
            size_range_kb: (2_000.0, 3_000.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        };
        let mut arrivals = vec![u64::MAX; POOL];
        for (i, a) in arrivals.iter_mut().take(DUE).enumerate() {
            *a = 1 + i as u64;
        }
        s.arrivals = ArrivalSpec::Declared {
            arrivals,
            departures: Vec::new(),
        };
        s.admission = Some(AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots,
        });
        let mut rec = TraceRecorder::new();
        let mut driver = s.driver(&mut rec, None).expect("valid scenario");
        let mut work = Vec::new();
        while let Some(slot) = driver.step(&mut rec) {
            work.push((slot, driver.last_slot_work()));
        }
        let r = driver.finish(&mut rec);
        let trace = rec.into_trace(&r.scheduler);
        let mut admits = vec![0usize; work.len()];
        for record in &trace.records {
            let n = (record.adm.iter())
                .filter(|a| a.decision == AdmissionDecision::Admit)
                .count();
            admits[record.slot as usize] += n;
        }
        (work, admits)
    };
    let per_search = 2 * (POOL as f64).log2().ceil() as usize + 2;
    let mut ruled = Vec::new();
    for max_defer_slots in [30, 300] {
        let (work, admits) = run(max_defer_slots);
        for (slot, w) in &work {
            let bound = (admits[*slot as usize] + 1) * per_search;
            assert!(
                w.admission_evaluations <= bound,
                "slot {slot}: {} evaluations, bound {bound} (cap {max_defer_slots})",
                w.admission_evaluations
            );
        }
        assert!(work.iter().any(|(_, w)| w.admission_evaluations > 0));
        ruled.push(work.iter().map(|(_, w)| w.candidates_ruled).sum::<usize>());
    }
    assert!(ruled[1] > 3 * ruled[0], "candidates ruled: {ruled:?}");
}
