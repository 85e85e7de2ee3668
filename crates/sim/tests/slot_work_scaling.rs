//! A slot costs the sessions in the cell, not the pool they came from.
//!
//! The same declared arrival plan — six sessions staggered over the
//! first fifteen slots, each twelve slots long — runs on a 2 000-user
//! pool and on a 50 000-user pool whose extra users never arrive. After
//! slot 0 (whose first ingest drains every flow of an infinite origin,
//! and whose first snapshot is the full pass) the Data Receiver and the
//! scheduler must visit exactly the same number of rows per slot on
//! both pools: the work counts are deterministic, so this is an exact
//! equality, not a timing.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{AdmissionSpec, ArrivalSpec, NullRecorder, Scenario, SlotWork};

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
        // Slot 0 is the one pool-wide pass.
        assert_eq!(small[0].receiver_flows, 2_000);
        assert_eq!(large[0].receiver_flows, 50_000);
        assert_eq!(
            small[1..],
            large[1..],
            "per-slot work differs between pools (admission: {admission})"
        );
        // And it is the plan's work: nothing left for the receiver, at
        // most the four overlapping sessions (plus tails still draining)
        // for the scheduler, none once the last tail has drained.
        for w in &small[1..] {
            assert_eq!(w.receiver_flows, 0);
            assert!(w.scheduler_rows <= SESSIONS, "{w:?}");
        }
        assert!(small[1..20].iter().all(|w| w.scheduler_rows > 0));
        assert_eq!(small[HORIZON as usize - 1].scheduler_rows, 0);
    }
}
