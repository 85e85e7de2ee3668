//! PR 7 arrival-process edge cases, pinned at both layers: what the
//! compiled [`ChurnPlan`] says, and what the engine actually does with
//! it.
//!
//! * A vanishing-rate Poisson process (huge mean interval) compiles to
//!   an all-past-horizon plan and the run delivers nothing.
//! * A declared session truncating exactly at the horizon is
//!   bit-identical to one that never departs — slot `Γ` is outside the
//!   `0..Γ` loop, so the departure can never fire.
//! * An arrival landing exactly on its departure slot (only reachable by
//!   a [`FaultEvent::LateArrival`] delaying a declared arrival onto it —
//!   direct declaration is rejected by validation) means the user is
//!   never live: the session is cancelled in the same slot it starts.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    ArrivalSpec, CapacitySpec, FaultEvent, FaultSpec, Scenario, SimResult, TraceRecorder,
    WorkloadSpec, NEVER_DEPARTS,
};

fn base(n_users: usize, slots: u64) -> Scenario {
    let mut s = Scenario::paper_default(n_users);
    s.slots = slots;
    s.capacity = CapacitySpec::Constant { kbps: 2_000.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 4_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s
}

fn traced(s: &Scenario) -> (SimResult, String) {
    let mut rec = TraceRecorder::new().with_live_counts();
    let mut r = s.run_with(&mut rec).expect("valid scenario runs");
    let trace = rec.into_trace(&r.scheduler);
    if let Some(t) = r.telemetry.as_mut() {
        // Wall-clock latency quantiles are the one nondeterministic
        // field; everything else must match bit-for-bit.
        t.sched_ns_p50 = 0;
        t.sched_ns_p95 = 0;
        t.sched_ns_p99 = 0;
        t.sched_ns_max = 0;
    }
    (r, trace.to_jsonl())
}

/// A Poisson process with a mean interval far beyond the horizon is the
/// legal spelling of "zero arrival rate" (a literal zero mean is
/// rejected by validation). The compiled plan puts every arrival past
/// the horizon and the engine runs an empty system to the end.
#[test]
fn zero_rate_poisson_compiles_empty_and_runs_empty() {
    let mut s = base(4, 150);
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 1e7,
        diurnal: None,
        session_slots: None,
    };
    s.validate().expect("vanishing-rate Poisson is legal");

    // Plan layer: nobody ever shows up inside the horizon.
    let plan = s.arrivals.compile(s.n_users, s.seed);
    assert_eq!(plan.arrivals.len(), s.n_users);
    for (i, &a) in plan.arrivals.iter().enumerate() {
        assert!(a >= s.slots, "user {i} arrives at {a}, inside the horizon");
    }
    assert!(!plan.any_departures());

    // Engine layer: the run covers the whole horizon but no user ever
    // goes live — nothing fetched, watched, stalled, or transmitted.
    let r = s.run().expect("empty-system run");
    assert_eq!(r.slots_run, s.slots);
    for (i, u) in r.per_user.iter().enumerate() {
        assert_eq!(u.fetched_kb, 0.0, "user {i} fetched");
        assert_eq!(u.watched_s, 0.0, "user {i} watched");
        assert_eq!(u.rebuffer_s, 0.0, "user {i} stalled");
        assert_eq!(u.tx_slots, 0, "user {i} transmitted");
        assert_eq!(u.active_slots, 0, "user {i} was active");
        assert!(!u.playback_complete, "user {i} completed");
    }
}

/// A declared departure at exactly `slots` can never fire: the slot loop
/// runs `0..slots`, so "truncate at the horizon" and "never depart" are
/// the same execution — results AND trace bytes.
#[test]
fn departure_at_horizon_is_bit_identical_to_never_departing() {
    let slots = 120u64;
    let mut truncated = base(3, slots);
    truncated.arrivals = ArrivalSpec::Declared {
        arrivals: vec![0, 10, 25],
        departures: vec![Some(slots), Some(slots), Some(slots)],
    };
    let mut forever = base(3, slots);
    forever.arrivals = ArrivalSpec::Declared {
        arrivals: vec![0, 10, 25],
        departures: vec![],
    };

    // Plan layer: the declared horizon departure is kept verbatim (it is
    // a real slot number, not NEVER_DEPARTS) — the equivalence is an
    // engine-loop property, not a compile-time rewrite.
    let tp = truncated.arrivals.compile(3, truncated.seed);
    let fp = forever.arrivals.compile(3, forever.seed);
    assert_eq!(tp.arrivals, fp.arrivals);
    assert_eq!(tp.departures, vec![slots; 3]);
    assert_eq!(fp.departures, vec![NEVER_DEPARTS; 3]);

    let (rt, trace_t) = traced(&truncated);
    let (rf, trace_f) = traced(&forever);
    assert_eq!(rt, rf, "results diverged");
    assert_eq!(trace_t, trace_f, "trace bytes diverged");
}

/// Arrival slot == departure slot: validation rejects declaring it
/// directly, but a `LateArrival` fault can delay a declared arrival onto
/// its own departure. The user then "arrives" into an already-ended
/// session — cancelled on its first slot, never fetching or watching.
#[test]
fn arrival_on_departure_slot_means_user_is_never_live() {
    let slots = 100u64;

    // Direct declaration is a validation error.
    let mut direct = base(2, slots);
    direct.arrivals = ArrivalSpec::Declared {
        arrivals: vec![10, 0],
        departures: vec![Some(10), None],
    };
    let msg = direct.run().expect_err("must be rejected").to_string();
    assert!(msg.contains("arrivals"), "{msg}");

    // The fault path reaches the same slot numbers legally: arrival 5 +
    // delay 5 == departure 10.
    let mut s = base(2, slots);
    s.arrivals = ArrivalSpec::Declared {
        arrivals: vec![5, 0],
        departures: vec![Some(10), None],
    };
    s.faults = FaultSpec::Declared {
        events: vec![FaultEvent::LateArrival {
            user: 0,
            delay_slots: 5,
        }],
    };
    s.validate().expect("fault-delayed overlap is legal");

    let r = s.run().expect("run");
    // The run ends as soon as the cancelled session and the co-resident
    // stream both finish — well before the horizon.
    assert!(r.slots_run > 10, "run must cover the fatal arrival slot");
    let u0 = &r.per_user[0];
    assert_eq!(
        u0.fetched_kb, 0.0,
        "user 0 fetched despite arriving at departure"
    );
    assert_eq!(
        u0.watched_s, 0.0,
        "user 0 watched despite arriving at departure"
    );
    assert_eq!(u0.rebuffer_s, 0.0, "user 0 accrued rebuffering");
    assert_eq!(u0.tx_slots, 0, "user 0 was granted airtime");
    // `abandon()` truncates the playback target to the seconds already
    // watched, so a user cancelled at zero reads as "complete" — the
    // churn convention (departing is not a stall), pinned here.
    assert!(u0.playback_complete);
    // The co-resident user is unaffected: it still streams its whole
    // session.
    let u1 = &r.per_user[1];
    assert!(u1.fetched_kb > 0.0, "user 1 should stream normally");
    assert!(u1.watched_s > 0.0);
}

/// A live declared rate is refused unless it is positive and finite, and
/// a refused rate leaves the schedule as it was.
#[test]
fn a_live_declared_rate_must_be_positive_and_finite() {
    let s = base(2, 40);
    let mut rec = TraceRecorder::new();
    let mut driver = s.driver(&mut rec, None).expect("driver");
    let sidecar = |driver: &jmso_sim::SlotDriver, rec: &TraceRecorder| {
        driver.checkpoint(rec).unwrap().to_json().unwrap()
    };
    let before = sidecar(&driver, &rec);
    for (kbps, why) in [
        (f64::INFINITY, "rate must be finite"),
        (f64::NEG_INFINITY, "rate must be positive"),
        (f64::NAN, "rate must be positive"),
        (0.0, "rate must be positive"),
    ] {
        let err = driver.set_declared_rate(1, kbps).expect_err("refused");
        assert!(err.to_string().contains(why), "{kbps}: {err}");
    }
    assert_eq!(sidecar(&driver, &rec), before, "nothing was declared");
    driver.set_declared_rate(1, 450.0).expect("a finite rate");
    assert_ne!(sidecar(&driver, &rec), before);
}
