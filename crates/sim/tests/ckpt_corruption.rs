//! Checkpoint corruption pack: damaged sidecars must surface typed
//! [`CheckpointError`]s — truncated payloads, torn writes that left only
//! the `.tmp` sibling, version skew, and cross-scenario restores all
//! fail loudly and never panic. The live service leans on these
//! contracts to fall back to a cold start instead of crash-looping.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_sim::{
    AbrSpec, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec, FaultSpec, SessionLength,
};
use jmso_sim::{CheckpointError, EngineCheckpoint, RunOutcome, Scenario, SimError, TraceRecorder};
use jmso_sim::{TailPricing, WorkloadSpec};
use std::path::PathBuf;

fn quick(n: usize) -> Scenario {
    let mut s = Scenario::paper_default(n);
    s.slots = 120;
    // Sessions big enough that the run is still mid-flight at the
    // pause slots the tests use.
    s.workload = WorkloadSpec {
        size_range_kb: (20_000.0, 40_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s
}

fn tmp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("jmso-ckpt-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Pause a real run mid-flight and hand back the checkpoint.
fn make_checkpoint(s: &Scenario, pause: u64) -> EngineCheckpoint {
    let mut rec = TraceRecorder::new();
    match s.run_until(&mut rec, pause).expect("valid scenario runs") {
        RunOutcome::Paused(ck) => *ck,
        RunOutcome::Done(_) => panic!("run finished before the pause slot"),
    }
}

#[test]
fn truncated_sidecar_is_corrupt_not_panic() {
    let s = quick(4);
    let ck = make_checkpoint(&s, 10);
    let path = tmp_path("truncated.json");
    ck.write_file(&path).expect("write checkpoint");

    let full = std::fs::read_to_string(&path).expect("read back");
    assert!(full.len() > 32, "sidecar unexpectedly small");
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");

    match EngineCheckpoint::read_file(&path) {
        Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_sidecar_is_corrupt_not_panic() {
    let path = tmp_path("garbage.json");
    std::fs::write(&path, "{ this is not a checkpoint").expect("plant garbage");
    match EngineCheckpoint::read_file(&path) {
        Err(CheckpointError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Binary (non-UTF-8) garbage fails one layer earlier, as a typed
    // Io(InvalidData) — still no panic, still recoverable.
    std::fs::write(&path, b"\x00\xffnot json at all").expect("plant binary garbage");
    match EngineCheckpoint::read_file(&path) {
        Err(CheckpointError::Io { source, .. }) => {
            assert_eq!(source.kind(), std::io::ErrorKind::InvalidData);
        }
        other => panic!("expected Io(InvalidData), got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A crash between the `.tmp` write and the rename leaves only the
/// sibling: the real path reads as a typed Io(NotFound), and the
/// half-written sibling never shadows it.
#[test]
fn torn_write_tmp_only_is_io_not_panic() {
    let s = quick(4);
    let ck = make_checkpoint(&s, 10);
    let path = tmp_path("torn.json");
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let json = ck.to_json().expect("serialize");
    std::fs::write(&tmp, &json.as_bytes()[..json.len() / 2]).expect("plant torn tmp");

    match EngineCheckpoint::read_file(&path) {
        Err(CheckpointError::Io { source, .. }) => {
            assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
        }
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn version_skew_is_corrupt_with_diagnostic() {
    let s = quick(4);
    let ck = make_checkpoint(&s, 10);
    let json = ck.to_json().expect("serialize");
    assert!(
        json.contains("\"version\":4"),
        "test assumes CKPT v4 sidecars; update the replacements below"
    );
    for bogus in ["99", "3", "2", "1", "0"] {
        let skewed = json.replacen("\"version\":4", &format!("\"version\":{bogus}"), 1);
        match EngineCheckpoint::from_json(&skewed) {
            Err(CheckpointError::Corrupt { reason }) => {
                assert!(
                    reason.contains("version"),
                    "diagnostic should name the version, got: {reason}"
                );
            }
            other => panic!("expected Corrupt for version {bogus}, got {other:?}"),
        }
    }
}

/// A checkpoint from a different scenario shape must be refused by the
/// restoring component with a typed Restore error, not a panic or a
/// silently wrong resume.
#[test]
fn cross_scenario_restore_is_typed_refusal() {
    let ck = make_checkpoint(&quick(4), 10);
    let other = quick(6);
    let mut rec = TraceRecorder::new();
    match other.resume_from(&mut rec, &ck) {
        Err(SimError::Checkpoint(CheckpointError::Restore { component, .. })) => {
            assert!(!component.is_empty());
        }
        Err(e) => panic!("expected a Restore refusal, got {e:?}"),
        Ok(_) => panic!("mismatched restore must not succeed"),
    }
}

/// A recorder state whose latency histogram lost a bin is refused by the
/// recorder's restore — a typed error, not an index panic.
#[test]
fn short_latency_histogram_is_typed_refusal() {
    let s = quick(4);
    let json = make_checkpoint(&s, 10).to_json().expect("serialize");
    let bins = r#"\"counts\":[0,"#;
    assert!(json.contains(bins), "test assumes an empty first bin");
    let ck = EngineCheckpoint::from_json(&json.replacen(bins, r#"\"counts\":["#, 1))
        .expect("the sidecar itself still parses");
    match s.resume_from(&mut TraceRecorder::new(), &ck) {
        Err(SimError::Checkpoint(CheckpointError::Restore { component, reason })) => {
            assert_eq!(component, "recorder");
            assert!(reason.contains("64 elements, got 63"), "{reason}");
        }
        Err(e) => panic!("expected a Restore refusal, got {e:?}"),
        Ok(_) => panic!("a 63-bin histogram must not restore"),
    }
}

/// Round-trip sanity: the same sidecar that the corruption cases mangle
/// is, untouched, perfectly readable — so the negative tests above fail
/// for the right reason.
#[test]
fn pristine_sidecar_round_trips() {
    let s = quick(4).with_scheduler(jmso_sim::SchedulerSpec::Ema {
        v: 200.0,
        tail: TailPricing::default(),
        pc_clamp: None,
    });
    let ck = make_checkpoint(&s, 10);
    let path = tmp_path("pristine.json");
    ck.write_file(&path).expect("write checkpoint");
    let back = EngineCheckpoint::read_file(&path).expect("read back");
    assert_eq!(back.slot(), ck.slot());
    let _ = std::fs::remove_file(&path);
}

/// Whole-sidecar byte check: print → parse → print is a fixed point on
/// the richest checkpoint the engine writes — an open-system run paused
/// mid-flight with ABR clients, a feasibility admission controller
/// holding deferrals, a fault plan and a live-count recorder, so the
/// tagged bitrate enum, every `skip_serializing_if` field in its present
/// form and the nested recorder string all pass through the streaming
/// printer and back.
#[test]
fn rich_sidecar_json_is_a_fixed_point() {
    let mut s = Scenario::paper_default(24);
    s.slots = 240;
    s.seed = 7;
    s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 3_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 2.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 20.0 }),
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        ..AbrSpec::single_rung()
    });
    s.faults = FaultSpec::Generated {
        seed: 11,
        n_events: 4,
    };
    let mut rec = TraceRecorder::new().with_live_counts();
    let ck = match s.run_until(&mut rec, 30).expect("valid scenario runs") {
        RunOutcome::Paused(ck) => *ck,
        RunOutcome::Done(_) => panic!("run finished before the pause slot"),
    };
    let first = ck.to_json().expect("serialize");
    for section in [
        "\"admission\":{",
        "\"abr\":{",
        "\"recorder\":\"{",
        "\"kind\":",
    ] {
        assert!(first.contains(section), "sidecar lacks {section}");
    }
    let back = EngineCheckpoint::from_json(&first).expect("parse");
    assert_eq!(back.to_json().expect("serialize again"), first);
}

/// A sidecar taken after the first slot carries every user's reported
/// row. One that lost a row — here under a collector that holds reports,
/// whose rows a resumed run cannot rebuild from ground truth — is a
/// typed refusal, not a resume that quietly starts the collector over.
#[test]
fn short_snapshot_rows_are_typed_refusal() {
    let mut s = quick(4);
    s.collector.staleness_slots = 3;
    let json = make_checkpoint(&s, 10).to_json().expect("serialize");
    // Cut the last row out of the snapshot array.
    let open = json.find("\"snapshots\":[").expect("rows present") + "\"snapshots\":[".len();
    let (mut depth, mut last_comma, mut close) = (0i32, None, None);
    for (k, b) in json[open..].bytes().enumerate() {
        match b {
            b'{' | b'[' => depth += 1,
            b'}' => depth -= 1,
            b']' if depth == 0 => {
                close = Some(open + k);
                break;
            }
            b']' => depth -= 1,
            b',' if depth == 0 => last_comma = Some(open + k),
            _ => {}
        }
    }
    let (cut, close) = (last_comma.expect("four rows"), close.expect("closed"));
    let short = format!("{}{}", &json[..cut], &json[close..]);
    let ck = EngineCheckpoint::from_json(&short).expect("the sidecar itself still parses");
    match s.resume_from(&mut TraceRecorder::new(), &ck) {
        Err(SimError::Checkpoint(CheckpointError::Restore { component, reason })) => {
            assert_eq!(component, "loop state");
            assert!(reason.contains("3 snapshot rows"), "{reason}");
        }
        Err(e) => panic!("expected a Restore refusal, got {e:?}"),
        Ok(_) => panic!("a sidecar missing a row must not resume"),
    }
    // The untouched sidecar resumes.
    let ck = EngineCheckpoint::from_json(&json).expect("parse");
    s.resume_from(&mut TraceRecorder::new(), &ck)
        .expect("the full sidecar resumes");
}

/// An open cell under feasibility admission whose waits outlast the
/// pause slots below: arrivals every other slot into room for about two
/// sessions, deferred for up to 300 slots.
fn waiting_room_scenario() -> Scenario {
    let mut s = Scenario::paper_default(24);
    s.slots = 240;
    s.seed = 7;
    s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 3_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 2.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 20.0 }),
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 300,
    });
    s
}

/// Resume `json` and require the admission controller's typed refusal;
/// its reason is returned.
fn admission_refusal(s: &Scenario, json: &str) -> String {
    let ck = EngineCheckpoint::from_json(json).expect("the sidecar itself still parses");
    match s.resume_from(&mut TraceRecorder::new(), &ck) {
        Err(SimError::Checkpoint(CheckpointError::Restore { component, reason })) => {
            assert_eq!(component, "admission", "{reason}");
            reason
        }
        Err(e) => panic!("expected an admission refusal, got {e:?}"),
        Ok(_) => panic!("the damaged sidecar must not resume"),
    }
}

/// A v4 sidecar carries the admission tick's running aggregates; one
/// that lost `n_active` does not parse, rather than quietly resuming on
/// a rescan.
#[test]
fn v4_sidecar_without_admission_aggregates_is_typed_refusal() {
    let s = waiting_room_scenario();
    let json = make_checkpoint(&s, 30).to_json().expect("serialize");
    let key = "\"n_active\":";
    let at = json.find(key).expect("a v4 sidecar carries n_active");
    let end = at + json[at..].find(',').expect("rate_sum follows");
    let stripped = format!("{}{}", &json[..at], &json[end + 1..]);
    assert!(!stripped.contains(key) && stripped.contains("\"rate_sum\":"));
    match EngineCheckpoint::from_json(&stripped) {
        Err(CheckpointError::Corrupt { reason }) => {
            assert!(reason.contains("n_active"), "{reason}");
        }
        other => panic!("expected Corrupt naming n_active, got {other:?}"),
    }
    // The untouched sidecar resumes.
    let ck = EngineCheckpoint::from_json(&json).expect("parse");
    s.resume_from(&mut TraceRecorder::new(), &ck)
        .expect("the full sidecar resumes");
}

/// A pending user's deferral count places their wait: it must be one the
/// checkpoint's tick could have left — none for a user not yet due, at
/// most the cap (and at most the arrival slot) for one it deferred to
/// the next slot. Anything else is a typed refusal, never an underflow.
#[test]
fn inconsistent_defer_counts_are_typed_refusal() {
    const PAUSE: u64 = 30;
    let s = waiting_room_scenario();
    let json = make_checkpoint(&s, PAUSE).to_json().expect("serialize");
    let arrivals: Vec<u64> = json
        .split("\"arrival_slot\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("an arrival slot")
        })
        .collect();
    assert_eq!(arrivals.len(), 24);
    let key = "\"defer_counts\":[";
    let open = json.find(key).expect("admission state present") + key.len();
    let close = open + json[open..].find(']').expect("closed");
    let counts: Vec<u64> = (json[open..close].split(','))
        .map(|c| c.parse().expect("a count"))
        .collect();
    let with_count = |user: usize, count: u64| {
        let mut counts = counts.clone();
        counts[user] = count;
        let list: Vec<String> = counts.iter().map(u64::to_string).collect();
        format!("{}{}{}", &json[..open], list.join(","), &json[close..])
    };
    // A user the tick deferred to the next slot, and one not yet due.
    let deferred = (0..24)
        .find(|&i| arrivals[i] == PAUSE + 1 && counts[i] > 0)
        .expect("the pause catches a deferred user");
    let planned = (0..24)
        .find(|&i| arrivals[i] > PAUSE + 1 && arrivals[i] != u64::MAX)
        .expect("a user not yet due");
    // Over the cap; above the arrival slot; deferred but not due next.
    for (user, count) in [(deferred, 301), (deferred, PAUSE + 2), (planned, 1)] {
        let reason = admission_refusal(&s, &with_count(user, count));
        assert!(reason.contains(&format!("user {user},")), "{reason}");
    }
    // A tally that lacks the pending users' deferrals: the restored wait
    // would take them back out of it.
    let tally = close + json[close..].find("\"deferrals\":").expect("the tally");
    let digits = json[tally + 12..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("ends");
    let no_tally = format!(
        "{}\"deferrals\":0{}",
        &json[..tally],
        &json[tally + 12 + digits..]
    );
    let reason = admission_refusal(&s, &no_tally);
    assert!(reason.contains("the tally only 0"), "{reason}");
    // The counts as written resume.
    let ck = EngineCheckpoint::from_json(&with_count(deferred, counts[deferred])).expect("parse");
    s.resume_from(&mut TraceRecorder::new(), &ck)
        .expect("consistent counts resume");
}
