//! An out-of-range scheduler parameter is invalid input, not a panic: a
//! `ScenarioError` on field `scheduler`, and exit 2 from `jmso-sim run`.

use jmso_sim::{Scenario, SchedulerSpec, SimError};

/// One out-of-range parameter for each variant whose constructor asserts,
/// and a zero-slot amortization horizon, which would price an idle slot
/// at 0/0.
const BAD: [&str; 8] = [
    r#"{"kind":"ema","v":0}"#,
    r#"{"kind":"ema","v":1,"pc_clamp":-1}"#,
    r#"{"kind":"ema","v":1,"tail":{"kind":"amortized","horizon_slots":0}}"#,
    r#"{"kind":"throttling","kappa":-1}"#,
    r#"{"kind":"on_off","low_s":40,"high_s":10}"#,
    r#"{"kind":"salsa","theta":1,"buffer_floor_s":3,"ewma_alpha":1.5}"#,
    r#"{"kind":"e_streamer","refill_s":5,"target_s":5}"#,
    r#"{"kind":"proportional_fair","ewma_alpha":0}"#,
];

fn cell(spec: SchedulerSpec) -> Scenario {
    let mut s = Scenario::paper_default(4).with_scheduler(spec);
    s.slots = 20;
    s
}

fn rejects(spec: SchedulerSpec) {
    let err = cell(spec.clone()).run().err();
    let field = matches!(&err, Some(SimError::Scenario(e)) if e.field == "scheduler");
    assert!(field, "{spec:?}: {err:?}");
}

#[test]
fn out_of_range_scheduler_parameters_are_invalid_input() {
    let path = std::env::temp_dir().join(format!("jmso-bad-sched-{}.json", std::process::id()));
    for bad in BAD {
        let spec: SchedulerSpec = serde_json::from_str(bad).expect("parses");
        rejects(spec.clone());
        let json = serde_json::to_string(&cell(spec)).expect("serializes");
        std::fs::write(&path, json).expect("writes scenario");
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_jmso-sim"))
            .arg("run")
            .arg(&path)
            .output()
            .expect("jmso-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains("error: scheduler "), "{bad}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
    // NaN, which a scenario file cannot spell, fails every rule too. A
    // NaN Φ would make Eq. (12)'s threshold NaN, which admits no signal.
    rejects(SchedulerSpec::ema(f64::NAN));
    rejects(SchedulerSpec::rtma(f64::NAN));
    rejects(SchedulerSpec::Throttling { kappa: f64::NAN });
}

/// EMA has one kind and no solver knob: the retired `ema_fast` kind gets
/// the derive's unknown-variant error, and a `reference_dp` key is
/// skipped like any unknown key.
#[test]
fn retired_ema_spellings_are_refused_or_skipped() {
    let err = serde_json::from_str::<SchedulerSpec>(r#"{"kind":"ema_fast","v":2}"#)
        .expect_err("ema_fast is no kind");
    assert!(err.to_string().contains("unknown variant"), "{err}");
    let spec: SchedulerSpec =
        serde_json::from_str(r#"{"kind":"ema","v":1.0,"reference_dp":true}"#).expect("parses");
    assert_eq!(spec, SchedulerSpec::ema(1.0));
}
