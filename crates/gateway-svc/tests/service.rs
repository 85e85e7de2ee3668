//! Integration tests for the live gateway service: live ≡ batch byte
//! identity under `Stall`, crash recovery through the supervisor and
//! through every state the sidecar + spool pair can be found in, the
//! persist thread's ordering (what is durable when, what is joined where),
//! deadline-overrun policies that never stall the loop, paced records
//! that reach a subscriber before the next slot, dropped slots that reach
//! the spool only, slow-subscriber eviction (by bytes, over a socket too), corrupt-checkpoint cold starts, the `done` event reaching
//! a socket subscriber, a deeply nested hostile line, the `template`
//! feed fitting the line cap, feed streams that apply at one boundary
//! once committed and not at all when abandoned, and `status` answered
//! from the published snapshot without waiting for the slot loop.

// The helper functions of an integration test are test code too, but
// clippy.toml's in-test exemption only reaches `#[test]` functions.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use jmso_gateway::{
    parse_command, GwCommand, GwStatus, LiveEvent, ProtocolError, SvcState, MAX_LINE_BYTES,
};
use jmso_gateway_svc::{
    feed_stream, handle_connection, supervise, Command, CommandBus, FanOut, LivePolicy,
    LiveService, Outcome, ServeConfig, Subscription, SupervisedEnd, SupervisorConfig,
};
use jmso_sim::{
    ArrivalSpec, CheckpointError, EngineCheckpoint, RunOutcome, Scenario, SchedulerSpec, SimError,
    TraceRecorder, WorkloadSpec,
};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn quick(n: usize, slots: u64) -> Scenario {
    let mut s = Scenario::paper_default(n);
    s.slots = slots;
    s.workload = WorkloadSpec {
        size_range_kb: (500.0, 1500.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s
}

/// The session schedule both sides share: staggered arrivals, user 0
/// departs mid-run.
fn schedule(n: usize, slots: u64) -> (Vec<u64>, Vec<Option<u64>>) {
    let arrivals: Vec<u64> = (0..n as u64).map(|i| i * 7).collect();
    let mut departures = vec![None; n];
    departures[0] = Some(slots / 2);
    (arrivals, departures)
}

fn feed_events(arrivals: &[u64], departures: &[Option<u64>]) -> Vec<LiveEvent> {
    let mut evs: Vec<LiveEvent> = arrivals
        .iter()
        .enumerate()
        .map(|(user, &slot)| LiveEvent::Arrive {
            user,
            slot,
            request: None,
        })
        .collect();
    evs.extend(
        departures
            .iter()
            .enumerate()
            .filter_map(|(user, d)| d.map(|slot| LiveEvent::Depart { user, slot })),
    );
    evs
}

fn tmp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("jmso-gw-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// A `feed` of events already in hand: sent through the same stream a
/// socket line's events take, then committed.
fn feed(events: Vec<LiveEvent>, reply: SyncSender<Result<(), ProtocolError>>) -> Command {
    let (tx, stream) = feed_stream();
    tx.commit(events);
    Command::Feed {
        events: stream,
        reply,
    }
}

/// Queue a feed + start ahead of the run; the holding loop drains them.
fn preload_feed(bus: &CommandBus, events: Vec<LiveEvent>) {
    let (tx, _rx) = sync_channel(1);
    bus.push(feed(events, tx)).expect("queue feed");
    let (tx, _rx) = sync_channel(1);
    bus.push(Command::Start { reply: tx }).expect("queue start");
}

fn run_service(cfg: ServeConfig, bus: Arc<CommandBus>, fanout: Arc<FanOut>) -> Outcome {
    let shutdown = Arc::new(AtomicBool::new(false));
    let svc = LiveService::build(cfg, bus, fanout, shutdown, 0).expect("build service");
    svc.run().expect("run service")
}

fn golden_batch_trace(n: usize, slots: u64, path: &std::path::Path) {
    let (arrivals, departures) = schedule(n, slots);
    let mut batch = quick(n, slots);
    batch.arrivals = ArrivalSpec::Declared {
        arrivals,
        departures,
    };
    let (_result, trace) = batch.run_traced(1).expect("batch run");
    trace.write_jsonl(path).expect("write golden");
}

/// Tentpole determinism claim: a scripted live-ingest run under `Stall`
/// writes the exact bytes of the equivalent batch run with a declared
/// arrival plan.
#[test]
fn live_stall_trace_matches_batch_bytes() {
    let (n, slots) = (4, 240);
    let golden = tmp_path("stall-golden.jsonl");
    golden_batch_trace(n, slots, &golden);

    let live_trace = tmp_path("stall-live.jsonl");
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    cfg.trace_path = Some(live_trace.clone());

    let bus = Arc::new(CommandBus::new(16));
    let (arrivals, departures) = schedule(n, slots);
    preload_feed(&bus, feed_events(&arrivals, &departures));
    let outcome = run_service(cfg, bus, Arc::new(FanOut::new()));
    assert!(matches!(outcome, Outcome::Done { .. }));

    let got = std::fs::read(&live_trace).expect("read live trace");
    let want = std::fs::read(&golden).expect("read golden trace");
    assert!(!want.is_empty());
    assert_eq!(
        got, want,
        "live Stall trace must be byte-identical to batch"
    );
    let _ = std::fs::remove_file(&golden);
    let _ = std::fs::remove_file(&live_trace);
}

/// Crash recovery: the engine task panics mid-run (attempt 0 only), the
/// supervisor restarts it, the restart resumes from the periodic
/// checkpoint, and the final trace still matches the uninterrupted
/// batch golden byte-for-byte.
#[test]
fn supervised_crash_resume_matches_golden() {
    let (n, slots) = (4, 240);
    let golden = tmp_path("crash-golden.jsonl");
    golden_batch_trace(n, slots, &golden);

    let live_trace = tmp_path("crash-live.jsonl");
    let ckpt = tmp_path("crash-ckpt.json");
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    cfg.trace_path = Some(live_trace.clone());
    cfg.ckpt_path = Some(ckpt.clone());
    // The 4 quick sessions drain by ~slot 24: checkpoint often and
    // crash mid-drain so the restart genuinely resumes.
    cfg.ckpt_every = 8;
    cfg.fail_at = Some(12);

    let bus = Arc::new(CommandBus::new(16));
    let (arrivals, departures) = schedule(n, slots);
    preload_feed(&bus, feed_events(&arrivals, &departures));
    let sup = SupervisorConfig {
        max_restarts: 3,
        backoff_base_ms: 1,
        backoff_max_ms: 5,
    };
    let end = supervise(
        &cfg,
        &sup,
        bus,
        Arc::new(FanOut::new()),
        Arc::new(AtomicBool::new(false)),
    )
    .expect("supervised run");
    match end {
        SupervisedEnd::Finished {
            outcome: Outcome::Done { .. },
            restarts,
        } => assert_eq!(restarts, 1, "exactly one panic recovery expected"),
        other => panic!("unexpected end: {other:?}"),
    }

    let got = std::fs::read(&live_trace).expect("read live trace");
    let want = std::fs::read(&golden).expect("read golden trace");
    assert_eq!(got, want, "resumed trace must equal uninterrupted golden");
    assert!(
        !ckpt.exists(),
        "completion must clear the checkpoint sidecar"
    );
    let _ = std::fs::remove_file(&golden);
    let _ = std::fs::remove_file(&live_trace);
}

/// Every line queued on a subscription; a message may hold several.
fn drain_lines(rx: &Subscription) -> Vec<String> {
    rx.try_iter()
        .flat_map(|m| m.lines().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

/// DropSlots: with a 1ms budget and 5ms of forced work per slot, every
/// slot overruns — the loop must still complete the whole horizon,
/// skipping telemetry (not simulation) for the late slots.
#[test]
fn drop_slots_policy_never_stalls() {
    let mut cfg = ServeConfig::new(quick(3, 60));
    cfg.policy = LivePolicy::DropSlots;
    cfg.slot_ms = Some(1);
    cfg.step_delay_ms = 5;

    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let outcome = run_service(cfg, Arc::new(CommandBus::new(4)), fanout);
    assert!(matches!(outcome, Outcome::Done { slots_run } if slots_run > 0));

    let lines = drain_lines(&rx);
    assert!(
        lines
            .iter()
            .any(|l| l.contains(r#""event":"deadline_overrun"#) && l.contains(r#""action":"drop"#)),
        "expected deadline_overrun events under DropSlots"
    );
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"done"#)),
        "loop must reach completion"
    );
}

/// The slot numbers of the records among `lines`, in order.
fn record_slots(lines: &[String]) -> Vec<u64> {
    lines
        .iter()
        .filter_map(|l| {
            let rest = l.strip_prefix(r#"{"slot":"#)?;
            rest[..rest.find(',')?].parse().ok()
        })
        .collect()
}

/// Sessions that last any horizon these tests run.
fn long_sessions(n: usize, slots: u64) -> Scenario {
    let mut s = quick(n, slots);
    s.workload.size_range_kb = (500_000.0, 800_000.0);
    s
}

/// Paced, the records are not held back for a fuller batch: slot k's
/// record is on the subscription before slot k+1 runs. Holds come in
/// pairs, so once the first is released the loop sits in the second, at
/// the same boundary, with the next slot not yet run.
#[test]
fn paced_records_arrive_before_the_next_slot_runs() {
    let bus = Arc::new(CommandBus::new(8));
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let mut cfg = ServeConfig::new(long_sessions(3, 240));
    cfg.slot_ms = Some(1);
    let pair = |bus: &CommandBus| (hold_at_a_boundary(bus), hold_at_a_boundary(bus));
    let mut held = pair(&bus);
    let service = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || run_service(cfg, bus, fanout))
    };
    let mut seen = Vec::new();
    for boundary in 0..12 {
        let (first, second) = held;
        assert_eq!(first.release(), boundary);
        seen.extend(record_slots(&drain_lines(&rx)));
        assert_eq!(seen, (0..boundary).collect::<Vec<_>>(), "at {boundary}");
        held = pair(&bus);
        assert_eq!(second.release(), boundary);
    }
    let (first, second) = held;
    assert_eq!((first.release(), second.release()), (12, 12));
    let Outcome::Done { slots_run } = service.join().expect("service") else {
        panic!("the run completes");
    };
    seen.extend(record_slots(&drain_lines(&rx)));
    assert_eq!(seen, (0..slots_run).collect::<Vec<_>>());
}

/// DropSlots: a dropped slot's record still goes to the spool — the
/// final trace is the batch run's, every record in slot order — and
/// never to a subscriber, who gets every record of a slot not dropped.
/// 3 ms of work in a 2 ms budget: lateness grows until a slot is more
/// than a budget late and dropped, and the slot after it runs on time.
#[test]
fn dropped_slots_reach_the_spool_and_no_subscriber() {
    let (n, slots) = (3, 90);
    let golden = tmp_path("dropped-golden.jsonl");
    let (_, trace) = long_sessions(n, slots).run_traced(1).expect("batch run");
    trace.write_jsonl(&golden).expect("write golden");

    let live_trace = tmp_path("dropped-live.jsonl");
    let mut cfg = ServeConfig::new(long_sessions(n, slots));
    cfg.policy = LivePolicy::DropSlots;
    cfg.slot_ms = Some(2);
    cfg.step_delay_ms = 3;
    cfg.trace_path = Some(live_trace.clone());
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let outcome = run_service(cfg, Arc::new(CommandBus::new(4)), fanout);
    assert_eq!(outcome, Outcome::Done { slots_run: slots });

    let got = std::fs::read(&live_trace).expect("read live trace");
    let want = std::fs::read(&golden).expect("read golden trace");
    assert!(got == want, "every record, in slot order, as the batch run");
    let lines = drain_lines(&rx);
    let dropped: Vec<u64> = lines
        .iter()
        .filter(|l| l.contains(r#""event":"deadline_overrun""#))
        .filter_map(|l| {
            let rest = l.split(r#""slot":"#).nth(1)?;
            rest[..rest.find(|c: char| !c.is_ascii_digit())?]
                .parse()
                .ok()
        })
        .collect();
    assert!(!dropped.is_empty(), "no slot was dropped");
    let published = record_slots(&lines);
    let expected: Vec<u64> = (0..slots).filter(|s| !dropped.contains(s)).collect();
    assert_eq!(published, expected, "dropped: {dropped:?}");
    let _ = std::fs::remove_file(&golden);
    let _ = std::fs::remove_file(&live_trace);
}

/// Degrade: overruns latch the scheduler into its degraded mode (RTMA →
/// best-effort) and the loop keeps meeting the horizon.
#[test]
fn degrade_policy_engages_scheduler_and_completes() {
    let mut cfg = ServeConfig::new(quick(3, 60).with_scheduler(SchedulerSpec::Rtma {
        phi_mj: 50.0,
        best_effort: false,
    }));
    cfg.policy = LivePolicy::Degrade;
    cfg.slot_ms = Some(1);
    cfg.step_delay_ms = 5;

    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let outcome = run_service(cfg, Arc::new(CommandBus::new(4)), fanout);
    assert!(matches!(outcome, Outcome::Done { slots_run } if slots_run > 0));

    let lines = drain_lines(&rx);
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"degraded"#)),
        "expected a degraded event under Degrade policy"
    );
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"done"#)),
        "loop must reach completion"
    );
}

/// A subscriber that never drains its channel is evicted (and counted)
/// instead of stalling the slot loop.
#[test]
fn slow_subscriber_is_dropped_not_blocking() {
    // Sessions that last the horizon, so the records outgrow the bound.
    let mut scenario = quick(3, 120);
    scenario.workload.size_range_kb = (500_000.0, 800_000.0);
    let mut cfg = ServeConfig::new(scenario);
    cfg.trace_every = 1;

    let fanout = Arc::new(FanOut::new());
    // Capacity 1 (one line's worth of bytes) and never drained: the
    // first message past that evicts it.
    let _stuck = fanout.subscribe(1);
    let outcome = run_service(cfg, Arc::new(CommandBus::new(4)), fanout.clone());
    assert!(matches!(outcome, Outcome::Done { .. }));
    assert!(
        fanout.dropped() >= 1,
        "slow subscriber must be dropped and counted"
    );
    assert_eq!(fanout.len(), 0, "fan-out drained at completion");
}

/// A corrupt checkpoint sidecar must cold-start with a logged warning,
/// never panic, and still complete the run.
#[test]
fn corrupt_checkpoint_cold_starts_with_warning() {
    let ckpt = tmp_path("corrupt-ckpt.json");
    std::fs::write(&ckpt, b"{ this is not a checkpoint").expect("plant corrupt sidecar");

    let mut cfg = ServeConfig::new(quick(3, 60));
    cfg.ckpt_path = Some(ckpt.clone());

    let bus = Arc::new(CommandBus::new(4));
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let svc = LiveService::build(
        cfg,
        bus,
        fanout.clone(),
        Arc::new(AtomicBool::new(false)),
        0,
    )
    .expect("corrupt sidecar must not fail the build");
    let status = svc.status();
    assert!(
        status
            .warnings
            .iter()
            .any(|w| w.contains("checkpoint unusable, cold-started")),
        "expected a cold-start warning, got {:?}",
        status.warnings
    );
    let outcome = svc.run().expect("run after cold start");
    assert!(matches!(outcome, Outcome::Done { .. }));
    let lines = drain_lines(&rx);
    assert!(
        lines.iter().any(|l| l.contains(r#""event":"cold_start"#)),
        "cold_start event must be broadcast"
    );
    assert!(!ckpt.exists(), "completion clears the sidecar");
}

// ---------------------------------------------------------------------------
// The sidecar + spool pair
// ---------------------------------------------------------------------------

/// How a `SlotRecord`'s `alloc` key looks inside a sidecar, where the
/// recorder state is a JSON string within JSON. Recorder state proper
/// has no key of that exact name (`cur_alloc`), so it marks embedded
/// records.
const EMBEDDED_RECORD_KEY: &str = r#"\"alloc\":"#;

fn spool_of(trace: &Path) -> PathBuf {
    PathBuf::from(format!("{}.spool", trace.display()))
}

/// Where `atomic_write` stages the sidecar before its rename.
fn tmp_of(ckpt: &Path) -> PathBuf {
    PathBuf::from(format!("{}.tmp", ckpt.display()))
}

fn sidecar_slot(ckpt: &Path) -> u64 {
    EngineCheckpoint::read_file(ckpt)
        .expect("a readable sidecar")
        .slot()
}

/// The slots of the `checkpoint` events among `lines`, in order.
fn checkpoint_slots<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Vec<u64> {
    lines
        .into_iter()
        .filter_map(|l| {
            let l = l.as_ref();
            let slot = l.strip_prefix(r#"{"event":"checkpoint","slot":"#)?;
            slot.strip_suffix('}')?.parse().ok()
        })
        .collect()
}

fn line_count(path: &Path) -> usize {
    let bytes = std::fs::read(path).expect("read spool");
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// A checkpointed ingest run whose first attempt panicked at slot 12:
/// on disk are the slot-8 sidecar and a spool of the 12 lines emitted
/// before the panic. Returns the config (for the next attempt) and the
/// batch golden's path.
fn crashed_life(tag: &str) -> (ServeConfig, PathBuf) {
    let (n, slots) = (4, 240);
    let golden = tmp_path(&format!("{tag}-golden.jsonl"));
    golden_batch_trace(n, slots, &golden);

    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    cfg.trace_path = Some(tmp_path(&format!("{tag}-live.jsonl")));
    cfg.ckpt_path = Some(tmp_path(&format!("{tag}-ckpt.json")));
    cfg.ckpt_every = 8;
    cfg.fail_at = Some(12);

    let svc = LiveService::build(
        cfg.clone(),
        fed_bus(n, slots),
        Arc::new(FanOut::new()),
        Arc::new(AtomicBool::new(false)),
        0,
    )
    .expect("build attempt 0");
    assert!(
        catch_unwind(AssertUnwindSafe(move || svc.run())).is_err(),
        "attempt 0 panics at the injected slot"
    );

    let trace = cfg.trace_path.as_deref().expect("trace path");
    let ckpt = cfg.ckpt_path.as_deref().expect("ckpt path");
    assert_eq!(line_count(&spool_of(trace)), 12, "one line per slot run");
    // Four slots after its hand-off the slot-8 sidecar may still have
    // been in flight; the unwinding attempt settled it.
    assert_eq!(sidecar_slot(ckpt), 8);
    assert!(
        !tmp_of(ckpt).exists(),
        "no write in flight after the unwind"
    );
    let sidecar = std::fs::read_to_string(ckpt).expect("sidecar");
    assert!(
        !sidecar.contains(EMBEDDED_RECORD_KEY),
        "the sidecar must carry recorder state without records"
    );
    assert!(!trace.exists(), "no trace before completion");
    (cfg, golden)
}

/// A bus with the shared schedule and `start` already queued.
fn fed_bus(n: usize, slots: u64) -> Arc<CommandBus> {
    let bus = Arc::new(CommandBus::new(16));
    let (arrivals, departures) = schedule(n, slots);
    preload_feed(&bus, feed_events(&arrivals, &departures));
    bus
}

/// Run attempt 1 over whatever `crashed_life` (and the test) left on
/// disk; returns the startup warnings and every line a subscriber saw.
fn second_attempt(cfg: &ServeConfig, bus: Arc<CommandBus>) -> (Vec<String>, Vec<String>) {
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let svc = LiveService::build(
        cfg.clone(),
        bus,
        fanout,
        Arc::new(AtomicBool::new(false)),
        1,
    )
    .expect("an unusable pair must not fail the build");
    let warnings = svc.status().warnings;
    let outcome = svc.run().expect("run attempt 1");
    assert!(matches!(outcome, Outcome::Done { .. }));
    (warnings, drain_lines(&rx))
}

fn assert_trace_is_golden_and_pair_is_gone(cfg: &ServeConfig, golden: &Path) {
    let trace = cfg.trace_path.as_deref().expect("trace path");
    let got = std::fs::read(trace).expect("read live trace");
    let want = std::fs::read(golden).expect("read golden trace");
    assert!(got == want, "final trace must equal the batch bytes");
    assert!(!spool_of(trace).exists(), "completion removes the spool");
    let ckpt = cfg.ckpt_path.as_deref().expect("ckpt path");
    assert!(!ckpt.exists(), "completion removes the sidecar");
    let _ = std::fs::remove_file(trace);
    let _ = std::fs::remove_file(golden);
}

/// The spool runs ahead of the sidecar (slots 8..11 were logged after
/// the slot-8 checkpoint): resume keeps the 8 emitted lines, cuts the
/// rest, re-runs and re-appends them.
#[test]
fn resume_cuts_a_longer_spool_back_to_the_checkpoint() {
    let (cfg, golden) = crashed_life("longer");
    let (warnings, lines) = second_attempt(&cfg, Arc::new(CommandBus::new(4)));
    assert!(warnings.is_empty(), "clean resume, got {warnings:?}");
    assert!(lines
        .iter()
        .any(|l| l.contains(r#""event":"resumed","slot":8"#)));
    // Slots 8.. are re-broadcast; slots 0..8 are not re-serialised.
    let first_record = lines.iter().find(|l| l.starts_with("{\"slot\":"));
    assert!(first_record.is_some_and(|l| l.starts_with("{\"slot\":8,")));
    assert_trace_is_golden_and_pair_is_gone(&cfg, &golden);
}

/// A kill -9 mid-`write` leaves half a line at the end of the spool. It
/// lies beyond the checkpoint, so it is cut like any other surplus.
#[test]
fn resume_survives_a_torn_last_line() {
    let (cfg, golden) = crashed_life("torn");
    let spool = spool_of(cfg.trace_path.as_deref().expect("trace path"));
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&spool)
        .expect("open spool");
    f.write_all(b"{\"slot\":12,\"cap\":3").expect("torn tail");
    drop(f);
    let (warnings, _) = second_attempt(&cfg, Arc::new(CommandBus::new(4)));
    assert!(warnings.is_empty(), "clean resume, got {warnings:?}");
    assert_trace_is_golden_and_pair_is_gone(&cfg, &golden);
}

/// A spool that is gone, or torn *before* the checkpoint's count, makes
/// the pair unusable: typed warning, `cold_start` event, a fresh run
/// (which, in ingest mode, holds for a new feed) — never a panic, never
/// a trace with a hole in it.
#[test]
fn missing_or_short_spool_cold_starts_with_warning() {
    for (tag, damage) in [
        ("missing", None),
        // Five whole lines and half of the sixth; the sidecar needs 8.
        ("short", Some(5usize)),
    ] {
        let (cfg, golden) = crashed_life(tag);
        let spool = spool_of(cfg.trace_path.as_deref().expect("trace path"));
        match damage {
            None => std::fs::remove_file(&spool).expect("remove spool"),
            Some(keep) => {
                let bytes = std::fs::read(&spool).expect("read spool");
                let cut = bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .nth(keep - 1)
                    .map_or(0, |(i, _)| i + 1);
                std::fs::write(&spool, &bytes[..cut + 20]).expect("cut spool");
            }
        }
        let (warnings, lines) = second_attempt(&cfg, fed_bus(4, 240));
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("checkpoint unusable, cold-started") && w.contains(".spool")),
            "{tag}: expected a spool fallback warning, got {warnings:?}"
        );
        assert!(
            lines.iter().any(|l| l.contains(r#""event":"cold_start"#)),
            "{tag}: cold_start event must be broadcast"
        );
        assert!(!lines.iter().any(|l| l.contains(r#""event":"resumed"#)));
        assert_trace_is_golden_and_pair_is_gone(&cfg, &golden);
    }
}

/// A sidecar written before the spool existed embeds every record in
/// its recorder state. Resume spills them to a fresh spool and carries
/// on; the final trace is still the batch bytes.
#[test]
fn old_sidecar_with_embedded_records_is_spilled() {
    let (n, slots) = (4, 240);
    let (arrivals, departures) = schedule(n, slots);
    let mut batch = quick(n, slots);
    batch.arrivals = ArrivalSpec::Declared {
        arrivals,
        departures,
    };
    let golden = tmp_path("embedded-golden.jsonl");
    let (_result, trace) = batch.run_traced(1).expect("batch run");
    trace.write_jsonl(&golden).expect("write golden");

    // The batch checkpoint path never drains its recorder: its sidecar
    // is the old daemon format.
    let ckpt = tmp_path("embedded-ckpt.json");
    let mut rec = TraceRecorder::new().with_live_counts();
    let RunOutcome::Paused(ck) = batch.run_until(&mut rec, 10).expect("run to slot 10") else {
        panic!("the run ended before slot 10");
    };
    assert_eq!(rec.records().len(), 10);
    ck.write_file(&ckpt).expect("write sidecar");
    assert!(std::fs::read_to_string(&ckpt)
        .expect("sidecar")
        .contains(EMBEDDED_RECORD_KEY));

    let mut cfg = ServeConfig::new(batch);
    cfg.trace_path = Some(tmp_path("embedded-live.jsonl"));
    cfg.ckpt_path = Some(ckpt);
    let (warnings, lines) = second_attempt(&cfg, Arc::new(CommandBus::new(4)));
    assert!(warnings.is_empty(), "clean resume, got {warnings:?}");
    assert!(lines
        .iter()
        .any(|l| l.contains(r#""event":"resumed","slot":10"#)));
    assert_trace_is_golden_and_pair_is_gone(&cfg, &golden);
}

/// Downsampled trace whose last window is partial: header + spooled
/// window records + the tail `finish` flushes ≡ the batch JSONL.
#[test]
fn downsampled_trace_with_partial_tail_matches_batch() {
    let scenario = quick(3, 60);
    let (result, trace) = scenario.run_traced(7).expect("batch run");
    assert_ne!(result.slots_run % 7, 0, "the fixture must end mid-window");

    let live_trace = tmp_path("every7-live.jsonl");
    let mut cfg = ServeConfig::new(scenario);
    cfg.trace_path = Some(live_trace.clone());
    cfg.trace_every = 7;
    let outcome = run_service(cfg, Arc::new(CommandBus::new(4)), Arc::new(FanOut::new()));
    assert_eq!(
        outcome,
        Outcome::Done {
            slots_run: result.slots_run
        }
    );
    let got = std::fs::read_to_string(&live_trace).expect("read live trace");
    assert!(got == trace.to_jsonl(), "downsampled live trace ≡ batch");
    assert!(!spool_of(&live_trace).exists());
    let _ = std::fs::remove_file(&live_trace);
}

/// Neither `--trace` nor `--ckpt`: nothing is written anywhere, the
/// records exist only as broadcast lines, one per slot.
#[test]
fn without_trace_or_ckpt_records_are_only_broadcast() {
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let outcome = run_service(
        ServeConfig::new(quick(3, 60)),
        Arc::new(CommandBus::new(4)),
        fanout,
    );
    let Outcome::Done { slots_run } = outcome else {
        panic!("unexpected outcome {outcome:?}");
    };
    let records = drain_lines(&rx)
        .iter()
        .filter(|l| l.starts_with("{\"slot\":"))
        .count();
    assert_eq!(records as u64, slots_run);
}

// ---------------------------------------------------------------------------
// The persist thread
// ---------------------------------------------------------------------------

/// `ckpt_every = 1` keeps a sidecar in flight across nearly every slot
/// boundary, the last one included: completion must wait for it before
/// it clears the pair (a late rename would resurrect the finished run),
/// and the trace is still the batch bytes.
#[test]
fn completion_joins_the_sidecar_in_flight() {
    let (n, slots) = (4, 240);
    let golden = tmp_path("every1-golden.jsonl");
    golden_batch_trace(n, slots, &golden);
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    let (trace, ckpt) = (tmp_path("every1-live.jsonl"), tmp_path("every1-ckpt.json"));
    cfg.trace_path = Some(trace.clone());
    cfg.ckpt_path = Some(ckpt.clone());
    cfg.ckpt_every = 1;
    let want = std::fs::read(&golden).expect("read golden trace");

    for rep in 0..30 {
        let fanout = Arc::new(FanOut::new());
        let rx = fanout.subscribe(4096);
        let outcome = run_service(cfg.clone(), fed_bus(n, slots), fanout);
        let Outcome::Done { slots_run } = outcome else {
            panic!("rep {rep}: unexpected outcome {outcome:?}");
        };
        assert!(!ckpt.exists(), "rep {rep}: sidecar left behind");
        assert!(!tmp_of(&ckpt).exists(), "rep {rep}: staged sidecar left");
        assert!(!spool_of(&trace).exists(), "rep {rep}: spool left behind");
        assert!(
            std::fs::read(&trace).expect("read live trace") == want,
            "rep {rep}: trace differs from the batch golden"
        );
        assert_eq!(
            checkpoint_slots(drain_lines(&rx)),
            (0..slots_run).collect::<Vec<u64>>(),
            "rep {rep}: one checkpoint per slot boundary"
        );
    }
    let _ = std::fs::remove_file(&golden);
    let _ = std::fs::remove_file(&trace);
}

/// The periodic trigger compares against the slot it last handed a
/// sidecar off at, not the slot last made durable (which lags it now):
/// with `status` and `feed` commands draining at the boundary where the
/// start checkpoint is in flight, that boundary still gets one sidecar,
/// and so does every later one.
#[test]
fn one_slot_boundary_hands_off_one_sidecar() {
    let mut cfg = ServeConfig::new(quick(3, 60));
    cfg.ckpt_path = Some(tmp_path("trigger-ckpt.json"));
    cfg.ckpt_every = 1;
    let bus = Arc::new(CommandBus::new(8));
    let mut replies = Vec::new();
    for _ in 0..3 {
        let (tx, rx) = sync_channel(1);
        bus.push(Command::Status { reply: tx }).expect("status");
        replies.push(rx);
        let (tx, _rx) = sync_channel(1);
        bus.push(feed(vec![], tx)).expect("feed");
    }
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(4096);
    let Outcome::Done { slots_run } = run_service(cfg, bus, fanout) else {
        panic!("the run completes");
    };
    assert_eq!(
        checkpoint_slots(drain_lines(&rx)),
        (0..slots_run).collect::<Vec<u64>>()
    );
    for reply in replies {
        let status = reply.recv().expect("status reply");
        assert_eq!(status.last_checkpoint_slot, None, "nothing durable yet");
    }
}

/// `checkpoint{slot}` and `last_checkpoint_slot` mean *durable*: whenever
/// either names a slot, the sidecar on disk is that slot's or a later
/// one's, and the spool already holds every line that sidecar counts as
/// emitted (one per slot here). Checked against a free-running service
/// whose horizon it cannot reach, then shut down.
#[test]
fn a_checkpoint_is_announced_only_once_it_is_on_disk() {
    let (n, slots) = (4, 60_000);
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    let (trace, ckpt) = (
        tmp_path("durable-live.jsonl"),
        tmp_path("durable-ckpt.json"),
    );
    cfg.trace_path = Some(trace.clone());
    cfg.ckpt_path = Some(ckpt.clone());
    cfg.ckpt_every = 4;

    let bus = Arc::new(CommandBus::new(16));
    // The last arrival keeps the run alive far beyond this test.
    let arrivals = [0, 7, 14, slots - 1_000];
    preload_feed(&bus, feed_events(&arrivals, &[None; 4]));
    let fanout = Arc::new(FanOut::new());
    let rx = fanout.subscribe(1 << 17);
    let shutdown = Arc::new(AtomicBool::new(false));
    let svc = LiveService::build(cfg, bus.clone(), fanout, shutdown.clone(), 0).expect("build");
    let service = std::thread::spawn(move || svc.run());

    let on_disk_covers = |named: u64| {
        let sidecar = sidecar_slot(&ckpt);
        assert!(sidecar >= named, "slot {named} named, {sidecar} on disk");
        let lines = line_count(&spool_of(&trace)) as u64;
        assert!(lines >= sidecar, "sidecar {sidecar}, spool {lines} lines");
    };
    let mut announced = Vec::new();
    while announced.len() < 25 {
        let line = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the service keeps publishing");
        let Some(&slot) = checkpoint_slots(line.lines()).first() else {
            continue;
        };
        on_disk_covers(slot);
        announced.push(slot);
        let (tx, reply) = sync_channel(1);
        bus.push(Command::Status { reply: tx }).expect("status");
        let status = reply
            .recv_timeout(Duration::from_secs(30))
            .expect("status reply");
        on_disk_covers(status.last_checkpoint_slot.expect("one is durable"));
    }
    assert!(announced.windows(2).all(|w| w[0] < w[1]), "{announced:?}");

    shutdown.store(true, Ordering::SeqCst);
    let outcome = service.join().expect("service thread").expect("run");
    let Outcome::Interrupted { at_slot } = outcome else {
        panic!("unexpected outcome {outcome:?}");
    };
    assert!(
        at_slot < slots - 1_000,
        "the run must not have got near its end"
    );
    assert_eq!(
        sidecar_slot(&ckpt),
        at_slot,
        "the shutdown sidecar is joined"
    );
    assert_eq!(checkpoint_slots(drain_lines(&rx)).last(), Some(&at_slot));
    assert!(!tmp_of(&ckpt).exists());
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(spool_of(&trace));
}

/// The injected panic fires right after slot 12's sidecar is handed off.
/// When `catch_unwind` returns, that sidecar is settled — the restart
/// and it would otherwise both write `<ckpt>.tmp` — and the restart
/// resumes from it to the golden.
#[test]
fn a_panic_joins_the_sidecar_in_flight() {
    let (n, slots) = (4, 240);
    let golden = tmp_path("inflight-golden.jsonl");
    golden_batch_trace(n, slots, &golden);
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    cfg.trace_path = Some(tmp_path("inflight-live.jsonl"));
    cfg.ckpt_path = Some(tmp_path("inflight-ckpt.json"));
    cfg.ckpt_every = 1;
    cfg.fail_at = Some(12);

    let svc = LiveService::build(
        cfg.clone(),
        fed_bus(n, slots),
        Arc::new(FanOut::new()),
        Arc::new(AtomicBool::new(false)),
        0,
    )
    .expect("build attempt 0");
    assert!(catch_unwind(AssertUnwindSafe(move || svc.run())).is_err());
    let ckpt = cfg.ckpt_path.as_deref().expect("ckpt path");
    assert_eq!(sidecar_slot(ckpt), 12, "handed off just before the panic");
    assert!(
        !tmp_of(ckpt).exists(),
        "no write in flight after the unwind"
    );
    let trace = cfg.trace_path.as_deref().expect("trace path");
    assert_eq!(line_count(&spool_of(trace)), 12);

    let (warnings, lines) = second_attempt(&cfg, Arc::new(CommandBus::new(4)));
    assert!(warnings.is_empty(), "clean resume, got {warnings:?}");
    assert!(lines
        .iter()
        .any(|l| l.contains(r#""event":"resumed","slot":12"#)));
    assert_trace_is_golden_and_pair_is_gone(&cfg, &golden);
}

/// Ask for `status` over a rendezvous channel: the slot loop sits in the
/// reply until [`Held::release`] takes it.
struct Held(Receiver<jmso_gateway::GwStatus>);

fn hold_at_a_boundary(bus: &CommandBus) -> Held {
    let (tx, rx) = sync_channel(0);
    bus.push(Command::Status { reply: tx }).expect("status");
    Held(rx)
}

impl Held {
    /// Let the loop go on; returns the slot it was held before.
    fn release(self) -> u64 {
        let status = self.0.recv_timeout(Duration::from_secs(30));
        status.expect("the loop reaches the boundary").slot
    }
}

/// The sidecar's directory disappears mid-run. The persist thread's
/// failure is not lost with the thread: it comes back at the next join
/// as the typed error a synchronous write returned, and ends the run.
/// Interleaving forced by holds, each queued before the previous one is
/// released, so the loop never gets more than one boundary ahead.
#[test]
fn a_failed_sidecar_write_ends_the_run_with_a_typed_error() {
    let dir = tmp_path("vanishing-dir");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cfg = ServeConfig::new(quick(2, 240));
    cfg.trace_path = Some(tmp_path("vanishing-live.jsonl"));
    cfg.ckpt_path = Some(dir.join("ckpt.json"));
    cfg.ckpt_every = 1;
    let trace = cfg.trace_path.clone().expect("trace path");

    let bus = Arc::new(CommandBus::new(4));
    let mut held = hold_at_a_boundary(&bus);
    let shutdown = Arc::new(AtomicBool::new(false));
    let svc = LiveService::build(cfg, bus.clone(), Arc::new(FanOut::new()), shutdown, 0)
        .expect("build service");
    let service = std::thread::spawn(move || svc.run());
    loop {
        let next = hold_at_a_boundary(&bus);
        let at = held.release();
        held = next;
        if at >= 2 {
            break;
        }
    }
    // Held at slot 2 or 3, start and slot-1 sidecars written: mid-run.
    // Renamed away, not removed: one step, whatever the sidecar in
    // flight is doing in there.
    let gone = tmp_path("vanished-dir");
    std::fs::rename(&dir, &gone).expect("move the sidecar's directory away");
    let at = held.release();

    let outcome = service.join().expect("no panic");
    match outcome {
        Err(SimError::Checkpoint(CheckpointError::Io { path, .. })) => {
            assert_eq!(path, dir.join("ckpt.json"));
        }
        other => panic!("held at slot {at}, then: {other:?}"),
    }
    assert!(!trace.exists(), "an aborted run writes no trace");
    let _ = std::fs::remove_file(spool_of(&trace));
    let _ = std::fs::remove_dir_all(&gone);
}

// ---------------------------------------------------------------------------
// Socket-facing behaviour
// ---------------------------------------------------------------------------

/// A client on its own connection thread (default stack), as the daemon
/// serves one.
fn client(bus: &Arc<CommandBus>, fanout: &Arc<FanOut>) -> (BufReader<UnixStream>, JoinHandle<()>) {
    let (client, server) = UnixStream::pair().expect("socket pair");
    // Long enough for any answer the snapshot gives, far shorter than the
    // bus path's wait on a loop that cannot reach its next boundary.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let (bus, fanout) = (bus.clone(), fanout.clone());
    let handler = std::thread::spawn(move || handle_connection(server, &bus, &fanout));
    (BufReader::new(client), handler)
}

fn ask(reader: &mut BufReader<UnixStream>, line: &str) -> String {
    let line = format!("{line}\n");
    reader.get_mut().write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("a reply in time");
    reply
}

/// The service closes the fan-out and the process exits: whatever a
/// connection thread has not yet written to its client by then is lost.
/// So when `run` returns, the `done` event must already be in the
/// socket — checked here by reading only what is there at that moment.
#[test]
fn done_is_the_last_line_a_socket_subscriber_gets() {
    for life in 0..40 {
        let bus = Arc::new(CommandBus::new(4));
        let fanout = Arc::new(FanOut::new());
        let (mut client, server) = UnixStream::pair().expect("socket pair");
        let handler = {
            let (bus, fanout) = (bus.clone(), fanout.clone());
            std::thread::spawn(move || handle_connection(server, &bus, &fanout))
        };
        client
            .write_all(b"{\"cmd\":\"subscribe\"}\n")
            .expect("subscribe");
        let mut reader = BufReader::new(client);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("subscribe reply");
        assert!(reply.contains(r#""ok":true"#), "{reply}");

        let outcome = run_service(ServeConfig::new(quick(2, 12)), bus, fanout);
        assert!(matches!(outcome, Outcome::Done { .. }));

        reader
            .get_ref()
            .set_nonblocking(true)
            .expect("nonblocking read");
        let mut seen = Vec::new();
        if let Err(e) = reader.read_to_end(&mut seen) {
            assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "life {life}: {e}");
        }
        let text = String::from_utf8(seen).expect("utf-8");
        let last = text.lines().last().unwrap_or_default();
        assert!(
            last.contains(r#""event":"done"#),
            "life {life}: the stream ended with {last:?}"
        );
        handler.join().expect("connection thread");
    }
}

/// A socket subscriber that stops reading is shed once about 1 024
/// records' worth of bytes (≈ 10.5 MB) wait for it — not 1 024 of the
/// 64 KiB messages the records now travel in — and counted, and the run
/// still reaches its horizon. A 1 000-user pool prints gateway-live's
/// ≈ 10 KB records; three sessions keep it running.
#[test]
fn a_socket_subscriber_that_stops_reading_is_shed_by_bytes() {
    let (n, slots) = (1_000, 1_500);
    let mut scenario = long_sessions(n, slots);
    let mut arrivals = vec![slots; n];
    arrivals[..3].fill(0);
    scenario.arrivals = ArrivalSpec::Declared {
        arrivals,
        departures: vec![None; n],
    };
    let bus = Arc::new(CommandBus::new(4));
    let fanout = Arc::new(FanOut::new());
    let (client, server) = UnixStream::pair().expect("socket pair");
    let handler = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || handle_connection(server, &bus, &fanout))
    };
    let mut reader = BufReader::new(client);
    reader
        .get_mut()
        .write_all(b"{\"cmd\":\"subscribe\"}\n")
        .expect("subscribe");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("subscribe reply");
    assert!(reply.contains(r#""ok":true"#), "{reply}");

    // The client reads nothing until the run is over.
    let outcome = run_service(ServeConfig::new(scenario), bus, fanout.clone());
    assert_eq!(outcome, Outcome::Done { slots_run: slots });
    assert_eq!(fanout.dropped(), 1, "shed and counted");

    // What it was sent before it was shed, then the end of the stream.
    let mut seen = Vec::new();
    reader.read_to_end(&mut seen).expect("the stream ends");
    handler.join().expect("connection thread");
    let text = String::from_utf8(seen).expect("utf-8");
    let records = record_slots(&text.lines().map(str::to_string).collect::<Vec<_>>());
    let bound = 1_024 * jmso_gateway_svc::fanout::LINE_BYTES;
    assert!(
        text.len() > bound - (64 << 10) && text.len() < bound + (4 << 20),
        "{} bytes, {} records before the subscriber was shed",
        text.len(),
        records.len()
    );
    assert_eq!(records, (0..records.len() as u64).collect::<Vec<_>>());
    assert!(
        !text.contains(r#""event":"done""#),
        "the shed stream has no done"
    );
}

/// One socket line of 60 000 `[` used to overflow the connection thread's
/// stack inside the JSON parser — an abort, which no supervisor catches,
/// so any client could end the daemon. The line now gets the ordinary
/// parse rejection, its connection stays usable, and the service still
/// answers a new one.
#[test]
fn deeply_nested_line_is_rejected_and_the_service_lives() {
    let bus = Arc::new(CommandBus::new(4));
    let fanout = Arc::new(FanOut::new());
    let mut cfg = ServeConfig::new(quick(2, 12));
    cfg.hold = true;
    let service = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || run_service(cfg, bus, fanout))
    };
    let (mut hostile, hostile_handler) = client(&bus, &fanout);
    let line = "[".repeat(60_000);
    assert!(line.len() <= MAX_LINE_BYTES);
    let reply = ask(&mut hostile, &line);
    assert!(reply.starts_with(r#"{"ok":false"#), "{reply}");
    assert!(reply.contains("recursion limit exceeded"), "{reply}");
    let reply = ask(&mut hostile, r#"{"cmd":"status"}"#);
    assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");

    let (mut next, next_handler) = client(&bus, &fanout);
    let reply = ask(&mut next, r#"{"cmd":"status"}"#);
    assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
    assert!(reply.contains(r#""state":"holding""#), "{reply}");
    let reply = ask(&mut next, r#"{"cmd":"shutdown"}"#);
    assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");

    let outcome = service.join().expect("service thread");
    assert!(matches!(outcome, Outcome::Interrupted { at_slot: 0 }));
    drop((hostile, next));
    hostile_handler.join().expect("first connection thread");
    next_handler.join().expect("second connection thread");
}

/// An in-memory connection: scripted input, captured output.
struct Duplex {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `jmso-gateway template 2000` used to write its whole feed as one
/// 78 KB line, which the daemon's own line reader rejects. Every line
/// the real binary emits must parse and pass that reader.
#[test]
fn template_2000_feed_fits_the_line_cap() {
    let dir = tmp_path("template-2000");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_jmso-gateway"))
        .args(["template", "2000", "--out-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run jmso-gateway template");
    assert!(status.success());
    let feed = std::fs::read_to_string(dir.join("feed.jsonl")).expect("feed.jsonl");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let mut arrivals = 0;
    for line in feed.lines() {
        assert!(line.len() <= MAX_LINE_BYTES, "{} byte line", line.len());
        match parse_command(line).expect("the daemon's parser accepts the line") {
            GwCommand::Feed { events } => {
                arrivals += events
                    .iter()
                    .filter(|e| matches!(e, LiveEvent::Arrive { .. }))
                    .count();
            }
            GwCommand::Start => {}
            other => panic!("unexpected command {other:?}"),
        }
    }
    assert_eq!(arrivals, 2000, "chunking must keep every event");
    assert!(
        feed.lines().count() > 2,
        "2000 users need several feed lines"
    );

    // Through the connection handler, whose bounded reader closes the
    // connection on an oversized line: every line gets its ack, and every
    // arrival reaches the engine through a committed feed stream.
    let bus = CommandBus::new(16);
    let fanout = FanOut::new();
    let mut stream = Duplex {
        input: Cursor::new(feed.clone().into_bytes()),
        output: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let streamed = std::thread::scope(|scope| {
        // Stand-in engine thread: read each feed to its commit, ack
        // whatever arrives on the bus.
        let engine = scope.spawn(|| {
            let mut arrivals = 0;
            while !stop.load(Ordering::SeqCst) {
                for cmd in bus.wait(Duration::from_millis(5)) {
                    match cmd {
                        Command::Feed { events, reply } => {
                            while let Some(chunk) = events.next_chunk().expect("committed") {
                                arrivals += chunk
                                    .iter()
                                    .filter(|e| matches!(e, LiveEvent::Arrive { .. }))
                                    .count();
                            }
                            let _ = reply.send(Ok(()));
                        }
                        Command::Start { reply } | Command::Shutdown { reply } => {
                            let _ = reply.send(Ok(()));
                        }
                        Command::Status { .. } => {}
                    }
                }
            }
            arrivals
        });
        handle_connection(&mut stream, &bus, &fanout);
        stop.store(true, Ordering::SeqCst);
        engine.join().expect("stand-in engine")
    });
    let replies = String::from_utf8(stream.output).expect("utf-8 replies");
    assert_eq!(
        replies.matches(r#""ok":true"#).count(),
        feed.lines().count(),
        "every line acknowledged: {replies}"
    );
    assert_eq!(streamed, 2000, "every arrival reaches the engine");
}

// ---------------------------------------------------------------------------
// Feed streams
// ---------------------------------------------------------------------------

/// Serve a holding ingest cell whatever `queue` puts on its bus, then
/// shut it down: the schedule its shutdown sidecar holds, and what
/// `queue` returned.
fn sidecar_after<T>(name: &str, queue: impl FnOnce(&CommandBus) -> T) -> (String, T) {
    let ckpt = tmp_path(name);
    let mut cfg = ServeConfig::new(quick(3, 60));
    cfg.ingest = true;
    cfg.ckpt_path = Some(ckpt.clone());
    let bus = Arc::new(CommandBus::new(8));
    let queued = queue(&bus);
    let (tx, _rx) = sync_channel(1);
    bus.push(Command::Shutdown { reply: tx }).expect("shutdown");
    let outcome = run_service(cfg, bus, Arc::new(FanOut::new()));
    assert_eq!(outcome, Outcome::Interrupted { at_slot: 0 });
    let sidecar = std::fs::read_to_string(&ckpt).expect("shutdown sidecar");
    let _ = std::fs::remove_file(&ckpt);
    (sidecar, queued)
}

/// A feed whose sender is dropped mid-line applies none of the events it
/// sent: the engine answers it at once, so nothing is left waiting on
/// it, and handles the next command — a committed feed, which is all the
/// shutdown sidecar then holds.
#[test]
fn an_abandoned_feed_applies_nothing_and_the_engine_moves_on() {
    let arrive = |user, slot| LiveEvent::Arrive {
        user,
        slot,
        request: None,
    };
    let (got, client) = sidecar_after("abandoned-ckpt.json", |bus| {
        let (tx, stream) = feed_stream();
        let (reply, answer) = sync_channel(1);
        bus.push(Command::Feed {
            events: stream,
            reply,
        })
        .expect("feed");
        tx.send(vec![arrive(0, 4), arrive(2, 9)]);
        let (reply, ack) = sync_channel(1);
        bus.push(feed(vec![arrive(1, 6)], reply)).expect("feed");
        // Dropped while the engine waits on the rest of the line.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(tx);
            let wait = Duration::from_secs(30);
            (answer.recv_timeout(wait), ack.recv_timeout(wait))
        })
    });
    let (abandoned, applied) = client.join().expect("client thread");
    assert!(
        matches!(abandoned, Ok(Err(ProtocolError::Reject { .. }))),
        "{abandoned:?}"
    );
    assert_eq!(applied, Ok(Ok(())));
    let (want, ()) = sidecar_after("committed-ckpt.json", |bus| {
        let (reply, _ack) = sync_channel(1);
        bus.push(feed(vec![arrive(1, 6)], reply)).expect("feed");
    });
    assert_eq!(got, want, "only the committed feed applies");
}

/// A feed drained while the loop runs holds its slot boundary until the
/// line is committed, and applies there whole: the loop does not step
/// while it waits on the rest of the line (a socket `status` names the
/// same slot meanwhile), and a departure at that very slot, sent last,
/// is still accepted.
#[test]
fn a_feed_while_running_applies_at_one_slot_boundary() {
    let mut scenario = quick(3, 240);
    scenario.arrivals = ArrivalSpec::Declared {
        arrivals: vec![0; 3],
        departures: vec![None; 3],
    };
    let bus = Arc::new(CommandBus::new(8));
    let fanout = Arc::new(FanOut::new());
    let shutdown = Arc::new(AtomicBool::new(false));
    // A pair drained together at slot 0: once the first is released the
    // loop sits in the second, unable to drain.
    let (first, second) = (hold_at_a_boundary(&bus), hold_at_a_boundary(&bus));
    let service = {
        let svc = LiveService::build(
            ServeConfig::new(scenario),
            bus.clone(),
            fanout.clone(),
            shutdown.clone(),
            0,
        )
        .expect("build service");
        std::thread::spawn(move || svc.run())
    };
    assert_eq!(first.release(), 0);
    // Queued while the loop sits in `second`: both drain at the next
    // boundary, the feed first.
    let (tx, stream) = feed_stream();
    let (reply, ack) = sync_channel(1);
    bus.push(Command::Feed {
        events: stream,
        reply,
    })
    .expect("feed");
    let third = hold_at_a_boundary(&bus);
    assert_eq!(second.release(), 0);
    tx.send(vec![LiveEvent::Depart { user: 0, slot: 50 }]);
    let (mut conn, handler) = client(&bus, &fanout);
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ask_status(&mut conn).slot, 1, "the loop waits on the line");
    }
    tx.commit(vec![LiveEvent::Depart { user: 1, slot: 1 }]);
    let ack = ack.recv_timeout(Duration::from_secs(30));
    assert_eq!(ack.expect("an ack"), Ok(()));
    assert_eq!(
        third.release(),
        1,
        "applied at the boundary it was drained at"
    );
    shutdown.store(true, Ordering::SeqCst);
    service.join().expect("service thread").expect("run");
    drop(conn);
    handler.join().expect("connection thread");
}

// ---------------------------------------------------------------------------
// Status without the bus
// ---------------------------------------------------------------------------

fn ask_status(reader: &mut BufReader<UnixStream>) -> GwStatus {
    let reply = ask(reader, r#"{"cmd":"status"}"#);
    let body = reply
        .trim_end()
        .strip_prefix(r#"{"ok":true,"status":"#)
        .and_then(|rest| rest.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a status reply: {reply}"));
    serde_json::from_str(body).expect("a status object")
}

/// Wait for a line containing `needle` on a subscription.
fn await_line(rx: &Subscription, needle: &str) -> String {
    loop {
        let message = rx
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("no line with {needle}"));
        if let Some(line) = message.lines().find(|l| l.contains(needle)) {
            return line.to_string();
        }
    }
}

/// While the slot loop is held at a boundary — in a rendezvous reply it
/// cannot leave — a socket `status` still answers at once, and names that
/// boundary. Holds come in pairs queued while the loop cannot drain, so
/// it takes both in one drain: once the first is released, it sits in
/// the second, at the same boundary.
#[test]
fn status_answers_while_the_loop_is_held() {
    let bus = Arc::new(CommandBus::new(8));
    let fanout = Arc::new(FanOut::new());
    let pair = |bus: &CommandBus| (hold_at_a_boundary(bus), hold_at_a_boundary(bus));
    let mut held = pair(&bus);
    let service = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || run_service(ServeConfig::new(quick(2, 240)), bus, fanout))
    };
    let (mut conn, handler) = client(&bus, &fanout);
    for boundary in 0..4 {
        let (first, second) = held;
        assert_eq!(first.release(), boundary);
        let status = ask_status(&mut conn);
        assert_eq!((status.state, status.slot), (SvcState::Running, boundary));
        held = pair(&bus);
        assert_eq!(second.release(), boundary);
    }
    let (first, second) = held;
    assert_eq!((first.release(), second.release()), (4, 4));
    assert!(matches!(
        service.join().expect("service"),
        Outcome::Done { .. }
    ));
    drop(conn);
    handler.join().expect("connection thread");
}

/// A command that changes the status publishes it before its ack: a
/// `status` sent after the ack reads the change.
#[test]
fn status_after_an_ack_reads_what_the_ack_did() {
    let (n, slots) = (3, 60_000);
    let bus = Arc::new(CommandBus::new(8));
    let fanout = Arc::new(FanOut::new());
    let events = fanout.subscribe(1 << 17);
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    let service = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || run_service(cfg, bus, fanout))
    };
    await_line(&events, r#""event":"started""#);
    let (mut conn, handler) = client(&bus, &fanout);
    let status = ask_status(&mut conn);
    assert_eq!((status.state, status.slot), (SvcState::Holding, 0));

    // The last arrival keeps the run going for as long as the test.
    let arrivals = [0, 3, slots - 100];
    let feed = format!(
        r#"{{"cmd":"feed","events":{}}}"#,
        serde_json::to_string(&feed_events(&arrivals, &[None; 3])).expect("events")
    );
    assert!(ask(&mut conn, &feed).starts_with(r#"{"ok":true"#));
    let status = ask_status(&mut conn);
    assert_eq!(
        (status.state, status.slot, status.watching),
        (SvcState::Holding, 0, n)
    );

    assert!(ask(&mut conn, r#"{"cmd":"start"}"#).starts_with(r#"{"ok":true"#));
    let status = ask_status(&mut conn);
    assert_eq!(status.state, SvcState::Running, "{status:?}");

    assert!(ask(&mut conn, r#"{"cmd":"shutdown"}"#).starts_with(r#"{"ok":true"#));
    let outcome = service.join().expect("service");
    assert!(
        matches!(outcome, Outcome::Interrupted { .. }),
        "{outcome:?}"
    );
    drop(conn);
    handler.join().expect("connection thread");
}

/// After a panic the supervisor withdraws the dead attempt's status
/// before its backoff: a `status` asked during the backoff waits for the
/// restart and reads the slot it resumed at, never the slot the dead
/// attempt reached.
#[test]
fn status_during_a_restart_backoff_is_the_restarts() {
    let (n, slots) = (4, 240);
    let mut cfg = ServeConfig::new(quick(n, slots));
    cfg.ingest = true;
    cfg.trace_path = Some(tmp_path("backoff-live.jsonl"));
    cfg.ckpt_path = Some(tmp_path("backoff-ckpt.json"));
    cfg.ckpt_every = 8;
    cfg.fail_at = Some(12);
    let sup = SupervisorConfig {
        max_restarts: 1,
        backoff_base_ms: 1_000,
        backoff_max_ms: 1_000,
    };
    let bus = fed_bus(n, slots);
    let fanout = Arc::new(FanOut::new());
    let events = fanout.subscribe(4096);
    let supervisor = {
        let (cfg, bus, fanout) = (cfg.clone(), bus.clone(), fanout.clone());
        let shutdown = Arc::new(AtomicBool::new(false));
        std::thread::spawn(move || supervise(&cfg, &sup, bus, fanout, shutdown))
    };
    let (mut conn, handler) = client(&bus, &fanout);
    // The backoff has begun: a second is a wide margin for one request.
    await_line(&events, "engine task panicked");
    let status = ask_status(&mut conn);
    let resumed = await_line(&events, r#""event":"resumed""#);
    assert_eq!(resumed, r#"{"event":"resumed","slot":8}"#);
    assert_eq!(status.slot, 8, "the dead attempt reached 12: {status:?}");

    let end = supervisor
        .join()
        .expect("supervisor")
        .expect("supervised run");
    assert!(
        matches!(end, SupervisedEnd::Finished { restarts: 1, .. }),
        "{end:?}"
    );
    drop(conn);
    handler.join().expect("connection thread");
    let _ = std::fs::remove_file(cfg.trace_path.as_deref().expect("trace"));
}

/// A subscriber whose client reads slowly: each `write` takes a while.
struct SlowClient {
    input: Cursor<Vec<u8>>,
    seen: Arc<Mutex<Vec<u8>>>,
}

impl Read for SlowClient {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for SlowClient {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(Duration::from_micros(300));
        self.seen.lock().expect("seen").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The slot loop outruns a slow subscriber, so its lines go out in
/// batches. By the time `run` returns — when the daemon exits — the
/// client has every record line whole and in slot order, then `done`.
#[test]
fn a_slow_subscriber_gets_every_line_in_order_then_done() {
    let bus = Arc::new(CommandBus::new(4));
    let fanout = Arc::new(FanOut::new());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let stream = SlowClient {
        input: Cursor::new(b"{\"cmd\":\"subscribe\"}\n".to_vec()),
        seen: seen.clone(),
    };
    let handler = {
        let (bus, fanout) = (bus.clone(), fanout.clone());
        std::thread::spawn(move || handle_connection(stream, &bus, &fanout))
    };
    while fanout.is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Sessions long enough to last the horizon.
    let mut scenario = quick(8, 600);
    scenario.workload.size_range_kb = (500_000.0, 800_000.0);
    let Outcome::Done { slots_run } = run_service(ServeConfig::new(scenario), bus, fanout) else {
        panic!("the run completes");
    };
    let text = String::from_utf8(seen.lock().expect("seen").clone()).expect("utf-8");
    handler.join().expect("connection thread");

    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(r#"{"ok":true}"#));
    let records: Vec<&str> = lines
        .clone()
        .filter(|l| l.starts_with(r#"{"slot":"#))
        .collect();
    assert_eq!(slots_run, 600, "a run long enough to outrun the client");
    assert_eq!(
        records.len() as u64,
        slots_run,
        "every record, none dropped"
    );
    for (slot, line) in records.iter().enumerate() {
        assert!(line.starts_with(&format!(r#"{{"slot":{slot},"#)), "{line}");
        assert!(line.ends_with('}'), "a whole line: {line}");
    }
    let last = lines.last().unwrap_or_default();
    assert_eq!(
        last,
        format!(r#"{{"event":"done","slots_run":{slots_run}}}"#)
    );
}
