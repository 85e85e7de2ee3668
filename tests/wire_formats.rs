//! Every wire type through the writer and back through the reader, and
//! a seeded fuzz loop over the three readers that face damaged or hostile
//! bytes: the daemon's socket lines (`parse_command`, then DPI for a
//! request), checkpoint sidecars (`EngineCheckpoint::from_json`) and
//! JSONL traces (`SlotTrace::from_jsonl`).
//!
//! A round trip must come back equal — value for value where the type
//! has `PartialEq`, byte for byte in its printed form either way. A fuzz
//! case must end in `Ok` or a typed error, never a panic; an `Ok` socket
//! line must print and read back to itself. A damaged feed line must get
//! the same reply, and leave the same schedule, whether the daemon
//! streams it to its engine or it is parsed whole and then applied.

use jmso_gateway::{
    declared_rate_from_request, format_segment_request, parse_command, GwCommand, GwEvent,
    GwStatus, LiveEvent, ProtocolError, SvcState, MAX_LINE_BYTES,
};
use jmso_gateway_svc::{
    handle_connection, Command, CommandBus, FanOut, LiveService, Outcome, ServeConfig,
};
use jmso_sim::{
    AbrSpec, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec, EngineCheckpoint, FaultSpec,
    NullRecorder, RunOutcome, Scenario, ScenarioError, SchedulerSpec, SessionLength, SimResult,
    SlotDriver, SlotTrace, WorkloadSpec,
};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// `value` prints compact and pretty, and both forms read back to a
/// value that is equal and prints the same bytes.
fn round_trips<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    for text in [
        serde_json::to_string(value).unwrap(),
        serde_json::to_string_pretty(value).unwrap(),
    ] {
        let back: T = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, value, "from {text}");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(value).unwrap()
        );
    }
}

/// An open cell with everything a sidecar can carry: Poisson arrivals
/// with sessions that end, a three-rung ABR ladder, feasibility
/// admission with deferrals, and a generated fault plan.
fn open_cell() -> Scenario {
    let mut s = Scenario::paper_default(60);
    s.slots = 160;
    s.seed = 11;
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
    s.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        ..AbrSpec::single_rung()
    });
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s.faults = FaultSpec::Generated {
        seed: 5,
        n_events: 8,
    };
    s
}

/// A closed VBR cell under EMA: queue values and RRC transitions in
/// every record.
fn vbr_cell() -> Scenario {
    let mut s = Scenario::paper_default(6);
    s.slots = 120;
    s.seed = 3;
    s.capacity = CapacitySpec::Constant { kbps: 2_000.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (60_000.0, 120_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: Some(vec![0.75, 1.25, 1.0, 0.85, 1.15]),
        vbr_segment_slots: 30,
    };
    s.scheduler = SchedulerSpec::ema_fast(1.0);
    s
}

fn sidecar(s: &Scenario, slot: u64) -> EngineCheckpoint {
    match s.run_until(&mut NullRecorder, slot).unwrap() {
        RunOutcome::Paused(ck) => *ck,
        RunOutcome::Done(_) => panic!("the run ended before slot {slot}"),
    }
}

fn trace(s: &Scenario) -> (SimResult, SlotTrace) {
    let mut rec = s.trace_recorder(1);
    let r = s.run_with(&mut rec).unwrap();
    let t = rec.into_trace(&r.scheduler);
    (r, t)
}

fn live_events() -> Vec<LiveEvent> {
    let request = format_segment_request("user\"7\"é", 3, 312.5, Some(2048.0));
    vec![
        LiveEvent::Arrive {
            user: 0,
            slot: 0,
            request: None,
        },
        LiveEvent::Arrive {
            user: usize::MAX,
            slot: u64::MAX,
            request: Some(String::from_utf8(request.to_vec()).unwrap()),
        },
        LiveEvent::Arrive {
            user: 3,
            slot: 17,
            request: Some("\u{0}\t\\ 😀 \u{1f}".to_string()),
        },
        LiveEvent::Depart { user: 3, slot: 40 },
    ]
}

#[test]
fn socket_types_round_trip() {
    for cmd in [
        GwCommand::Subscribe,
        GwCommand::Feed {
            events: live_events(),
        },
        GwCommand::Feed { events: vec![] },
        GwCommand::Status,
        GwCommand::Start,
        GwCommand::Shutdown,
    ] {
        round_trips(&cmd);
        assert_eq!(
            parse_command(&serde_json::to_string(&cmd).unwrap()),
            Ok(cmd)
        );
    }
    for ev in live_events() {
        round_trips(&ev);
    }
    for ev in [
        GwEvent::Started { slots: 1_500 },
        GwEvent::Resumed { slot: 300 },
        GwEvent::ColdStart {
            reason: "corrupt: \"parse\"\n".into(),
        },
        GwEvent::Checkpoint { slot: 0 },
        GwEvent::DeadlineOverrun {
            slot: 9,
            action: "drop".into(),
        },
        GwEvent::SubscriberDropped { total: u64::MAX },
        GwEvent::Warning {
            message: "ü".into(),
        },
        GwEvent::Degraded { slot: 12 },
        GwEvent::Done { slots_run: 1_500 },
    ] {
        round_trips(&ev);
    }
    round_trips(&GwStatus {
        state: SvcState::Holding,
        slot: 0,
        slots: 1_500,
        watching: 30,
        policy: "stall".into(),
        dropped_slots: 0,
        dropped_subscribers: 2,
        last_checkpoint_slot: None,
        warnings: vec!["a".into(), String::new()],
    });
    for e in [
        ProtocolError::Parse { reason: "x".into() },
        ProtocolError::Reject { reason: "y".into() },
        ProtocolError::LineTooLong { limit: 65_536 },
    ] {
        round_trips(&e);
    }
}

#[test]
fn run_types_round_trip() {
    for s in [open_cell(), vbr_cell(), Scenario::paper_default(4)] {
        round_trips(&s);
    }
    for s in [open_cell(), vbr_cell()] {
        let (result, t) = trace(&s);
        round_trips(&result);
        round_trips(&t.meta);
        for record in &t.records {
            round_trips(record);
        }
        let text = t.to_jsonl();
        assert_eq!(SlotTrace::from_jsonl(&text).unwrap(), t);
    }
    let (_, open) = trace(&open_cell());
    let carried =
        |key: &str| (open.records.iter()).any(|r| serde_json::to_string(r).unwrap().contains(key));
    for key in ["\"adm\":", "\"abr\":", "\"faults\":", "\"live\":"] {
        assert!(carried(key), "the open cell's trace carries {key}");
    }

    // Mid-run sidecars: admission with deferrals outstanding, ABR and
    // faults in one; VBR rates and EMA queues in the other.
    for (s, slot, carries) in [
        (open_cell(), 100, "\"admission\":{"),
        (vbr_cell(), 70, "\"rates_kbps\":["),
    ] {
        let json = sidecar(&s, slot).to_json().unwrap();
        assert!(json.contains(carries), "{carries}");
        let back = EngineCheckpoint::from_json(&json).unwrap();
        assert_eq!(back.slot(), slot);
        assert_eq!(back.to_json().unwrap(), json);
    }
}

/// xorshift64: the fuzz loop's only randomness, so a failure replays.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// One damaged copy of `text`: a cut, a byte swapped for one the reader
/// cares about, a span deleted or repeated, or a run of brackets or
/// escapes dropped in. Always valid UTF-8.
fn damage(text: &str, rng: &mut Rng) -> String {
    const BYTES: &[u8] = b"\"\\{}[],:-.0123456789eE+ntfu \n";
    let boundary = |rng: &mut Rng| {
        let mut at = rng.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let (a, b) = {
        let (x, y) = (boundary(rng), boundary(rng));
        (x.min(y), x.max(y))
    };
    match rng.below(6) {
        0 => text[..a].to_string(),
        1 => {
            let mut bytes = text.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len());
                if bytes.get(at).is_some_and(u8::is_ascii) {
                    bytes[at] = BYTES[rng.below(BYTES.len())];
                }
            }
            String::from_utf8(bytes).unwrap()
        }
        2 => format!("{}{}", &text[..a], &text[b..]),
        3 => format!("{}{}", &text[..b], &text[a..]),
        4 => {
            let filler = ["[", "{\"a\":", "\\u00", "\"", "-", "1e99"][rng.below(6)];
            format!(
                "{}{}{}",
                &text[..a],
                filler.repeat(1 + rng.below(200)),
                &text[a..]
            )
        }
        _ => format!("{}{}", &text[..a], &text[a..].replacen(':', ",", 1)),
    }
}

/// Seeded and bounded, so it runs in Tier-1 as it is: 2 000 damaged
/// socket lines, 150 damaged sidecars and 150 damaged traces.
#[test]
fn damaged_inputs_end_in_typed_errors() {
    let mut rng = Rng(0x00f0_22ed_5eed_0001);

    let lines: Vec<String> = [
        GwCommand::Feed {
            events: live_events(),
        },
        GwCommand::Subscribe,
        GwCommand::Shutdown,
    ]
    .iter()
    .map(|c| serde_json::to_string(c).unwrap())
    .collect();
    let (mut ok, mut refused) = (0, 0);
    for _ in 0..2_000 {
        let line = damage(&lines[rng.below(lines.len())], &mut rng);
        match parse_command(&line) {
            Ok(cmd) => {
                ok += 1;
                let again = serde_json::to_string(&cmd).unwrap();
                assert_eq!(parse_command(&again), Ok(cmd));
                if let GwCommand::Feed { events } = parse_command(&again).unwrap() {
                    for ev in events {
                        if let LiveEvent::Arrive {
                            request: Some(r), ..
                        } = ev
                        {
                            let _ = declared_rate_from_request(&r);
                        }
                    }
                }
            }
            Err(ProtocolError::Parse { reason }) => {
                refused += 1;
                assert!(!reason.is_empty());
            }
            Err(other) => panic!("a line under the cap is a parse error: {other:?}"),
        }
    }
    assert!(ok > 0 && refused > 1_000, "{ok} read, {refused} refused");

    let sidecars = [
        sidecar(&open_cell(), 100).to_json().unwrap(),
        sidecar(&vbr_cell(), 70).to_json().unwrap(),
    ];
    for _ in 0..150 {
        let text = damage(&sidecars[rng.below(2)], &mut rng);
        if let Ok(ck) = EngineCheckpoint::from_json(&text) {
            ck.to_json().unwrap();
        }
    }

    let traces = [
        trace(&open_cell()).1.to_jsonl(),
        trace(&vbr_cell()).1.to_jsonl(),
    ];
    for _ in 0..150 {
        let text = damage(&traces[rng.below(2)], &mut rng);
        if let Ok(t) = SlotTrace::from_jsonl(&text) {
            t.to_jsonl();
        }
    }
}

// ---------------------------------------------------------------------------
// Feed lines: streamed to the engine ≡ parsed whole, then applied in order
// ---------------------------------------------------------------------------

/// The live cell feed lines schedule: six users, so most fuzzed events
/// name one of them.
fn ingest_cell() -> Scenario {
    let mut s = Scenario::paper_default(6);
    s.slots = 200;
    s
}

/// A segment request declaring `kbps`, as a feed line carries it.
fn request(user: usize, kbps: f64) -> Option<String> {
    let wire = format_segment_request(&format!("user{user}"), 0, kbps, None);
    Some(String::from_utf8(wire.to_vec()).unwrap())
}

/// The daemon's reply to a line it refuses.
fn refusal(e: &ProtocolError) -> String {
    format!(
        r#"{{"ok":false,"error":{}}}"#,
        serde_json::to_string(e).unwrap()
    )
}

/// One event of the reference path: DPI on its request, then the
/// schedule change.
fn apply_one(driver: &mut SlotDriver, ev: &LiveEvent) -> Result<(), ProtocolError> {
    let reject = |e: ScenarioError| ProtocolError::Reject {
        reason: e.to_string(),
    };
    match ev {
        LiveEvent::Arrive {
            user,
            slot,
            request,
        } => {
            if let Some(req) = request {
                let rate = declared_rate_from_request(req)?;
                driver.set_declared_rate(*user, rate).map_err(reject)?;
            }
            driver.set_arrival(*user, *slot).map_err(reject)
        }
        LiveEvent::Depart { user, slot } => driver.set_departure(*user, *slot).map_err(reject),
    }
}

/// The reference path: each line through `parse_command`, then its
/// events applied in order up to the first rejection. The replies, and
/// the sidecar of the schedule the lines left.
fn parsed_then_applied(lines: &[String]) -> (Vec<String>, String) {
    let cell = ingest_cell();
    let mut rec = cell.trace_recorder(1).with_live_counts();
    let mut driver = cell.driver(&mut rec, None).unwrap();
    driver.defer_all_arrivals().unwrap();
    let replies = lines
        .iter()
        .map(|line| {
            let applied = parse_command(line).and_then(|cmd| match cmd {
                GwCommand::Feed { events } => {
                    events.iter().try_for_each(|ev| apply_one(&mut driver, ev))
                }
                other => panic!("only feed lines are served here, not {other:?}"),
            });
            match applied {
                Ok(()) => r#"{"ok":true}"#.to_string(),
                Err(e) => refusal(&e),
            }
        })
        .collect();
    (replies, driver.checkpoint(&rec).unwrap().to_json().unwrap())
}

/// A connection's two directions: the lines a client sends, and what the
/// handler writes back.
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

/// The daemon's path: the lines through the connection handler to a
/// holding ingest service, whose engine thread takes each feed line off
/// its stream; then a shutdown, whose sidecar holds the schedule. The
/// replies, and that sidecar.
fn streamed(lines: &[String]) -> (Vec<String>, String) {
    static RUN: AtomicUsize = AtomicUsize::new(0);
    let ckpt = std::env::temp_dir().join(format!(
        "jmso-wire-{}-{}.json",
        std::process::id(),
        RUN.fetch_add(1, Ordering::SeqCst)
    ));
    let mut cfg = ServeConfig::new(ingest_cell());
    cfg.ingest = true;
    cfg.ckpt_path = Some(ckpt.clone());
    let (bus, fanout) = (Arc::new(CommandBus::new(16)), Arc::new(FanOut::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let svc = LiveService::build(cfg, bus.clone(), fanout.clone(), stop, 0).unwrap();
    let engine = std::thread::spawn(move || svc.run());
    let mut conn = Duplex {
        input: Cursor::new(lines.join("\n").into_bytes()),
        output: Vec::new(),
    };
    handle_connection(&mut conn, &bus, &fanout);
    let (tx, _rx) = sync_channel(1);
    bus.push(Command::Shutdown { reply: tx }).unwrap();
    let outcome = engine.join().unwrap().unwrap();
    assert_eq!(outcome, Outcome::Interrupted { at_slot: 0 });
    let sidecar = std::fs::read_to_string(&ckpt).unwrap();
    std::fs::remove_file(&ckpt).unwrap();
    let replies = String::from_utf8(conn.output).unwrap();
    (replies.lines().map(String::from).collect(), sidecar)
}

/// Seeded like the loop above: 1 200 damaged feed lines, in batches of
/// 60 (three edge lines join the first), each batch served by one daemon
/// and by the reference path. Every
/// line's reply must match byte for byte, and every batch must leave the
/// same schedule (the sidecar: each user's arrival, departure and
/// declared rate, byte for byte).
#[test]
fn streamed_feed_lines_answer_and_apply_as_parsed_ones() {
    let mut rng = Rng(0x00f0_22ed_5eed_0002);
    let arrive = |user, slot, request| LiveEvent::Arrive {
        user,
        slot,
        request,
    };
    let lines: Vec<String> = [
        vec![
            arrive(0, 5, None),
            arrive(1, 9, request(1, 450.0)),
            LiveEvent::Depart { user: 0, slot: 40 },
            arrive(2, 3, request(2, 312.5)),
            LiveEvent::Depart { user: 1, slot: 20 },
        ],
        vec![
            arrive(3, 7, request(3, 600.0)),
            arrive(4, 8, Some("GET / HTTP/1.1\r\n\r\n".into())),
            arrive(5, 1, None),
        ],
        vec![
            arrive(9, 1, None),
            arrive(5, 30, request(5, 275.0)),
            arrive(0, 2, Some("POST /x HTTP/1.1\r\n\r\n".into())),
        ],
    ]
    .into_iter()
    .map(|events| serde_json::to_string(&GwCommand::Feed { events }).unwrap())
    .collect();
    let (mut oks, mut rejects) = (0, 0);
    // Shapes a damaged line seldom takes: text after the object, the tag
    // last, a repeated `events` key.
    let depart = r#"{"kind":"depart","user":1,"slot":30}"#;
    let mut edges = vec![
        format!(r#"{{"cmd":"feed","events":[{depart}]}} x"#),
        format!(r#"{{"events":[{depart}],"cmd":"feed"}}"#),
        format!(r#"{{"cmd":"feed","events":[],"events":[{depart}]}}"#),
    ];
    for _ in 0..20 {
        let mut batch: Vec<String> =
            std::iter::repeat_with(|| damage(&lines[rng.below(lines.len())], &mut rng))
                // What a connection would frame as this one line, and no other
                // command: those are not feeds.
                .filter(|l| !l.contains(['\n', '\r']) && !l.trim().is_empty())
                .filter(
                    |l| !matches!(parse_command(l), Ok(c) if !matches!(c, GwCommand::Feed { .. })),
                )
                .take(60)
                .collect();
        batch.append(&mut edges);
        let (replies, sidecar) = streamed(&batch);
        let (want, want_sidecar) = parsed_then_applied(&batch);
        for ((line, got), want) in batch.iter().zip(&replies).zip(&want) {
            assert_eq!(got, want, "{line}");
        }
        assert_eq!(replies.len(), batch.len());
        assert_eq!(sidecar, want_sidecar);
        oks += want
            .iter()
            .filter(|r| r.starts_with(r#"{"ok":true"#))
            .count();
        rejects += want
            .iter()
            .filter(|r| r.contains("\"kind\":\"reject\""))
            .count();
    }
    assert!(
        oks > 50 && rejects > 50,
        "{oks} applied, {rejects} rejected"
    );
}

/// A feed line as long as the cap allows: arrivals with requests whose
/// declared rates all differ, so the schedule left shows how far it was
/// applied. Its events, printed one by one.
fn full_line_events() -> Vec<String> {
    let frame = r#"{"cmd":"feed","events":[]}"#.len();
    let mut events = Vec::new();
    let mut len = frame;
    for i in 0.. {
        let ev = LiveEvent::Arrive {
            user: i % 6,
            slot: 10 + (i % 50) as u64,
            request: request(i % 6, 300.0 + i as f64),
        };
        let text = serde_json::to_string(&ev).unwrap();
        if len + text.len() + 1 > MAX_LINE_BYTES {
            break;
        }
        len += text.len() + 1;
        events.push(text);
    }
    events
}

fn feed_line(events: &[String]) -> String {
    format!(r#"{{"cmd":"feed","events":[{}]}}"#, events.join(","))
}

/// Full feed lines, damaged at one event in the first, a middle and the
/// last of the chunks the daemon streams them in. A malformed event
/// applies nothing of its line; a request DPI refuses applies the events
/// before it, and the reply names DPI.
#[test]
fn a_full_feed_line_applies_all_of_itself_or_up_to_its_rejection() {
    let events = full_line_events();
    let n = events.len();
    assert!(n > 300, "{n} events fill a line");
    let (_, untouched) = streamed(&[]);
    for at in [3, n / 2, n - 2] {
        let mut malformed = events.clone();
        malformed[at] = r#"{"kind":"arrive","user":1}"#.into();
        let line = feed_line(&malformed);
        let (replies, sidecar) = streamed(std::slice::from_ref(&line));
        assert_eq!(
            (replies.clone(), sidecar.clone()),
            parsed_then_applied(&[line])
        );
        assert!(replies[0].contains(r#""kind":"parse""#), "{}", replies[0]);
        assert_eq!(
            sidecar, untouched,
            "a malformed event at {at} applies nothing"
        );

        let mut refused_at = events.clone();
        let request = r#""request":"POST /x HTTP/1.1\r\n\r\n"}"#;
        refused_at[at] = format!(r#"{{"kind":"arrive","user":2,"slot":4,{request}"#);
        let line = feed_line(&refused_at);
        let (replies, sidecar) = streamed(std::slice::from_ref(&line));
        assert_eq!(
            (replies.clone(), sidecar.clone()),
            parsed_then_applied(&[line])
        );
        assert!(replies[0].contains("dpi:"), "{}", replies[0]);
        let (_, before) = parsed_then_applied(&[feed_line(&events[..at])]);
        assert_eq!(sidecar, before, "the events before {at} apply");
        assert_ne!(sidecar, untouched);
    }
}

/// A float literal beyond `f64::MAX` in a sidecar is refused where it is
/// read, with a typed error — not carried on as an infinity that the next
/// sidecar would print as `null`.
#[test]
fn a_sidecar_with_an_overflowing_float_is_refused() {
    let json = sidecar(&open_cell(), 100).to_json().unwrap();
    let key = "\"tau\":";
    let at = json.find(key).expect("a tau field") + key.len();
    let len = json[at..].find([',', '}']).unwrap();
    assert!(
        json[at..at + len].parse::<f64>().is_ok(),
        "{}",
        &json[at..at + len]
    );
    let bad = format!("{}1e999{}", &json[..at], &json[at + len..]);
    match EngineCheckpoint::from_json(&bad) {
        Err(jmso_sim::CheckpointError::Corrupt { reason }) => {
            assert!(reason.contains("number out of range `1e999`"), "{reason}");
        }
        other => panic!("read as {:?}", other.map(|_| "a checkpoint")),
    }
}
