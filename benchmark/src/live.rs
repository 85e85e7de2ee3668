//! `gateway-live`: the real `jmso-gateway serve --ingest --policy stall`
//! process over a Unix socket on the host's loopback, with no
//! `--slot-ms`, so all time is the program's work and none is sleep.
//!
//! The generator is this process with two threads and two connections:
//! a feeder, closed loop (it waits for each reply before it sends the
//! next command), and a subscriber that consumes every telemetry line.
//! One daemon life is: spawn → socket accepting (`setup_s`) → phase A,
//! the scripted feed while the daemon holds (`ingest_events_per_s`) →
//! phase B, `start` to the `done` event with the feeder polling `status`
//! back to back (`slots_per_s`, `cmd_rtt_p50_us`) → exit
//! (`peak_rss_mb`). A run repeats lives until `--seconds` are measured.

use crate::alloc::allocations;
use crate::batch::{result_digest, spans_header};
use crate::feed::{feed_lines, live_plan, LivePlan, LIVE_CKPT_EVERY, MIN_FEED_EVENTS};
use crate::fixtures;
use crate::metrics::{Outcome, END_TO_END, PER_LAYER};
use crate::proc::{reap, self_peak_rss_mb};
use crate::spans::{SpanRecorder, SpanStore};
use crate::stats::{digest, file_digest, median, percentile};
use crate::workloads::{check_committed, write_spans};
use crate::{out_dir, SPAN_CAP};
use jmso_gateway::LiveEvent;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::time::{Duration, Instant};

/// How long the harness waits for the daemon to accept, answer or exit
/// before it gives up on a life.
const PATIENCE: Duration = Duration::from_secs(60);

type Res<T> = Result<T, String>;

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The daemon binary the benchmark's build step produced.
fn gateway_bin() -> Res<PathBuf> {
    let path = std::env::var_os("JMSO_GATEWAY_BIN").map_or_else(
        || {
            let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into());
            PathBuf::from(target).join("release/jmso-gateway")
        },
        PathBuf::from,
    );
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; run benchmark/run.sh",
            path.display()
        ))
    }
}

/// A spawned daemon; killed and waited for if a life is cut short.
struct Daemon(Option<Child>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Files of one run, under the benchmark's own output directory. The
/// socket path stays relative: a Unix socket address holds 108 bytes.
struct Files {
    dir: PathBuf,
}

impl Files {
    fn new() -> Res<Self> {
        let dir = out_dir().join(format!("live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(io_err("creating the run directory"))?;
        Ok(Self { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn spawn_daemon(files: &Files, extra: &[String]) -> Res<(Daemon, Instant)> {
    let log = std::fs::File::create(files.path("daemon.log")).map_err(io_err("daemon log"))?;
    let mut cmd = Command::new(gateway_bin()?);
    cmd.arg("serve")
        .arg(files.path("scenario.live.json"))
        .arg("--listen")
        .arg(format!("unix:{}", files.path("gw.sock").display()))
        .args(["--ingest", "--policy", "stall", "--trace"])
        .arg(files.path("live.trace.jsonl"))
        .arg("--ckpt")
        .arg(files.path("ckpt.json"))
        .args(["--ckpt-every", &LIVE_CKPT_EVERY.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    let t_spawn = Instant::now();
    let child = cmd.spawn().map_err(io_err("spawning jmso-gateway"))?;
    Ok((Daemon(Some(child)), t_spawn))
}

/// Connect as soon as the daemon accepts.
fn connect(files: &Files, daemon: &mut Daemon, since: Instant) -> Res<UnixStream> {
    let sock = files.path("gw.sock");
    loop {
        match UnixStream::connect(&sock) {
            Ok(s) => return Ok(s),
            Err(e) if since.elapsed() > PATIENCE => return Err(format!("connecting: {e}")),
            Err(_) => {}
        }
        if let Some(child) = daemon.0.as_mut() {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("jmso-gateway exited before accepting: {status}"));
            }
        }
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// One closed-loop protocol client.
struct Client(BufReader<UnixStream>);

impl Client {
    fn new(stream: UnixStream) -> Res<Self> {
        stream
            .set_read_timeout(Some(PATIENCE))
            .map_err(io_err("socket timeout"))?;
        Ok(Self(BufReader::with_capacity(1 << 16, stream)))
    }

    /// Send one line and wait for its reply. `None` when the daemon has
    /// closed the connection.
    fn roundtrip(&mut self, line: &str) -> Option<(String, Instant, Instant)> {
        let sent = Instant::now();
        let w = self.0.get_mut();
        w.write_all(line.as_bytes()).ok()?;
        w.write_all(b"\n").ok()?;
        let mut reply = String::new();
        match self.0.read_line(&mut reply) {
            Ok(n) if n > 0 => Some((reply, sent, Instant::now())),
            _ => None,
        }
    }
}

fn is_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// The unsigned integer after `"key":` in a JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// What the subscriber saw.
struct SubLog {
    records: u64,
    /// Arrival time of each slot record (traced pass only).
    record_times: Vec<Instant>,
    /// Records received when each `checkpoint` event arrived.
    ckpt_at: Vec<usize>,
    slots_run: Option<u64>,
    t_done: Option<Instant>,
    /// When the stream ended.
    t_end: Instant,
    t_panic: Option<Instant>,
    t_resumed: Option<Instant>,
    /// `subscriber_dropped` events seen.
    dropped_events: u64,
}

/// The subscriber thread: subscribe, then consume lines until the
/// daemon ends the stream. Sets `over` when the run is over (a `done`
/// event or the end of the stream) and `resumed` on a `resumed` event.
fn subscriber(
    stream: UnixStream,
    keep_times: bool,
    ready: Sender<bool>,
    over: &AtomicBool,
    resumed: &AtomicBool,
) -> SubLog {
    let mut log = SubLog {
        records: 0,
        record_times: Vec::new(),
        ckpt_at: Vec::new(),
        slots_run: None,
        t_done: None,
        t_end: Instant::now(),
        t_panic: None,
        t_resumed: None,
        dropped_events: 0,
    };
    let Ok(mut client) = Client::new(stream) else {
        let _ = ready.send(false);
        return log;
    };
    let subscribed = client.roundtrip("{\"cmd\":\"subscribe\"}");
    let _ = ready.send(subscribed.is_some_and(|(reply, ..)| is_ok(&reply)));
    let mut line = Vec::with_capacity(1 << 15);
    loop {
        line.clear();
        match client.0.read_until(b'\n', &mut line) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
        let now = Instant::now();
        if line.starts_with(b"{\"slot\":") {
            log.records += 1;
            if keep_times {
                log.record_times.push(now);
            }
            continue;
        }
        let text = String::from_utf8_lossy(&line);
        if text.contains("\"event\":\"checkpoint\"") {
            log.ckpt_at.push(log.records as usize);
        } else if text.contains("\"event\":\"done\"") {
            log.slots_run = json_u64(&text, "slots_run");
            log.t_done = Some(now);
            // SeqCst throughout: flags between two threads, the default.
            over.store(true, Ordering::SeqCst);
        } else if text.contains("\"event\":\"resumed\"") {
            log.t_resumed = Some(now);
            resumed.store(true, Ordering::SeqCst);
        } else if text.contains("\"event\":\"subscriber_dropped\"") {
            log.dropped_events += 1;
        } else if text.contains("engine task panicked") {
            log.t_panic = Some(now);
        }
    }
    log.t_end = Instant::now();
    over.store(true, Ordering::SeqCst);
    log
}

/// One daemon life, measured.
struct Life {
    setup_s: f64,
    ingest_events_per_s: f64,
    slots_per_s: f64,
    peak_rss_mb: f64,
    feed_rtt_us: Vec<f64>,
    status_rtt_us: Vec<f64>,
    sub: SubLog,
    /// Commands the daemon answered with an error.
    rejects: u64,
    dropped_slots: u64,
    trace_digest: String,
}

/// Command spans of the traced pass hang under one span per life.
struct Tracing<'a> {
    store: &'a mut SpanStore,
    rep: u32,
}

fn life(
    files: &Files,
    lines: &[(String, usize)],
    out: &mut Outcome,
    mut tracing: Option<Tracing>,
) -> Res<Life> {
    let failed_before = out.failed;
    // The child's `ru_maxrss` starts from this process's own high-water
    // mark (the kernel carries it across `exec`), so the daemon's figure
    // is only its own if it ends above ours.
    let own_rss_mb = self_peak_rss_mb();
    let (mut daemon, t_spawn) = spawn_daemon(files, &[])?;
    let feeder = connect(files, &mut daemon, t_spawn)?;
    let t_accepting = Instant::now();
    let mut feeder = Client::new(feeder)?;
    let sub_stream = connect(files, &mut daemon, t_spawn)?;

    let (over, resumed) = (AtomicBool::new(false), AtomicBool::new(false));
    let (ready_tx, ready_rx) = channel();
    let keep_times = tracing.is_some();
    let mut feed_rtt_us = Vec::with_capacity(lines.len());
    let mut status_rtt_us = Vec::new();
    let mut last_status = String::new();

    let (sub, ingest_s, t_start_ack) = std::thread::scope(|scope| -> Res<_> {
        let sub = scope.spawn(|| subscriber(sub_stream, keep_times, ready_tx, &over, &resumed));
        if !ready_rx.recv_timeout(PATIENCE).unwrap_or(false) {
            return Err("the subscriber was not accepted".into());
        }

        // Phase A: the scripted feed, while the daemon holds at slot 0.
        let mut cmd_spans = Vec::new();
        let t_a0 = Instant::now();
        for (line, events) in lines {
            let Some((reply, sent, got)) = feeder.roundtrip(line) else {
                return Err("the daemon closed the feeder's connection in phase A".into());
            };
            out.op(is_ok(&reply), || {
                format!("feed of {events} events rejected: {reply}")
            });
            feed_rtt_us.push((got - sent).as_secs_f64() * 1e6);
            cmd_spans.push(("svc.cmd.feed", sent, got));
        }
        let t_a1 = Instant::now();

        // Phase B: start, then poll status until the run is over.
        let Some((reply, sent, got)) = feeder.roundtrip("{\"cmd\":\"start\"}") else {
            return Err("the daemon closed the feeder's connection at start".into());
        };
        out.op(is_ok(&reply), || format!("start rejected: {reply}"));
        let t_start_ack = got;
        let mut b_spans = vec![("svc.cmd.start", sent, got)];
        while !over.load(Ordering::SeqCst) {
            let Some((reply, sent, got)) = feeder.roundtrip("{\"cmd\":\"status\"}") else {
                break;
            };
            // A poll that crosses the end of the run may go unanswered.
            if !is_ok(&reply) && over.load(Ordering::SeqCst) {
                break;
            }
            out.op(is_ok(&reply), || format!("status rejected: {reply}"));
            status_rtt_us.push((got - sent).as_secs_f64() * 1e6);
            if keep_times {
                b_spans.push(("svc.cmd.status", sent, got));
            }
            last_status = reply;
        }
        let t_b1 = Instant::now();
        if let Some(t) = tracing.as_mut() {
            let (store, rep) = (&mut *t.store, t.rep);
            let root = store.add("svc.life", 0, rep, t_spawn, t_b1);
            store.add("svc.spawn", root, rep, t_spawn, t_accepting);
            let a = store.add("svc.phase_a", root, rep, t_a0, t_a1);
            for (name, s, e) in cmd_spans {
                store.add(name, a, rep, s, e);
            }
            let b = store.add("svc.phase_b", root, rep, t_a1, t_b1);
            for (name, s, e) in b_spans {
                store.add(name, b, rep, s, e);
            }
        }
        let sub = sub
            .join()
            .map_err(|_| "the subscriber thread panicked".to_string())?;
        Ok((sub, (t_a1 - t_a0).as_secs_f64(), t_start_ack))
    })?;

    // Every operation so far was a command.
    let rejects = out.failed - failed_before;
    let child = daemon.0.take().ok_or("daemon already reaped")?;
    let reaped = reap(child).map_err(io_err("waiting for jmso-gateway"))?;
    out.op(reaped.code == Some(0), || {
        format!("jmso-gateway exited with {:?}", reaped.code)
    });
    out.op(reaped.peak_rss_mb > own_rss_mb, || {
        format!(
            "daemon peak RSS {} MB is not above the harness's {own_rss_mb} MB, so it is not its own",
            reaped.peak_rss_mb
        )
    });

    // The daemon's trace header says how many slots ran. The stream
    // should say so too, in a `done` event; but the daemon exits without
    // waiting for its connection threads, so now and then the last queued
    // lines are lost (README "Findings"). The end of the stream then
    // stands in for the event, a moment later.
    let trace = files.path("live.trace.jsonl");
    let header = std::fs::File::open(&trace)
        .and_then(|f| {
            let mut line = String::new();
            BufReader::new(f).read_line(&mut line).map(|_| line)
        })
        .map_err(io_err("daemon trace"))?;
    let slots_run = json_u64(&header, "slots").ok_or("the daemon's trace has no header")?;
    out.op(sub.slots_run.is_none_or(|n| n == slots_run), || {
        format!(
            "done event reports {:?} slots, the trace {slots_run}",
            sub.slots_run
        )
    });
    let done = sub.t_done.unwrap_or(sub.t_end);
    // Each slot is an operation: dropped ones failed. So did the
    // subscriber's stream if the daemon evicted it.
    let dropped_slots = json_u64(&last_status, "dropped_slots").unwrap_or(0);
    out.attempted += slots_run;
    out.failed += dropped_slots;
    let evicted = sub.dropped_events > 0 || sub.records != slots_run;
    out.op(!evicted, || {
        format!(
            "subscriber evicted or starved: {} records of {slots_run} slots",
            sub.records
        )
    });

    let len = std::fs::metadata(&trace).map_or(0, |m| m.len());
    let trace_digest = format!(
        "{len}:{}",
        file_digest(&trace).map_err(io_err("daemon trace"))?
    );
    let _ = std::fs::remove_file(&trace);

    let events: usize = lines.iter().map(|(_, n)| n).sum();
    Ok(Life {
        setup_s: (t_accepting - t_spawn).as_secs_f64(),
        ingest_events_per_s: events as f64 / ingest_s,
        slots_per_s: slots_run as f64 / (done - t_start_ack).as_secs_f64(),
        peak_rss_mb: reaped.peak_rss_mb,
        feed_rtt_us,
        status_rtt_us,
        sub,
        rejects,
        dropped_slots,
        trace_digest,
    })
}

/// The batch trace the daemon's file must equal byte for byte: what
/// `jmso-sim run --trace` writes for the declared-arrival scenario.
/// Returns its digest, its size per slot and the traced batch speed
/// (run and serialisation, as the daemon's figure has both; no file).
fn batch_trace(plan: &LivePlan) -> Res<(String, f64, f64)> {
    let t = Instant::now();
    let (result, trace) = plan.batch.run_traced(1).map_err(|e| e.to_string())?;
    let text = trace.to_jsonl();
    let batch_slots_per_s = result.slots_run as f64 / t.elapsed().as_secs_f64();
    let bytes_per_slot = text.len() as f64 / result.slots_run as f64;
    Ok((
        format!("{}:{}", text.len(), digest(text.as_bytes())),
        bytes_per_slot,
        batch_slots_per_s,
    ))
}

struct Inputs {
    files: Files,
    plan: LivePlan,
    lines: Vec<(String, usize)>,
}

fn inputs(seed: u64) -> Res<Inputs> {
    let files = Files::new()?;
    let plan = live_plan(seed);
    let scenario = serde_json::to_string_pretty(&plan.live).map_err(|e| format!("{e:?}"))?;
    std::fs::write(files.path("scenario.live.json"), scenario).map_err(io_err("scenario"))?;
    let lines = feed_lines(&plan.feed_events(seed, MIN_FEED_EVENTS));
    Ok(Inputs { files, plan, lines })
}

fn inp_note(lines: &[(String, usize)], lives: usize) -> String {
    let events: usize = lines.iter().map(|(_, n)| n).sum();
    format!(
        "{lives} daemon lives, each fed {events} session events in {} lines",
        lines.len()
    )
}

fn check_trace(out: &mut Outcome, lives: &[Life], want: &str) {
    for (i, l) in lives.iter().enumerate() {
        out.op(l.trace_digest == want, || {
            format!(
                "life {i}: the daemon's trace is not the batch trace ({} vs {want})",
                l.trace_digest
            )
        });
    }
}

/// The end-to-end pass: lives until `seconds` have been measured.
pub fn end_to_end(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::new(&END_TO_END);
    let Inputs { files, plan, lines } = inputs(seed)?;
    let mut lives = Vec::new();
    let t0 = Instant::now();
    while lives.len() < 3 || t0.elapsed().as_secs_f64() < seconds {
        lives.push(life(&files, &lines, &mut out, None)?);
    }
    // After the last spawn: see `life` on why this process stays small
    // until then.
    let (want, ..) = batch_trace(&plan)?;
    check_trace(&mut out, &lives, &want);
    check_committed(&mut out, "gateway-live", seed, &want);

    let n = lives.len();
    out.notes.push(inp_note(&lines, n));
    let col = |f: fn(&Life) -> f64| lives.iter().map(f).collect::<Vec<f64>>();
    out.set("setup_s", median(&col(|l| l.setup_s)), n);
    out.set("slots_per_s", median(&col(|l| l.slots_per_s)), n);
    out.set("peak_rss_mb", median(&col(|l| l.peak_rss_mb)), n);
    out.set(
        "ingest_events_per_s",
        median(&col(|l| l.ingest_events_per_s)),
        n,
    );
    let rtts: Vec<f64> = lives
        .iter()
        .flat_map(|l| l.status_rtt_us.iter().copied())
        .collect();
    out.set("cmd_rtt_p50_us", median(&rtts), rtts.len());
    Ok(out)
}

/// `--fail-at` panic → `resumed` event, as the subscriber sees it, ms.
fn restart_gap(inp: &Inputs, out: &mut Outcome) -> Res<f64> {
    let fail_at = LIVE_CKPT_EVERY * 3 / 2;
    let extra = ["--fail-at", &fail_at.to_string(), "--backoff-ms", "1"].map(String::from);
    let (mut daemon, t_spawn) = spawn_daemon(&inp.files, &extra)?;
    let mut feeder = Client::new(connect(&inp.files, &mut daemon, t_spawn)?)?;
    let sub_stream = connect(&inp.files, &mut daemon, t_spawn)?;
    let (over, resumed) = (AtomicBool::new(false), AtomicBool::new(false));
    let (ready_tx, ready_rx) = channel();
    // The final pass alone: the schedule matters here, not the load.
    let final_pass = inp.plan.final_pass();
    let sub = std::thread::scope(|scope| -> Res<SubLog> {
        let sub = scope.spawn(|| subscriber(sub_stream, false, ready_tx, &over, &resumed));
        if !ready_rx.recv_timeout(PATIENCE).unwrap_or(false) {
            return Err("the subscriber was not accepted".into());
        }
        let start = ("{\"cmd\":\"start\"}".to_string(), 0);
        for (line, _) in feed_lines(&final_pass).iter().chain([&start]) {
            let reply = feeder.roundtrip(line).map(|(reply, ..)| reply);
            out.op(reply.as_deref().is_some_and(is_ok), || {
                format!("rejected: {reply:?}")
            });
        }
        let t0 = Instant::now();
        while !resumed.load(Ordering::SeqCst) && !over.load(Ordering::SeqCst) {
            if t0.elapsed() > PATIENCE {
                return Err("no resumed event after the injected panic".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The gap is measured; end the life without running it out.
        let _ = feeder.roundtrip("{\"cmd\":\"shutdown\"}");
        sub.join()
            .map_err(|_| "the subscriber thread panicked".to_string())
    })?;
    let child = daemon.0.take().ok_or("daemon already reaped")?;
    let reaped = reap(child).map_err(io_err("waiting for jmso-gateway"))?;
    out.op(reaped.code == Some(0), || {
        format!("restarted daemon exited with {:?}", reaped.code)
    });
    match (sub.t_panic, sub.t_resumed) {
        (Some(p), Some(r)) => Ok((r - p).as_secs_f64() * 1e3),
        _ => Err("the subscriber saw no panic warning followed by a resumed event".into()),
    }
}

/// The daemon's use of `sim`, replayed in process under a
/// `SpanRecorder`: build a driver, apply the final schedule, step one
/// slot at a time, finish. Gives the phase split and `sched.share` the
/// daemon itself cannot be asked for. Returns the result's digest.
fn stepped_replay(plan: &LivePlan, store: &mut SpanStore, out: &mut Outcome) -> Res<String> {
    let err = |e: jmso_sim::ScenarioError| e.to_string();
    let run = store.open("run", 0, 0);
    let loop_span = store.open("sim.loop", run, 0);
    let mut rec = SpanRecorder::new(store, 0, loop_span);
    let t_call = Instant::now();
    let mut driver = plan
        .live
        .driver(&mut rec, None)
        .map_err(|e| e.to_string())?;
    driver.defer_all_arrivals().map_err(err)?;
    for ev in plan.final_pass() {
        match ev {
            LiveEvent::Arrive {
                user,
                slot,
                request,
            } => {
                let req = request.unwrap_or_default();
                let rate =
                    jmso_gateway::declared_rate_from_request(&req).map_err(|e| e.to_string())?;
                driver.set_declared_rate(user, rate).map_err(err)?;
                driver.set_arrival(user, slot).map_err(err)?;
            }
            LiveEvent::Depart { user, slot } => driver.set_departure(user, slot).map_err(err)?,
        }
    }
    rec.totals.step_ns.reserve(plan.live.slots as usize);
    let t_built = Instant::now();
    let allocs = allocations();
    while driver.step(&mut rec).is_some() {}
    let allocs = allocations() - allocs;
    let t_stepped = Instant::now();
    let result = driver.finish(&mut rec);
    let t_finished = Instant::now();
    let t = std::mem::take(&mut rec.totals);
    store.set_times(run, t_call, t_finished);
    store.add("sim.build", run, 0, t_call, t_built);
    store.set_times(loop_span, t_built, t_stepped);
    store.add("sim.finish", run, 0, t_stepped, t_finished);

    t.report(out);
    let slot_time = (t.pre_ns + t.sample_collect_ns + t.allocate_ns + t.transmit_account_ns) as f64;
    let slots = t.slots as usize;
    out.set("sim.finish_s", (t_finished - t_stepped).as_secs_f64(), 1);
    out.set(
        "sim.user_slot_ns",
        slot_time / t.live_user_slots.max(1) as f64,
        slots,
    );
    out.set(
        "sim.allocs_per_slot",
        allocs as f64 / t.slots.max(1) as f64,
        slots,
    );
    out.set("sim.slots_run", t.slots as f64, 1);
    out.set("sim.live_user_slots", t.live_user_slots as f64, 1);
    out.set("sim.units_granted", t.units_granted as f64, 1);
    Ok(result_digest(&result))
}

/// The traced pass: lives alternately untraced and with a span per
/// socket command and the subscriber's clock on every record, for half
/// of `seconds`; then a life that panics and resumes, the in-process
/// replay, and the `gateway-live` fixtures.
pub fn traced(seed: u64, seconds: f64) -> Res<Outcome> {
    let mut out = Outcome::new(&PER_LAYER);
    let inp = inputs(seed)?;
    let mut store = SpanStore::new(SPAN_CAP);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.is_empty() || t0.elapsed().as_secs_f64() < seconds * 0.5 {
        plain.push(life(&inp.files, &inp.lines, &mut out, None)?);
        let tracing = Tracing {
            store: &mut store,
            rep: traced.len() as u32,
        };
        traced.push(life(&inp.files, &inp.lines, &mut out, Some(tracing))?);
    }
    let gap_ms = restart_gap(&inp, &mut out)?;
    out.set("svc.restart_gap_ms", gap_ms, 1);

    let (want, bytes_per_slot, batch_slots_per_s) = batch_trace(&inp.plan)?;
    check_trace(&mut out, &plain, &want);
    check_trace(&mut out, &traced, &want);
    check_committed(&mut out, "gateway-live", seed, &want);
    out.notes
        .push(inp_note(&inp.lines, plain.len() + traced.len()));
    let speed = |lives: &[Life]| median(&lives.iter().map(|l| l.slots_per_s).collect::<Vec<_>>());
    let n = traced.len();
    out.set("trace.overhead_ratio", speed(&plain) / speed(&traced), n);
    out.set("svc.vs_batch_ratio", speed(&plain) / batch_slots_per_s, n);
    // The rest describes one traced life: the last.
    let Some(l) = traced.last() else {
        unreachable!("at least one traced life ran")
    };
    let slots = l.sub.records as usize;
    out.set("sim.trace.bytes_per_slot", bytes_per_slot, slots);
    out.set(
        "svc.feed_rtt_p50_us",
        percentile(&l.feed_rtt_us, 0.50),
        l.feed_rtt_us.len(),
    );
    out.set(
        "svc.feed_rtt_p99_us",
        percentile(&l.feed_rtt_us, 0.99),
        l.feed_rtt_us.len(),
    );
    out.set(
        "svc.cmd_rtt_p99_us",
        percentile(&l.status_rtt_us, 0.99),
        l.status_rtt_us.len(),
    );

    // The subscriber's view: time between consecutive slot records, and
    // how much longer the gap is when a checkpoint was written in it.
    let times = &l.sub.record_times;
    let gaps: Vec<f64> = times
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
        .collect();
    let gap_p50 = percentile(&gaps, 0.50);
    out.set("svc.slot_gap_p50_us", gap_p50, gaps.len());
    out.set("svc.slot_gap_p99_us", percentile(&gaps, 0.99), gaps.len());
    let pauses: Vec<f64> = l
        .sub
        .ckpt_at
        .iter()
        .filter(|&&k| k > 0 && k < times.len())
        .map(|&k| (gaps[k - 1] - gap_p50) / 1e3)
        .collect();
    out.set("svc.ckpt_pause_p50_ms", median(&pauses), pauses.len());
    out.set("svc.ckpt_count", l.sub.ckpt_at.len() as f64, 1);
    out.set("svc.rejects", l.rejects as f64, 1);
    out.set("svc.evictions", l.sub.dropped_events as f64, 1);
    out.set("svc.dropped_slots", l.dropped_slots as f64, 1);

    let replayed = stepped_replay(&inp.plan, &mut store, &mut out)?;
    let batch_result = inp.plan.batch.run().map_err(|e| e.to_string())?;
    out.op(replayed == result_digest(&batch_result), || {
        "the stepped replay's result is not the batch run's".into()
    });
    fixtures::gateway_live(
        &inp.plan.batch,
        &inp.lines[0],
        &inp.plan.requests[0],
        &inp.files.path("fixture.ckpt.json"),
        &mut out,
    )
    .map_err(|e| e.to_string())?;

    let header = spans_header("gateway-live", seed, speed(&plain), speed(&traced), &store);
    write_spans(&mut out, &store, "gateway-live", &header);
    Ok(out)
}
