//! `jmso-gateway` — the live gateway service.
//!
//! ```text
//! jmso-gateway template [N] [--slots S] [--out-dir D]
//!     write a matched scenario pack to D (default "."):
//!       scenario.live.json   scenario for `serve --ingest`
//!       scenario.batch.json  equivalent batch scenario (declared arrivals)
//!       feed.jsonl           the feed+start command lines for `send --file`
//!                            (as many feed lines as the 64 KiB line cap needs)
//!     Running the batch scenario with `jmso-sim run --trace` and the live
//!     one under `serve --ingest --policy stall` must produce byte-identical
//!     traces — the SVC=1 gate in scripts/check.sh pins exactly that.
//!
//! jmso-gateway serve <scenario.json> --listen unix:/path|tcp:host:port
//!     [--trace t.jsonl] [--trace-every N]
//!     [--ckpt c.json] [--ckpt-every K]
//!     [--policy stall|drop|degrade] [--slot-ms M]
//!     [--ingest] [--hold]
//!     [--max-restarts N] [--backoff-ms B] [--backoff-max-ms B]
//!     [--step-delay-ms D] [--fail-at SLOT]
//!     run the scenario as a long-lived service. --ingest defers every
//!     planned arrival and holds at slot 0 for socket-fed sessions plus a
//!     `start` command; --slot-ms paces the loop in real time (default: as
//!     fast as the hardware allows). With --trace, record lines accumulate
//!     in <t.jsonl>.spool and become t.jsonl at completion. If --ckpt exists
//!     at startup the run resumes from it and the spool (kill -9 recovery);
//!     an unreadable checkpoint, or a spool that does not reach it, logs a
//!     warning and cold-starts. SIGINT/SIGTERM shut down gracefully with a
//!     final checkpoint.
//!
//! jmso-gateway send <addr> <json-line>      one command, print the reply
//! jmso-gateway send <addr> --file f.jsonl   send each line, print replies
//! jmso-gateway watch <addr>                 subscribe and stream telemetry
//! ```
//!
//! Exit codes: 0 success (including graceful interruption), 1 runtime
//! failure (I/O, supervisor gave up, rejected command), 2 invalid input.

use jmso_gateway::MAX_LINE_BYTES;
use jmso_gateway_svc::{
    spawn_listener, supervise, CommandBus, FanOut, ListenSpec, LivePolicy, Outcome, ServeConfig,
    SupervisedEnd, SupervisorConfig,
};
use jmso_sim::{ArrivalSpec, Scenario, SimError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Runtime(m) => f.write_str(m),
        }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Scenario(_) => CliError::Usage(e.to_string()),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("template") => cmd_template(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("send") => cmd_send(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        _ => {
            eprintln!(
                "usage: jmso-gateway template [N] [--slots S] [--out-dir D] | \
                 serve <scenario.json> --listen unix:/p|tcp:h:p [--trace t.jsonl] \
                 [--trace-every N] [--ckpt c.json] [--ckpt-every K] \
                 [--policy stall|drop|degrade] [--slot-ms M] [--ingest] [--hold] \
                 [--max-restarts N] [--backoff-ms B] [--backoff-max-ms B] \
                 [--step-delay-ms D] [--fail-at SLOT] | \
                 send <addr> <json-line | --file f.jsonl> | watch <addr>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| CliError::Usage(format!("bad {flag} {v:?}: {e}"))),
    }
}

// ---------------------------------------------------------------------------
// template
// ---------------------------------------------------------------------------

/// The deterministic schedule the pack shares between its live feed and
/// its declared batch plan: staggered arrivals, first user departs
/// mid-run.
fn pack_schedule(n: usize, slots: u64) -> (Vec<u64>, Vec<Option<u64>>) {
    let window = (slots / 3).max(1);
    let arrivals: Vec<u64> = (0..n as u64).map(|i| (i * 7) % window).collect();
    let mut departures: Vec<Option<u64>> = vec![None; n];
    if n > 1 && slots > 2 {
        departures[0] = Some((slots / 2).max(arrivals[0] + 1));
    }
    (arrivals, departures)
}

/// Pack event objects into `feed` command lines, as many events per
/// line as the protocol's line cap allows (the daemon closes a
/// connection that sends a longer one).
fn feed_lines(events: impl Iterator<Item = String>) -> String {
    const HEAD: &str = "{\"cmd\":\"feed\",\"events\":[";
    const TAIL: &str = "]}\n";
    let mut out = String::new();
    let mut line = String::from(HEAD);
    for ev in events {
        // `TAIL` counts its newline and the cap does not: one to spare.
        if line.len() > HEAD.len() && line.len() + 1 + ev.len() + TAIL.len() > MAX_LINE_BYTES {
            out.push_str(&line);
            out.push_str(TAIL);
            line.truncate(HEAD.len());
        }
        if line.len() > HEAD.len() {
            line.push(',');
        }
        line.push_str(&ev);
    }
    if line.len() > HEAD.len() {
        out.push_str(&line);
        out.push_str(TAIL);
    }
    out
}

fn cmd_template(args: &[String]) -> Result<(), CliError> {
    let n: usize = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .map(|a| {
            a.parse()
                .map_err(|e| CliError::Usage(format!("bad user count {a:?}: {e}")))
        })
        .transpose()?
        .unwrap_or(6);
    if n == 0 {
        return Err("user count must be positive".to_string().into());
    }
    let slots: u64 = parse_flag(args, "--slots")?.unwrap_or(300);
    let dir = PathBuf::from(flag_value(args, "--out-dir").unwrap_or("."));

    // Quick-run sizing: small sessions that finish within a few hundred
    // slots, so crash/restart gates hit mid-run states quickly.
    let mut live = Scenario::paper_default(n);
    live.slots = slots;
    live.workload.size_range_kb = (500.0, 1500.0);
    live.record_series = false;

    let (arrivals, departures) = pack_schedule(n, slots);
    let mut batch = live.clone();
    batch.arrivals = ArrivalSpec::Declared {
        arrivals: arrivals.clone(),
        departures: departures.clone(),
    };

    let events = arrivals
        .iter()
        .enumerate()
        .map(|(user, slot)| format!(r#"{{"kind":"arrive","user":{user},"slot":{slot}}}"#))
        .chain(departures.iter().enumerate().filter_map(|(user, d)| {
            d.map(|slot| format!(r#"{{"kind":"depart","user":{user},"slot":{slot}}}"#))
        }));
    let mut feed = feed_lines(events);
    feed.push_str("{\"cmd\":\"start\"}\n");

    let write = |name: &str, text: &str| -> Result<(), CliError> {
        let path = dir.join(name);
        std::fs::write(&path, text)
            .map_err(|e| CliError::Runtime(format!("writing {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
        Ok(())
    };
    let to_json = |s: &Scenario| {
        serde_json::to_string_pretty(s).map_err(|e| CliError::Runtime(format!("{e:?}")))
    };
    write("scenario.live.json", &format!("{}\n", to_json(&live)?))?;
    write("scenario.batch.json", &format!("{}\n", to_json(&batch)?))?;
    write("feed.jsonl", &feed)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Process-wide signal flag: the handler can only touch a static.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[allow(unsafe_code)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` with a handler that only stores to an atomic
    // is async-signal-safe; both signals default to process death, so
    // any race during installation is benign.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("serve: missing <scenario.json>")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("reading {path}: {e}")))?;
    let scenario: Scenario = serde_json::from_str(&text)
        .map_err(|e| CliError::Usage(format!("parsing {path}: {e:?}")))?;
    let listen: ListenSpec = flag_value(args, "--listen")
        .ok_or("serve: missing --listen unix:/path or tcp:host:port")?
        .parse()
        .map_err(CliError::Usage)?;

    let mut cfg = ServeConfig::new(scenario);
    cfg.trace_path = flag_value(args, "--trace").map(PathBuf::from);
    cfg.trace_every = parse_flag(args, "--trace-every")?.unwrap_or(1);
    cfg.ckpt_path = flag_value(args, "--ckpt").map(PathBuf::from);
    cfg.ckpt_every = parse_flag(args, "--ckpt-every")?.unwrap_or(0);
    cfg.policy = parse_flag::<LivePolicy>(args, "--policy")?.unwrap_or(LivePolicy::Stall);
    cfg.slot_ms = parse_flag(args, "--slot-ms")?;
    cfg.ingest = has_flag(args, "--ingest");
    cfg.hold = has_flag(args, "--hold");
    cfg.step_delay_ms = parse_flag(args, "--step-delay-ms")?.unwrap_or(0);
    cfg.fail_at = parse_flag(args, "--fail-at")?;
    let sup = SupervisorConfig {
        max_restarts: parse_flag(args, "--max-restarts")?.unwrap_or(3),
        backoff_base_ms: parse_flag(args, "--backoff-ms")?.unwrap_or(200),
        backoff_max_ms: parse_flag(args, "--backoff-max-ms")?.unwrap_or(5_000),
    };

    install_signal_handlers();
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        // Bridge the async-signal-safe static into the service's flag.
        let shutdown = shutdown.clone();
        std::thread::spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }

    let bus = Arc::new(CommandBus::new(256));
    let fanout = Arc::new(FanOut::new());
    spawn_listener(&listen, bus.clone(), fanout.clone(), shutdown.clone())
        .map_err(|e| CliError::Runtime(format!("binding {listen}: {e}")))?;
    eprintln!("jmso-gateway: listening on {listen}");

    let end = supervise(&cfg, &sup, bus, fanout, shutdown)?;
    if let ListenSpec::Unix(p) = &listen {
        let _ = std::fs::remove_file(p);
    }
    match end {
        SupervisedEnd::Finished {
            outcome: Outcome::Done { slots_run },
            restarts,
        } => {
            eprintln!("jmso-gateway: done after {slots_run} slots ({restarts} restarts)");
            Ok(())
        }
        SupervisedEnd::Finished {
            outcome: Outcome::Interrupted { at_slot },
            ..
        } => {
            eprintln!("jmso-gateway: interrupted at slot {at_slot}; checkpoint written");
            Ok(())
        }
        SupervisedEnd::GaveUp { attempts } => Err(CliError::Runtime(format!(
            "engine kept panicking; gave up after {attempts} attempts"
        ))),
    }
}

// ---------------------------------------------------------------------------
// send / watch
// ---------------------------------------------------------------------------

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn connect(spec: &ListenSpec) -> Result<Self, CliError> {
        let err = |e: std::io::Error| CliError::Runtime(format!("connecting {spec}: {e}"));
        match spec {
            ListenSpec::Unix(p) => UnixStream::connect(p).map(Conn::Unix).map_err(err),
            ListenSpec::Tcp(a) => TcpStream::connect(a.as_str()).map(Conn::Tcp).map_err(err),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

fn cmd_send(args: &[String]) -> Result<(), CliError> {
    let spec: ListenSpec = args
        .first()
        .ok_or("send: missing <addr>")?
        .parse()
        .map_err(CliError::Usage)?;
    let lines: Vec<String> = if let Some(f) = flag_value(args, "--file") {
        std::fs::read_to_string(f)
            .map_err(|e| CliError::Usage(format!("reading {f}: {e}")))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(String::from)
            .collect()
    } else {
        vec![args
            .get(1)
            .ok_or("send: missing <json-line> (or --file f.jsonl)")?
            .clone()]
    };
    let conn = Conn::connect(&spec)?;
    let mut reader = BufReader::new(conn);
    let mut all_ok = true;
    for line in lines {
        writeln!(reader.get_mut(), "{line}")
            .map_err(|e| CliError::Runtime(format!("sending: {e}")))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| CliError::Runtime(format!("reading reply: {e}")))?;
        let reply = reply.trim_end();
        println!("{reply}");
        if !reply.contains(r#""ok":true"#) {
            all_ok = false;
        }
    }
    if all_ok {
        Ok(())
    } else {
        Err(CliError::Runtime("one or more commands rejected".into()))
    }
}

fn cmd_watch(args: &[String]) -> Result<(), CliError> {
    let spec: ListenSpec = args
        .first()
        .ok_or("watch: missing <addr>")?
        .parse()
        .map_err(CliError::Usage)?;
    let conn = Conn::connect(&spec)?;
    let mut reader = BufReader::new(conn);
    writeln!(reader.get_mut(), r#"{{"cmd":"subscribe"}}"#)
        .map_err(|e| CliError::Runtime(format!("sending: {e}")))?;
    let mut out = std::io::stdout().lock();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {
                if out.write_all(line.as_bytes()).is_err() {
                    return Ok(());
                }
                let _ = out.flush();
            }
            Err(e) => return Err(CliError::Runtime(format!("stream: {e}"))),
        }
    }
}
