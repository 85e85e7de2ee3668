//! Socket front-end: Unix / TCP listeners, per-connection line
//! protocol handlers.
//!
//! Each connection gets its own handler thread with a read timeout and
//! a bounded per-line buffer: an idle, slow, or hostile client costs
//! one thread and [`jmso_gateway::MAX_LINE_BYTES`] of memory, and a
//! malformed line gets a typed error reply without closing the
//! connection (an oversized line *does* close it — framing is lost).
//! A `feed` line goes to the engine as it is read, in chunks of 32
//! events whose requests share one buffer (DESIGN.md §13).

use crate::bus::{feed_stream, Command, CommandBus};
use crate::fanout::{FanOut, Subscription};
use jmso_gateway::{
    parse_command, FeedChunk, FeedReader, GwCommand, ProtocolError, MAX_LINE_BYTES,
};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Duration;

/// Idle-connection read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a handler waits for the engine loop to answer a command
/// (covers supervisor backoff windows).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Telemetry lines buffered per subscriber before it is dropped, counted
/// in bytes: 1 024 × [`crate::fanout::LINE_BYTES`], ≈ 10.5 MB.
const SUBSCRIBER_BUFFER: usize = 1024;
/// Bytes of telemetry gathered per subscriber before a `write`.
const STREAM_BATCH: usize = 64 * 1024;
/// Events of a feed line handed to the engine at a time while the rest
/// of the line is read: about a tenth of a full line, so DPI on the
/// engine thread keeps pace with the parse from the first chunk on.
const FEED_CHUNK: usize = 32;

/// Where the service listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenSpec {
    /// `unix:/path/to.sock`
    Unix(PathBuf),
    /// `tcp:host:port`
    Tcp(String),
}

impl FromStr for ListenSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            Ok(ListenSpec::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("empty tcp address".into());
            }
            Ok(ListenSpec::Tcp(addr.to_string()))
        } else {
            Err(format!(
                "bad listen spec {s:?}: expected unix:/path or tcp:host:port"
            ))
        }
    }
}

impl std::fmt::Display for ListenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenSpec::Unix(p) => write!(f, "unix:{}", p.display()),
            ListenSpec::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Bind the listener and spawn the accept loop. Returns once bound (so
/// callers can report readiness); accepted connections are served on
/// their own threads until the process exits or `shutdown` is set.
pub fn spawn_listener(
    spec: &ListenSpec,
    bus: Arc<CommandBus>,
    fanout: Arc<FanOut>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<std::thread::JoinHandle<()>> {
    match spec {
        ListenSpec::Unix(path) => {
            // A previous run's socket file would make bind fail with
            // AddrInUse; the service owns the path, so replace it.
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Ok(std::thread::spawn(move || {
                accept_loop(
                    || listener.accept().map(|(s, _)| s),
                    bus,
                    fanout,
                    shutdown,
                    |s| s.set_read_timeout(Some(READ_TIMEOUT)).map(|()| s),
                )
            }))
        }
        ListenSpec::Tcp(addr) => {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            Ok(std::thread::spawn(move || {
                accept_loop(
                    || listener.accept().map(|(s, _)| s),
                    bus,
                    fanout,
                    shutdown,
                    |s| s.set_read_timeout(Some(READ_TIMEOUT)).map(|()| s),
                )
            }))
        }
    }
}

fn accept_loop<S, A, P>(
    mut accept: A,
    bus: Arc<CommandBus>,
    fanout: Arc<FanOut>,
    shutdown: Arc<AtomicBool>,
    prepare: P,
) where
    S: Read + Write + Send + 'static,
    A: FnMut() -> io::Result<S>,
    P: Fn(S) -> io::Result<S> + Copy + Send + 'static,
{
    while !shutdown.load(Ordering::SeqCst) {
        match accept() {
            Ok(stream) => {
                let bus = bus.clone();
                let fanout = fanout.clone();
                std::thread::spawn(move || {
                    if let Ok(stream) = prepare(stream) {
                        handle_connection(stream, &bus, &fanout);
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => break,
        }
    }
}

/// Read one newline-terminated line with a hard byte cap. `Ok(None)` is
/// EOF; `Err` of kind `WouldBlock`/`TimedOut` is the idle timeout.
fn read_line_bounded<R: BufRead>(r: &mut R) -> io::Result<Option<Result<String, ProtocolError>>> {
    let mut buf = Vec::new();
    let n = (&mut *r)
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') && buf.len() > MAX_LINE_BYTES {
        return Ok(Some(Err(ProtocolError::LineTooLong {
            limit: MAX_LINE_BYTES,
        })));
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Some(Ok(s))),
        Err(_) => Ok(Some(Err(ProtocolError::Parse {
            reason: "line is not valid UTF-8".into(),
        }))),
    }
}

fn reply_err(e: &ProtocolError) -> String {
    format!(
        r#"{{"ok":false,"error":{}}}"#,
        serde_json::to_string(e).unwrap_or_else(|_| "null".into())
    )
}

/// Write one reply line in a single `write_all`, newline included, so
/// the client is woken once per reply. False when the connection is gone.
fn send_line<W: Write>(w: &mut W, mut line: String) -> bool {
    line.push('\n');
    w.write_all(line.as_bytes()).is_ok()
}

/// The `status` reply: the published snapshot when there is one,
/// otherwise the engine's own answer over the bus.
fn status_reply(bus: &CommandBus, fanout: &FanOut) -> String {
    let status = match bus.status() {
        Some(status) => Ok(status),
        None => {
            let (tx, rx) = sync_channel(1);
            bus.push(Command::Status { reply: tx })
                .and_then(|()| rx.recv_timeout(REPLY_TIMEOUT).map_err(|_| busy()))
        }
    };
    match status {
        Ok(mut status) => {
            status.dropped_subscribers = fanout.dropped();
            format!(
                r#"{{"ok":true,"status":{}}}"#,
                serde_json::to_string(&status).unwrap_or_else(|_| "null".into())
            )
        }
        Err(e) => reply_err(&e),
    }
}

fn busy() -> ProtocolError {
    ProtocolError::Reject {
        reason: "service busy or restarting".into(),
    }
}

/// Stream a subscription until the service closes the fan-out, this
/// subscriber is dropped for falling behind, or the client goes away.
/// Whatever is queued when the stream wakes goes out in `write`s of at
/// least [`STREAM_BATCH`] bytes but the last.
fn stream_lines<W: Write>(mut w: W, rx: &Subscription) {
    let mut out = Vec::with_capacity(2 * STREAM_BATCH);
    while let Ok(first) = rx.recv() {
        for message in std::iter::once(first).chain(rx.try_iter()) {
            out.extend_from_slice(message.as_bytes());
            out.push(b'\n');
            if out.len() >= STREAM_BATCH {
                if w.write_all(&out).is_err() {
                    return;
                }
                out.clear();
            }
        }
        if w.write_all(&out).and_then(|()| w.flush()).is_err() {
            return;
        }
        out.clear();
    }
}

/// Serve one connection: read command lines, reply per line, and — on
/// `subscribe` — switch to streaming telemetry until the subscription
/// ends.
pub fn handle_connection<S: Read + Write>(stream: S, bus: &CommandBus, fanout: &FanOut) {
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader) {
            Ok(Some(Ok(line))) => line,
            Ok(Some(Err(e))) => {
                // Typed rejection; LineTooLong loses framing, so that
                // one also closes the connection.
                let fatal = matches!(e, ProtocolError::LineTooLong { .. });
                if !send_line(reader.get_mut(), reply_err(&e)) || fatal {
                    return;
                }
                continue;
            }
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match FeedReader::new(&line) {
            Some(mut events) => stream_feed(bus, |chunk| events.read_into(chunk, FEED_CHUNK)),
            None => match parse_command(&line) {
                // Malformed line: reject it, keep the session.
                Err(e) => reply_err(&e),
                Ok(GwCommand::Subscribe) => {
                    // Held until the last line is flushed: `FanOut::close`
                    // waits for it.
                    let _streaming = fanout.streaming();
                    let rx = fanout.subscribe(SUBSCRIBER_BUFFER);
                    if send_line(reader.get_mut(), r#"{"ok":true}"#.to_string()) {
                        stream_lines(reader.get_mut(), &rx);
                    }
                    return;
                }
                Ok(GwCommand::Status) => status_reply(bus, fanout),
                Ok(GwCommand::Feed { events }) => {
                    let mut events = Some(events);
                    stream_feed(bus, |chunk| {
                        *chunk = events.take().map(FeedChunk::from).unwrap_or_default();
                        Ok(false)
                    })
                }
                Ok(GwCommand::Start) => roundtrip(bus, |reply| Command::Start { reply }),
                Ok(GwCommand::Shutdown) => roundtrip(bus, |reply| Command::Shutdown { reply }),
            },
        };
        if !send_line(reader.get_mut(), reply) {
            return;
        }
    }
}

/// Queue a feed line, then hand its events to the engine as `read` fills
/// each chunk (`Ok(true)` while the line has more), and commit it once it
/// has been read whole; the reply line. A line that fails to read drops
/// its stream uncommitted, so the engine applies none of it.
fn stream_feed(
    bus: &CommandBus,
    mut read: impl FnMut(&mut FeedChunk) -> Result<bool, ProtocolError>,
) -> String {
    let (tx, stream) = feed_stream();
    let (reply, acked) = sync_channel(1);
    if let Err(e) = bus.push(Command::Feed {
        events: stream,
        reply,
    }) {
        return reply_err(&e);
    }
    let mut chunk = FeedChunk {
        events: Vec::with_capacity(FEED_CHUNK),
        text: String::new(),
    };
    loop {
        match read(&mut chunk) {
            Ok(true) => {
                // The next chunk's text is sized by this one's.
                let next = FeedChunk {
                    events: Vec::with_capacity(FEED_CHUNK),
                    text: String::with_capacity(chunk.text.len()),
                };
                tx.send(std::mem::replace(&mut chunk, next));
            }
            Ok(false) => break,
            Err(e) => return reply_err(&e),
        }
    }
    tx.commit(chunk);
    ack_reply(&acked)
}

/// Push a command and await the engine loop's ack; the reply line.
fn roundtrip(
    bus: &CommandBus,
    cmd: impl FnOnce(SyncSender<Result<(), ProtocolError>>) -> Command,
) -> String {
    let (tx, rx) = sync_channel(1);
    match bus.push(cmd(tx)) {
        Ok(()) => ack_reply(&rx),
        Err(e) => reply_err(&e),
    }
}

/// The reply line for the engine's ack of a queued command.
fn ack_reply(rx: &Receiver<Result<(), ProtocolError>>) -> String {
    match rx
        .recv_timeout(REPLY_TIMEOUT)
        .unwrap_or_else(|_| Err(busy()))
    {
        Ok(()) => r#"{"ok":true}"#.to_string(),
        Err(e) => reply_err(&e),
    }
}
