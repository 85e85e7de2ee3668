//! Wire protocol for the live gateway service (`jmso-gateway`).
//!
//! Line-delimited JSON on a Unix or TCP socket: each inbound line is one
//! [`GwCommand`], each outbound line one JSON reply or [`GwEvent`]. The
//! types live here in the gateway crate — next to the DPI middlebox
//! whose request parsing the `arrive` event reuses — so the service
//! binary and test harnesses share one definition.
//!
//! Robustness contract: a malformed line yields a typed
//! [`ProtocolError`] *reply on that line* and the connection lives on —
//! one bad event never kills a session, and the slot loop never sees
//! unvalidated input.

use crate::dpi::declared_bitrate;
use serde::{Deserialize, Elements, Entries, Error, Reader, Serialize};
use std::ops::Range;

/// Hard cap on one protocol line, in bytes. Longer lines are rejected
/// with [`ProtocolError::LineTooLong`] before JSON parsing — bounded
/// memory per connection no matter what a client sends.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// One inbound command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "cmd", rename_all = "snake_case")]
pub enum GwCommand {
    /// Stream telemetry ([`GwEvent`] lines) to this connection until it
    /// closes or falls behind (see the fan-out backpressure rules in
    /// DESIGN.md §13).
    Subscribe,
    /// Feed live session events into the slot schedule.
    Feed {
        /// Events to apply, in order.
        events: Vec<LiveEvent>,
    },
    /// One-line [`GwStatus`] snapshot.
    Status,
    /// Start the slot loop (required once when the service holds at
    /// slot 0 awaiting ingestion; a no-op when already running).
    Start,
    /// Graceful shutdown: drain subscribers, write a final checkpoint.
    Shutdown,
}

/// One live session event — the socket form of the batch
/// `ArrivalSpec::Declared` / `ChurnPlan` schedule entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum LiveEvent {
    /// User `user`'s session starts at `slot`.
    Arrive {
        /// Target user index.
        user: usize,
        /// Slot the session starts (must not have executed yet).
        slot: u64,
        /// Optional raw HTTP segment request; the DPI middlebox
        /// extracts the declared bitrate from it
        /// ([`declared_rate_from_request`]).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        request: Option<String>,
    },
    /// User `user` abandons playback at `slot`.
    Depart {
        /// Target user index.
        user: usize,
        /// Slot the session is abandoned.
        slot: u64,
    },
}

/// Why a protocol line was rejected. Serialized back to the client as
/// `{"ok":false,"error":{...}}`; the connection stays open.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ProtocolError {
    /// The line was not a valid [`GwCommand`].
    Parse {
        /// Parser diagnostic.
        reason: String,
    },
    /// The command parsed but was rejected by the engine (bad user
    /// index, slot already executed, …).
    Reject {
        /// Validation diagnostic.
        reason: String,
    },
    /// The line exceeded [`MAX_LINE_BYTES`].
    LineTooLong {
        /// The configured cap.
        limit: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Parse { reason } => write!(f, "parse error: {reason}"),
            ProtocolError::Reject { reason } => write!(f, "rejected: {reason}"),
            ProtocolError::LineTooLong { limit } => {
                write!(f, "line exceeds {limit} byte limit")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Parse one inbound line into a [`GwCommand`], enforcing the line
/// length cap first.
pub fn parse_command(line: &str) -> Result<GwCommand, ProtocolError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::LineTooLong {
            limit: MAX_LINE_BYTES,
        });
    }
    serde_json::from_str(line).map_err(|e| ProtocolError::Parse {
        reason: e.to_string(),
    })
}

/// One event of a `feed` line as it travels to the engine: an arrival's
/// request is a span of its [`FeedChunk`]'s text, not a string of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedEvent {
    /// User `user`'s session starts at `slot`.
    Arrive {
        /// Target user index.
        user: usize,
        /// Slot the session starts.
        slot: u64,
        /// Where the raw HTTP segment request lies in the chunk's text.
        request: Option<Range<usize>>,
    },
    /// User `user` abandons playback at `slot`.
    Depart {
        /// Target user index.
        user: usize,
        /// Slot the session is abandoned.
        slot: u64,
    },
}

impl FeedEvent {
    /// The event's request, read from `text`, its chunk's text.
    pub fn request<'t>(&self, text: &'t str) -> Option<&'t str> {
        match self {
            FeedEvent::Arrive {
                request: Some(span),
                ..
            } => text.get(span.clone()),
            _ => None,
        }
    }
}

/// Events of a `feed` line handed on together, and the one buffer their
/// requests are decoded into: a chunk costs two allocations, whatever
/// its events carry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedChunk {
    /// The events, in line order.
    pub events: Vec<FeedEvent>,
    /// Their requests, one after another.
    pub text: String,
}

impl From<Vec<LiveEvent>> for FeedChunk {
    /// Events already in hand, as a chunk.
    fn from(events: Vec<LiveEvent>) -> Self {
        let mut chunk = FeedChunk::default();
        for event in events {
            chunk.events.push(match event {
                LiveEvent::Arrive {
                    user,
                    slot,
                    request,
                } => FeedEvent::Arrive {
                    user,
                    slot,
                    request: request.map(|r| {
                        let start = chunk.text.len();
                        chunk.text.push_str(&r);
                        start..chunk.text.len()
                    }),
                },
                LiveEvent::Depart { user, slot } => FeedEvent::Depart { user, slot },
            });
        }
        chunk
    }
}

/// A `feed` line read a chunk of events at a time, so the events read so
/// far can be acted on while the rest of the line is still being read
/// (DESIGN.md §13). It reads what [`parse_command`] reads — the same
/// `cmd` tag, the first `events` key, each event as [`LiveEvent`]'s
/// `Deserialize` reads it, nothing but whitespace after the object — and
/// it fails where that fails, with that error: on its error path it
/// reads the line again with [`parse_command`].
#[derive(Debug)]
pub struct FeedReader<'a> {
    line: &'a str,
    r: Reader<'a>,
    entries: Entries,
    /// The `events` array while it is open.
    events: Option<Elements>,
    seen_events: bool,
    done: bool,
}

impl<'a> FeedReader<'a> {
    /// A reader at the first event of `line` when it is a `feed` command
    /// under the line cap: an object whose `cmd` tag reads `feed`. Any
    /// other line, including one that fails before its tag is known, is
    /// `None`: [`parse_command`] answers it.
    pub fn new(line: &'a str) -> Option<Self> {
        if line.len() > MAX_LINE_BYTES {
            return None;
        }
        let mut r = Reader::new(line);
        let mut entries = r.object().ok()??;
        let kind = r.tag(&mut entries, "cmd").ok()??;
        (kind == "feed").then_some(Self {
            line,
            r,
            entries,
            events: None,
            seen_events: false,
            done: false,
        })
    }

    /// Read up to `max` more events onto the end of `chunk`, their
    /// requests decoded onto the end of its text. `Ok(true)` while the
    /// line has more to read, `Ok(false)` once it has been read whole,
    /// its end included. An error is [`parse_command`]'s reply to the
    /// line; after it, or after the end, nothing more is read.
    pub fn read_into(&mut self, chunk: &mut FeedChunk, max: usize) -> Result<bool, ProtocolError> {
        for _ in 0..max {
            if self.done {
                break;
            }
            match self.step(chunk) {
                Ok(true) => {}
                Ok(false) => self.done = true,
                Err(e) => {
                    self.done = true;
                    return Err(match parse_command(self.line) {
                        Err(reply) => reply,
                        Ok(_) => ProtocolError::Parse {
                            reason: e.to_string(),
                        },
                    });
                }
            }
        }
        Ok(!self.done)
    }

    /// Read the next event onto `chunk`; `false` once the line has been
    /// read whole.
    fn step(&mut self, chunk: &mut FeedChunk) -> Result<bool, Error> {
        loop {
            if let Some(events) = &mut self.events {
                if self.r.next_element(events)? {
                    let event = read_event(&mut self.r, &mut chunk.text)?;
                    chunk.events.push(event);
                    return Ok(true);
                }
                self.events = None;
            }
            match self.r.next_key(&mut self.entries)? {
                // A repeated key is checked and dropped, as a struct
                // field's is.
                Some(key) if key == "events" && !self.seen_events => {
                    self.seen_events = true;
                    let events = self.r.array()?;
                    self.events = Some(events.ok_or_else(|| Error::custom("expected array"))?);
                }
                Some(_) => self.r.skip_value()?,
                None if self.seen_events => return self.r.finish().map(|()| false),
                None => return Err(Error::custom("missing field `events`")),
            }
        }
    }
}

/// Read one event as [`LiveEvent`]'s derived `Deserialize` reads it,
/// its request decoded onto the end of `text`: the `kind` tag may come
/// anywhere, an unknown key is skipped, a repeated key's first value
/// wins and a later one is only checked, and a `null` request is none.
/// It fails wherever that fails; the error texts are not its.
fn read_event(r: &mut Reader<'_>, text: &mut String) -> Result<FeedEvent, Error> {
    let wrong = || Error::custom("not a live event");
    let mut entries = r.object()?.ok_or_else(wrong)?;
    let arrive = match r.tag(&mut entries, "kind")?.as_deref() {
        Some("arrive") => true,
        Some("depart") => false,
        _ => return Err(wrong()),
    };
    let (mut user, mut slot, mut request) = (None, None, None);
    while let Some(key) = r.next_key(&mut entries)? {
        match &*key {
            "user" if user.is_none() => user = Some(usize::deserialize(r)?),
            "slot" if slot.is_none() => slot = Some(u64::deserialize(r)?),
            "request" if arrive && request.is_none() => {
                let start = text.len();
                request = Some(match r.string_into(text)? {
                    true => Some(start..text.len()),
                    false => Option::<NullOnly>::deserialize(r)?.map(|n| match n {}),
                });
            }
            _ => r.skip_value()?,
        }
    }
    let (Some(user), Some(slot)) = (user, slot) else {
        return Err(wrong());
    };
    Ok(match arrive {
        true => FeedEvent::Arrive {
            user,
            slot,
            request: request.flatten(),
        },
        false => FeedEvent::Depart { user, slot },
    })
}

/// A value no JSON reads as: `Option<NullOnly>` reads `null` and nothing
/// else.
enum NullOnly {}

impl Deserialize for NullOnly {
    fn deserialize(_: &mut Reader<'_>) -> Result<Self, Error> {
        Err(Error::custom("expected a string or null"))
    }
}

/// Extract the declared media bitrate (KB/s) from a raw segment
/// request via the DPI middlebox — how a live `arrive` event carries a
/// gateway-side rate without the client declaring it out-of-band.
/// Returns a typed rejection when the bytes are not a video request
/// carrying a finite bitrate. Allocates nothing unless it rejects.
pub fn declared_rate_from_request(request: &str) -> Result<f64, ProtocolError> {
    declared_bitrate(request)
        .map_err(|e| ProtocolError::Reject {
            reason: format!("dpi: {e}"),
        })?
        .ok_or_else(|| ProtocolError::Reject {
            reason: "request carries no declared bitrate".into(),
        })
}

/// Service lifecycle state, as reported in [`GwStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SvcState {
    /// Waiting at slot 0 for ingestion and a `start` command.
    Holding,
    /// Slot loop running.
    Running,
    /// Run finished; final trace written.
    Done,
    /// Draining for shutdown.
    Stopping,
}

/// One-line status snapshot returned for [`GwCommand::Status`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GwStatus {
    /// Lifecycle state.
    pub state: SvcState,
    /// Next slot the loop will execute.
    pub slot: u64,
    /// Configured horizon Γ.
    pub slots: u64,
    /// Users still fetching or watching.
    pub watching: usize,
    /// Active overrun policy (`stall` / `drop` / `degrade`).
    pub policy: String,
    /// Slots skipped by the `drop` overrun policy so far.
    pub dropped_slots: u64,
    /// Subscribers disconnected for falling behind.
    pub dropped_subscribers: u64,
    /// Slot of the last durable checkpoint, if any was written.
    pub last_checkpoint_slot: Option<u64>,
    /// Simulation warnings surfaced so far (`SimWarning` renderings
    /// plus service-level fallbacks such as a cold start after a
    /// corrupt checkpoint).
    pub warnings: Vec<String>,
}

/// One outbound telemetry/lifecycle event line. Subscribers receive the
/// raw JSONL `SlotTrace` records interleaved with these service events;
/// every service event carries `"event"` as its tag so consumers can
/// split the streams on one key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum GwEvent {
    /// Service accepted the scenario and holds/runs from slot 0.
    Started {
        /// Configured horizon Γ.
        slots: u64,
    },
    /// Restart resumed from a durable checkpoint.
    Resumed {
        /// Slot execution resumed from.
        slot: u64,
    },
    /// Restart found no usable checkpoint and started cold.
    ColdStart {
        /// Why the checkpoint was unusable (corrupt, missing, …).
        reason: String,
    },
    /// A durable checkpoint was written.
    Checkpoint {
        /// Top-of-slot the checkpoint captures.
        slot: u64,
    },
    /// A slot missed its wall-clock budget and the overrun policy
    /// fired.
    DeadlineOverrun {
        /// The late slot.
        slot: u64,
        /// What the policy did (`stall` / `drop` / `degrade`).
        action: String,
    },
    /// A slow subscriber was disconnected instead of stalling the loop.
    SubscriberDropped {
        /// Total subscribers dropped so far.
        total: u64,
    },
    /// A simulation warning (e.g. `CheckpointFallback`) or service fallback.
    Warning {
        /// Human-readable warning text.
        message: String,
    },
    /// The scheduler was switched into degraded mode.
    Degraded {
        /// Slot the switch took effect.
        slot: u64,
    },
    /// The run completed; the final trace is on disk.
    Done {
        /// Slots executed.
        slots_run: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpi::format_segment_request;

    #[test]
    fn command_round_trip() {
        let cmds = vec![
            GwCommand::Subscribe,
            GwCommand::Feed {
                events: vec![
                    LiveEvent::Arrive {
                        user: 3,
                        slot: 17,
                        request: None,
                    },
                    LiveEvent::Depart { user: 3, slot: 40 },
                ],
            },
            GwCommand::Status,
            GwCommand::Start,
            GwCommand::Shutdown,
        ];
        for cmd in cmds {
            let line = serde_json::to_string(&cmd).expect("serialize");
            assert_eq!(parse_command(&line).expect("parse"), cmd);
        }
    }

    #[test]
    fn malformed_lines_yield_typed_errors() {
        assert!(matches!(
            parse_command("not json"),
            Err(ProtocolError::Parse { .. })
        ));
        assert!(matches!(
            parse_command(r#"{"cmd":"feed","events":[{"kind":"arrive"}]}"#),
            Err(ProtocolError::Parse { .. })
        ));
        assert!(matches!(
            parse_command(r#"{"cmd":"warp"}"#),
            Err(ProtocolError::Parse { .. })
        ));
        let long = format!(
            r#"{{"cmd":"status","pad":"{}"}}"#,
            "x".repeat(MAX_LINE_BYTES)
        );
        assert!(matches!(
            parse_command(&long),
            Err(ProtocolError::LineTooLong { .. })
        ));
    }

    /// A line under the length cap can still nest tens of thousands of
    /// levels; the parser recurses per level, and a stack overflow is an
    /// abort that no `catch_unwind` supervision sees.
    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        let lines = [
            "[".repeat(60_000),
            r#"{"a":"#.repeat(10_000),
            format!(r#"{{"cmd":"feed","events":{}"#, "[".repeat(60_000)),
        ];
        for line in lines {
            assert!(line.len() <= MAX_LINE_BYTES);
            match parse_command(&line) {
                Err(ProtocolError::Parse { reason }) => {
                    assert!(reason.contains("recursion limit exceeded"), "{reason}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    /// Lines and what the tree-first reader answered on each (recorded
    /// from that build): tags after the fields, `null` for the optional
    /// request, unknown keys, and the rejections' texts.
    #[test]
    fn edge_lines_read_as_the_tree_reader_did() {
        const LINES: &[(&str, &str)] = &[
            ("{\"events\":[{\"slot\":3,\"user\":1,\"kind\":\"depart\"}],\"cmd\":\"feed\"}", "Ok Feed { events: [Depart { user: 1, slot: 3 }] }"),
            ("{\"cmd\":\"feed\",\"events\":[{\"kind\":\"arrive\",\"user\":1,\"slot\":2,\"request\":null}]}", "Ok Feed { events: [Arrive { user: 1, slot: 2, request: None }] }"),
            ("{\"cmd\":\"feed\",\"events\":[{\"kind\":\"arrive\",\"user\":1.0,\"slot\":2}]}", "Err parse error: expected unsigned integer, got F64(1.0)"),
            ("{\"cmd\":\"status\",\"pad\":\"xxx\"}", "Ok Status"),
            ("{\"cmd\":\"feed\"}", "Err parse error: GwCommand: missing field `events`"),
            ("{\"cmd\":\"feed\",\"events\":[{\"kind\":\"arrive\"}]}", "Err parse error: LiveEvent: missing field `user`"),
            ("{\"cmd\":\"feed\",\"events\":[{\"kind\":\"arrive\",\"user\":1,\"slot\":2,\"request\":\"GET /a.ts HTTP/1.1\\r\\n\\r\\n\"},{\"kind\":\"leave\"}]}", "Err parse error: LiveEvent: unknown variant `leave`"),
            ("{\"cmd\":\"feed\",\"events\":[{\"kind\":\"depart\",\"user\":-1,\"slot\":2}]}", "Err parse error: expected unsigned integer, got I64(-1)"),
            ("{\"cmd\":\"feed\",\"events\":{\"kind\":\"depart\"}}", "Err parse error: expected array, got Map([(\"kind\", Str(\"depart\"))])"),
            ("{\"cmd\":\"Start\"}", "Err parse error: GwCommand: unknown variant `Start`"),
            ("\"start\"", "Err parse error: GwCommand: expected object"),
            ("{\"cmd\":\"start\"}\n", "Ok Start"),
            ("{\"cmd\":\"start\"}{}", "Err parse error: trailing characters at byte 15"),
        ];
        for &(line, want) in LINES {
            let got = match parse_command(line) {
                Ok(v) => format!("Ok {v:?}"),
                Err(e) => format!("Err {e}"),
            };
            assert_eq!(got, want, "{line:?}");
        }
    }

    /// A chunk's events as `LiveEvent`s, their requests copied out.
    fn live_events(chunk: &FeedChunk) -> Vec<LiveEvent> {
        let request = |ev: &FeedEvent| ev.request(&chunk.text).map(String::from);
        (chunk.events.iter())
            .map(|ev| match *ev {
                FeedEvent::Arrive { user, slot, .. } => LiveEvent::Arrive {
                    user,
                    slot,
                    request: request(ev),
                },
                FeedEvent::Depart { user, slot } => LiveEvent::Depart { user, slot },
            })
            .collect()
    }

    /// A feed line read whole by the feed reader, `max` events a chunk.
    fn read_feed(line: &str, max: usize) -> Option<Result<Vec<LiveEvent>, ProtocolError>> {
        let mut reader = FeedReader::new(line)?;
        let mut events = Vec::new();
        Some(loop {
            let mut chunk = FeedChunk::default();
            let more = reader.read_into(&mut chunk, max);
            events.extend(live_events(&chunk));
            match more {
                Ok(true) => assert!(chunk.events.len() == max, "{line}"),
                Ok(false) => break Ok(events),
                Err(e) => break Err(e),
            }
        })
    }

    /// The feed reader takes the lines `parse_command` reads as feeds, to
    /// the same events, and fails on the rest of the feed lines with the
    /// same error, however many events a chunk takes; every other line it
    /// leaves to `parse_command`.
    #[test]
    fn the_feed_reader_reads_what_parse_command_reads() {
        let ev = r#"{"kind":"depart","user":1,"slot":3}"#;
        let feed = |events: &str| format!(r#"{{"cmd":"feed","events":[{events}]}}"#);
        let arrive = |fields: &str| {
            format!(r#"{{"cmd":"feed","events":[{ev},{{"kind":"arrive",{fields}}},{ev}]}}"#)
        };
        let lines = [
            format!(r#"{{"cmd":"feed","events":[{ev},{ev}]}}"#),
            format!(r#"{{"events":[{ev}],"pad":[1,{{}}],"cmd":"feed"}}"#),
            format!(r#" {{"cmd":"feed","events":[],"events":[{ev}]}} "#),
            format!(r#"{{"cmd":"feed","events":[{ev}],"events":7}}"#),
            format!(r#"{{"cmd":"feed","events":[{ev}],"cmd":"start"}}"#),
            format!(r#"{{"cmd":"feed","events":[{ev},]}}"#),
            format!(r#"{{"cmd":"feed","events":[{ev}]}}x"#),
            format!(r#"{{"cmd":"feed","events":[{ev}],"pad":tru}}"#),
            format!(r#"{{"events":[{ev}]}}"#),
            format!(r#"{{"cmd":"status","events":[{ev}]}}"#),
            r#"{"cmd":"feed","events":{}}"#.to_string(),
            r#"{"cmd":"feed"}"#.to_string(),
            r#"{"cmd":"feed","events":[{"kind":"arrive","user":1}]}"#.to_string(),
            r#"["cmd","feed"]"#.to_string(),
            r#"{"cmd":"feed","events":[]}"#.to_string(),
            // Requests: repeated, null, on a departure, not a string, with
            // escapes, and a broken escape.
            arrive(
                r#""user":1,"slot":2,"request":"GET /a.ts HTTP/1.1","request":"GET /b.ts HTTP/1.1""#,
            ),
            arrive(r#""user":1,"slot":2,"request":null,"request":"GET /b.ts HTTP/1.1""#),
            arrive(r#""user":1,"slot":2,"request":"GET /a.ts HTTP/1.1","request":nul"#),
            arrive(r#""user":1,"slot":2,"request":null"#),
            arrive(r#""user":1,"slot":2,"request":7"#),
            arrive(r#""user":1,"slot":2,"request":["GET"]"#),
            arrive(r#""user":1,"slot":2,"request":"GET /\"q\"\\\u00e9.ts HTTP/1.1""#),
            arrive(r#""user":1,"slot":2,"request":"GET /\uzzzz.ts HTTP/1.1""#),
            arrive(r#""user":1,"slot":2,"request":"GET /\u00e"#),
            feed(r#"{"kind":"depart","user":1,"slot":2,"request":"GET / HTTP/1.1"}"#),
            feed(r#"{"kind":"depart","user":1,"slot":2,"request":7}"#),
            // The tag after the fields, repeated, and missing or wrong.
            feed(r#"{"user":1,"slot":2,"request":"GET /a HTTP/1.1","kind":"arrive"}"#),
            feed(r#"{"user":1,"kind":"depart","slot":2,"kind":"arrive"}"#),
            feed(r#"{"user":1,"slot":2}"#),
            feed(r#"{"kind":7,"user":1,"slot":2}"#),
            feed(r#"{"kind":"leave","user":1,"slot":2}"#),
            // Repeated and unknown fields, and values out of range.
            feed(r#"{"kind":"depart","user":1,"slot":2,"user":-1,"x":{}}"#),
            feed(r#"{"kind":"depart","user":1.5,"slot":2}"#),
            feed(r#"{"kind":"arrive","user":1,"slot":18446744073709551616}"#),
            feed(r#"7"#),
        ];
        let mut feeds = 0;
        for line in &lines {
            let parsed = parse_command(line);
            feeds += usize::from(matches!(parsed, Ok(GwCommand::Feed { .. })));
            for max in [1, 2, 32] {
                match (&parsed, read_feed(line, max)) {
                    (Ok(GwCommand::Feed { events }), Some(read)) => {
                        assert_eq!(read.as_ref(), Ok(events), "{line}")
                    }
                    (Err(e), Some(read)) => assert_eq!(read.as_ref(), Err(e), "{line}"),
                    (_, None) => assert!(!matches!(parsed, Ok(GwCommand::Feed { .. })), "{line}"),
                    (Ok(other), Some(_)) => panic!("{line} read as a feed and as {other:?}"),
                }
            }
        }
        assert_eq!(feeds, 15, "lines that read as feeds");
    }

    /// A chunk of events in hand reads back as those events.
    #[test]
    fn events_in_hand_make_a_chunk() {
        let events = vec![
            LiveEvent::Arrive {
                user: 0,
                slot: 4,
                request: Some("GET /a.ts HTTP/1.1\r\n\r\n".into()),
            },
            LiveEvent::Depart { user: 0, slot: 9 },
            LiveEvent::Arrive {
                user: 1,
                slot: 5,
                request: None,
            },
            LiveEvent::Arrive {
                user: 2,
                slot: 6,
                request: Some("é".into()),
            },
        ];
        assert_eq!(live_events(&FeedChunk::from(events.clone())), events);
    }

    #[test]
    fn dpi_rate_extraction() {
        let wire = format_segment_request("u7", 0, 450.0, None);
        let text = std::str::from_utf8(&wire).expect("utf8");
        assert_eq!(declared_rate_from_request(text).expect("rate"), 450.0);
        assert!(matches!(
            declared_rate_from_request("GET / HTTP/1.1\r\n\r\n"),
            Err(ProtocolError::Reject { .. })
        ));
        assert!(matches!(
            declared_rate_from_request("POST /x HTTP/1.1\r\n\r\n"),
            Err(ProtocolError::Reject { .. })
        ));
        // An infinite bitrate parses as a float, but declares nothing.
        for value in ["inf", "1e999"] {
            let request = format!("GET /v/a.m4s HTTP/1.1\r\nX-Video-Bitrate-KBps: {value}\r\n\r\n");
            assert_eq!(
                declared_rate_from_request(&request),
                Err(ProtocolError::Reject {
                    reason: "request carries no declared bitrate".into()
                })
            );
        }
    }

    #[test]
    fn events_tagged_for_stream_splitting() {
        let ev = GwEvent::Checkpoint { slot: 25 };
        let line = serde_json::to_string(&ev).expect("serialize");
        assert!(line.contains(r#""event":"checkpoint""#), "{line}");
    }
}
