//! The live service: a deadline-aware loop over [`jmso_sim::SlotDriver`].
//!
//! One [`LiveService`] instance is one supervisor attempt: it builds the
//! driver (resuming from a durable checkpoint when one is readable,
//! falling back to a cold start with a logged warning otherwise), then
//! runs the slot loop in real or accelerated time, draining socket
//! commands at slot boundaries, printing each slot's records into one
//! batch that goes to the spool and the bounded fan-out together, and
//! writing periodic crash-safe checkpoints — captured and printed here,
//! reusing the last sidecar's unchanged rows, and made durable by a
//! persist thread while the loop keeps stepping (DESIGN.md §13).
//!
//! Determinism contract: under [`LivePolicy::Stall`] with a scripted
//! feed, the trace file this service writes is byte-identical to the
//! batch run of the equivalent scenario (declared arrival plan), because
//! the batch loop and this loop step the exact same [`SlotDriver`].

use crate::bus::{durable_slot, Command, CommandBus, FeedStream, NO_CKPT};
use crate::fanout::FanOut;
use crate::policy::LivePolicy;
use crate::spool::TraceSpool;
use jmso_gateway::{
    declared_rate_from_request, GwEvent, GwStatus, LiveEvent, ProtocolError, SvcState,
};
use jmso_sim::{
    atomic_write, CheckpointError, EngineCheckpoint, Scenario, ScenarioError, SidecarPrinter,
    SimError, SimWarning, SlotDriver, TraceError, TraceRecorder,
};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything one service (and every supervisor rebuild of it) needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Durable checkpoint sidecar; also the resume source on restart
    /// (together with the trace spool, when a trace is configured).
    pub ckpt_path: Option<PathBuf>,
    /// Checkpoint cadence in slots (0 = only the start/shutdown ones).
    pub ckpt_every: u64,
    /// Deadline overrun response.
    pub policy: LivePolicy,
    /// Wall-clock budget per slot, ms (`None` = accelerated, as fast as
    /// the hardware allows — no deadlines, so no overruns).
    pub slot_ms: Option<u64>,
    /// Final trace destination (written at completion, byte-identical
    /// to the batch trace of the equivalent run under `Stall`). Until
    /// then the record lines accumulate in the `<trace>.spool` file
    /// beside it. Without a trace path records are dropped once
    /// broadcast.
    pub trace_path: Option<PathBuf>,
    /// Trace downsampling window (1 = every slot).
    pub trace_every: u64,
    /// Live ingestion mode: defer every planned arrival and hold at
    /// slot 0 until sessions are fed over the socket and `start` is
    /// received.
    pub ingest: bool,
    /// Hold at slot 0 until a `start` command even without `--ingest`.
    pub hold: bool,
    /// Artificial per-slot work, ms — a load knob for demos and the
    /// deadline-overrun tests.
    pub step_delay_ms: u64,
    /// Fault-injection knob for the supervision tests: panic when the
    /// loop reaches this slot, on the first supervisor attempt only.
    pub fail_at: Option<u64>,
}

impl ServeConfig {
    /// A service around `scenario` with batch-like defaults: as-fast
    /// pacing, `Stall` policy, no sidecars, no holding.
    pub fn new(scenario: Scenario) -> Self {
        Self {
            scenario,
            ckpt_path: None,
            ckpt_every: 0,
            policy: LivePolicy::Stall,
            slot_ms: None,
            trace_path: None,
            trace_every: 1,
            ingest: false,
            hold: false,
            step_delay_ms: 0,
            fail_at: None,
        }
    }
}

/// How a service run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The run completed; the final trace (if configured) is on disk
    /// and the checkpoint sidecar was removed.
    Done {
        /// Slots executed.
        slots_run: u64,
    },
    /// Shutdown (signal or `shutdown` command) interrupted the run; a
    /// final checkpoint (if configured) is on disk for the next start.
    Interrupted {
        /// Next slot a resumed service will execute.
        at_slot: u64,
    },
}

/// The record batch goes out once it holds this many bytes (and at every
/// point where the loop waits or the disk state must be settled).
const BATCH_BYTES: usize = 64 * 1024;

/// What a successful resume hands to [`LiveService::build`].
type ResumedParts = (SlotDriver, TraceRecorder, Option<TraceSpool>);

/// The one serialisation of a trace line, appended to `out`: what is
/// broadcast, spooled and written to the final trace are all these bytes.
fn json_line<T: Serialize>(out: &mut String, value: &T) -> Result<(), TraceError> {
    serde_json::to_string_into(out, value).map_err(|e| TraceError::Parse {
        line: 0,
        reason: format!("serialize: {e:?}"),
    })
}

fn publish_event(fanout: &FanOut, ev: &GwEvent) {
    if let Ok(line) = serde_json::to_string(ev) {
        fanout.broadcast(&line);
    }
}

/// The persist thread: it takes a printed sidecar off the slot thread,
/// waits for the disk (spool `fdatasync`, then the sidecar's
/// `atomic_write`), and only then reports the checkpoint. At most one
/// sidecar is in flight — every attempt's sidecars go through the one
/// `<ckpt>.tmp` and must land in slot order — so whoever needs the disk
/// state settled (the next checkpoint, shutdown, completion) joins first.
#[derive(Default)]
struct Persist {
    in_flight: Option<JoinHandle<Result<(), SimError>>>,
}

impl Persist {
    /// Wait until the sidecar in flight, if any, is durable. A failed
    /// write is reported here, once.
    fn join(&mut self) -> Result<(), SimError> {
        match self.in_flight.take().map(JoinHandle::join) {
            None => Ok(()),
            Some(Ok(persisted)) => persisted,
            // A panic over there is a panic of this attempt.
            Some(Err(panic)) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for Persist {
    /// An attempt that unwinds still settles its sidecar before the
    /// supervisor builds the next one: a late rename would replace the
    /// restart's sidecar with an older slot's. The outcome is dropped —
    /// the restart resumes from whatever is on disk either way.
    fn drop(&mut self) {
        if let Some(thread) = self.in_flight.take() {
            let _ = thread.join();
        }
    }
}

/// Record lines on their way out: the batch printed and not yet sent,
/// each line ending in `\n`, and the spool (`Some` iff a trace path is
/// configured) every batch is appended to in one `write`.
struct Records {
    /// Cleared, never shrunk.
    batch: String,
    spool: Option<TraceSpool>,
}

impl Records {
    /// Append the batch to the spool and clear it.
    fn spool_batch(&mut self) -> Result<(), SimError> {
        if let Some(spool) = &mut self.spool {
            spool.append(&self.batch)?;
        }
        self.batch.clear();
        Ok(())
    }
}

impl Drop for Records {
    /// An attempt that unwinds leaves the lines it printed in the spool,
    /// as its next flush would have: the restart cuts whatever lies past
    /// its checkpoint.
    fn drop(&mut self) {
        let _ = self.spool_batch();
    }
}

/// One supervised attempt at running the scenario live.
pub struct LiveService {
    cfg: ServeConfig,
    bus: Arc<CommandBus>,
    fanout: Arc<FanOut>,
    shutdown: Arc<AtomicBool>,
    driver: SlotDriver,
    rec: TraceRecorder,
    state: SvcState,
    stopping: bool,
    warnings: Vec<String>,
    dropped_slots: u64,
    degraded: bool,
    /// Slot of the newest *durable* sidecar ([`NO_CKPT`] before the
    /// first); stored by the persist thread once the rename is synced.
    last_ckpt_slot: Arc<AtomicU64>,
    /// Slot at which the newest checkpoint was captured, durable or not:
    /// what the periodic trigger compares against, so one slot boundary
    /// hands off one sidecar.
    ckpt_handed_off: Option<u64>,
    persist: Persist,
    /// The record lines' way out. The recorder is drained into it after
    /// every slot, so `rec` holds no records between slots.
    records: Records,
    /// The last sidecar and its checkpoint, whose unchanged rows the
    /// next sidecar copies.
    sidecar: SidecarPrinter,
    /// Deadline anchor: wall-clock instant at which `anchor.1` was due
    /// to start. `None` = re-anchor on the next paced slot.
    anchor: Option<(Instant, u64)>,
    startup_events: Vec<GwEvent>,
}

impl LiveService {
    /// Build one attempt: recorder, driver (resume or cold start), and
    /// the initial lifecycle state. `attempt` is the supervisor's
    /// restart counter — the `fail_at` fault fires only on attempt 0.
    pub fn build(
        cfg: ServeConfig,
        bus: Arc<CommandBus>,
        fanout: Arc<FanOut>,
        shutdown: Arc<AtomicBool>,
        attempt: u32,
    ) -> Result<Self, SimError> {
        let mut warnings = Vec::new();
        let mut startup_events = Vec::new();
        let fail_at = if attempt == 0 { cfg.fail_at } else { None };

        let sidecar = cfg.ckpt_path.as_deref().filter(|p| p.exists());
        let resumed = sidecar.and_then(|p| match Self::resume(&cfg, p) {
            Ok(parts) => Some(parts),
            Err(reason) => {
                // Unreadable sidecar, scenario drift, or a spool that
                // does not reach the checkpoint: log, cold-start.
                let w = SimWarning::CheckpointFallback { reason }.to_string();
                startup_events.push(GwEvent::ColdStart { reason: w.clone() });
                warnings.push(w);
                None
            }
        });
        let (driver, rec, spool, state) = match resumed {
            Some((driver, rec, spool)) => {
                startup_events.push(GwEvent::Resumed {
                    slot: driver.next_slot(),
                });
                // The fed schedule travels inside the checkpoint; no
                // holding, no re-feeding.
                (driver, rec, spool, SvcState::Running)
            }
            None => {
                let mut rec = Self::fresh_recorder(&cfg);
                let mut driver = cfg.scenario.driver(&mut rec, None)?;
                if cfg.ingest {
                    driver.defer_all_arrivals().map_err(SimError::Scenario)?;
                }
                let spool = match &cfg.trace_path {
                    Some(trace) => Some(TraceSpool::open(trace, 0)?),
                    None => None,
                };
                startup_events.push(GwEvent::Started {
                    slots: driver.horizon(),
                });
                let state = if cfg.ingest || cfg.hold {
                    SvcState::Holding
                } else {
                    SvcState::Running
                };
                (driver, rec, spool, state)
            }
        };
        Ok(Self {
            cfg: ServeConfig { fail_at, ..cfg },
            bus,
            fanout,
            shutdown,
            driver,
            rec,
            state,
            stopping: false,
            warnings,
            dropped_slots: 0,
            degraded: false,
            last_ckpt_slot: Arc::new(AtomicU64::new(NO_CKPT)),
            ckpt_handed_off: None,
            persist: Persist::default(),
            records: Records {
                batch: String::new(),
                spool,
            },
            sidecar: SidecarPrinter::default(),
            anchor: None,
            startup_events,
        })
    }

    /// Restore driver, recorder and spool from the durable pair. `Err`
    /// is the reason the pair is unusable; the caller cold-starts.
    fn resume(cfg: &ServeConfig, sidecar: &Path) -> Result<ResumedParts, String> {
        let ck = EngineCheckpoint::read_file(sidecar).map_err(|e| e.to_string())?;
        let mut rec = Self::fresh_recorder(cfg);
        let driver = cfg
            .scenario
            .driver(&mut rec, Some(&ck))
            .map_err(|e| e.to_string())?;
        // This build's sidecars carry no records (they are in the
        // spool); one written before the spool existed embeds them all.
        let embedded = rec.take_records();
        let Some(trace) = &cfg.trace_path else {
            return Ok((driver, rec, None));
        };
        let spool = if embedded.is_empty() {
            TraceSpool::open(trace, rec.emitted())
        } else {
            TraceSpool::open(trace, 0).and_then(|mut spool| {
                let mut lines = String::new();
                for r in &embedded {
                    json_line(&mut lines, r)?;
                    lines.push('\n');
                }
                spool.append(&lines)?;
                Ok(spool)
            })
        };
        spool
            .map(|spool| (driver, rec, Some(spool)))
            .map_err(|e| e.to_string())
    }

    /// The batch trace's recorder, so the bytes line up — and in ingest
    /// mode, an open-system workload by construction (live arrivals),
    /// the live-population column whatever the scenario declares.
    fn fresh_recorder(cfg: &ServeConfig) -> TraceRecorder {
        let rec = cfg.scenario.trace_recorder(cfg.trace_every);
        match cfg.ingest {
            true => rec.with_live_counts(),
            false => rec,
        }
    }

    /// Current status snapshot: the `status` reply, whether published on
    /// the bus or sent over it.
    pub fn status(&self) -> GwStatus {
        GwStatus {
            state: self.state,
            slot: self.driver.next_slot(),
            slots: self.driver.horizon(),
            watching: self.driver.watching(),
            policy: self.cfg.policy.as_str().to_string(),
            dropped_slots: self.dropped_slots,
            dropped_subscribers: self.fanout.dropped(),
            last_checkpoint_slot: durable_slot(&self.last_ckpt_slot),
            warnings: self.warnings.clone(),
        }
    }

    /// Drain the records the last step emitted: serialise each once,
    /// into the batch, which goes out once it holds [`BATCH_BYTES`], or
    /// at once when paced. `publish` false (a dropped slot) sends the
    /// batch so far, then this slot's lines to the spool only — the
    /// durable trace still carries them, the subscribers never see them.
    fn publish_new_records(&mut self, publish: bool) -> Result<(), SimError> {
        let records = self.rec.take_records();
        if records.is_empty() {
            return Ok(());
        }
        if !publish {
            self.flush_batch()?;
        }
        let wanted = publish && !self.fanout.is_empty();
        if self.records.spool.is_none() && !wanted {
            return Ok(());
        }
        for r in &records {
            json_line(&mut self.records.batch, r)?;
            self.records.batch.push('\n');
        }
        if !publish {
            self.records.spool_batch()?;
        } else if self.cfg.slot_ms.is_some() || self.records.batch.len() >= BATCH_BYTES {
            // Paced, a slot's records go out before the next slot waits
            // for its deadline or runs.
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Send the batch: to the spool in one `write`, to every subscriber
    /// as one shared message.
    fn flush_batch(&mut self) -> Result<(), SimError> {
        let Some(lines) = self.records.batch.strip_suffix('\n') else {
            return Ok(());
        };
        if self.fanout.broadcast(lines) > 0 {
            publish_event(
                &self.fanout,
                &GwEvent::SubscriberDropped {
                    total: self.fanout.dropped(),
                },
            );
        }
        self.records.spool_batch()
    }

    /// Take one feed line off its stream. Each chunk's requests go
    /// through DPI as the chunk arrives, while the connection thread reads
    /// the rest of the line; once the line is committed it is applied in
    /// order, up to its first rejection. A line whose sender went away
    /// uncommitted applies nothing.
    fn apply_feed(&mut self, stream: &FeedStream) -> Result<(), ProtocolError> {
        let mut staged = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            staged.extend(chunk.into_iter().map(|ev| {
                let rate = match &ev {
                    LiveEvent::Arrive {
                        request: Some(req), ..
                    } => Some(declared_rate_from_request(req)),
                    _ => None,
                };
                (ev, rate)
            }));
        }
        let reject = |e: ScenarioError| ProtocolError::Reject {
            reason: e.to_string(),
        };
        for (ev, rate) in staged {
            match ev {
                LiveEvent::Arrive { user, slot, .. } => {
                    if let Some(rate) = rate {
                        self.driver.set_declared_rate(user, rate?).map_err(reject)?;
                    }
                    self.driver.set_arrival(user, slot).map_err(reject)?;
                }
                LiveEvent::Depart { user, slot } => {
                    self.driver.set_departure(user, slot).map_err(reject)?;
                }
            }
        }
        Ok(())
    }

    /// Bring the published status up to this instant. What else it
    /// holds is fixed for the attempt, or read at reply time.
    fn publish_status(&self) {
        self.bus.update_status(|s| {
            s.state = self.state;
            s.slot = self.driver.next_slot();
            s.watching = self.driver.watching();
            s.dropped_slots = self.dropped_slots;
        });
    }

    /// Apply one command. One that changes the status publishes it before
    /// its reply, so a client holding the ack never reads an older one.
    fn handle(&mut self, cmd: Command) {
        match cmd {
            Command::Feed { events, reply } => {
                let outcome = self.apply_feed(&events);
                self.publish_status();
                let _ = reply.send(outcome);
            }
            Command::Status { reply } => {
                let _ = reply.send(self.status());
            }
            Command::Start { reply } => {
                if self.state == SvcState::Holding {
                    self.state = SvcState::Running;
                    self.anchor = None;
                }
                self.publish_status();
                let _ = reply.send(Ok(()));
            }
            Command::Shutdown { reply } => {
                self.stopping = true;
                let _ = reply.send(Ok(()));
            }
        }
    }

    /// Capture a checkpoint at this slot boundary and hand it to the
    /// persist thread. The CPU half (capture, `to_json`) stays here: on a
    /// thread of its own it competes with the connection threads and
    /// costs commands more than it saves slots (DESIGN.md §13).
    fn write_checkpoint(&mut self) -> Result<(), SimError> {
        self.flush_batch()?;
        let slot = self.driver.next_slot();
        self.ckpt_handed_off = Some(slot);
        let Some(path) = self.cfg.ckpt_path.clone() else {
            return Ok(());
        };
        // Log before snapshot: every record the sidecar below counts as
        // emitted is in the file now, and the persist thread syncs the
        // file before it renames the sidecar into place.
        let spool = match &self.records.spool {
            Some(spool) => Some(spool.syncer()?),
            None => None,
        };
        let ck = self
            .driver
            .checkpoint(&self.rec)
            .map_err(SimError::Checkpoint)?;
        let json = self.sidecar.print(ck);
        self.persist.join()?;
        let (fanout, last_ckpt_slot) = (self.fanout.clone(), self.last_ckpt_slot.clone());
        let io_err = |path: &Path, source| {
            SimError::Checkpoint(CheckpointError::Io {
                path: path.to_path_buf(),
                source,
            })
        };
        let thread = std::thread::Builder::new().name("jmso-persist".into());
        let spawned = thread.spawn({
            let path = path.clone();
            move || {
                if let Some(spool) = spool {
                    spool.sync()?;
                }
                atomic_write(&path, json.as_bytes()).map_err(|e| io_err(&path, e))?;
                // Both mean *durable*: neither names a sidecar before
                // its rename and directory sync returned.
                last_ckpt_slot.store(slot, Ordering::SeqCst);
                publish_event(&fanout, &GwEvent::Checkpoint { slot });
                Ok(())
            }
        });
        self.persist.in_flight = Some(spawned.map_err(|e| io_err(&path, e))?);
        Ok(())
    }

    fn overrun(&mut self, slot: u64) -> bool {
        let action = self.cfg.policy.as_str().to_string();
        publish_event(&self.fanout, &GwEvent::DeadlineOverrun { slot, action });
        match self.cfg.policy {
            LivePolicy::Stall => true,
            LivePolicy::DropSlots => {
                self.dropped_slots += 1;
                false
            }
            LivePolicy::Degrade => {
                if !self.degraded && self.driver.engage_degraded() {
                    self.degraded = true;
                    publish_event(&self.fanout, &GwEvent::Degraded { slot });
                }
                true
            }
        }
    }

    /// Run the slot loop to completion, interruption, or panic (the
    /// supervisor catches the latter). Consumes the attempt — the
    /// supervisor builds a fresh one from the durable state on restart.
    pub fn run(mut self) -> Result<Outcome, SimError> {
        // Published before the startup events: whoever has seen one can
        // read `status` without the bus.
        self.bus
            .publish_status(self.status(), self.last_ckpt_slot.clone());
        for ev in std::mem::take(&mut self.startup_events) {
            publish_event(&self.fanout, &ev);
        }
        let pace = self.cfg.slot_ms.map(Duration::from_millis);
        loop {
            // A slot boundary.
            self.publish_status();
            if self.shutdown.load(Ordering::SeqCst) || self.stopping {
                return self.interrupt();
            }
            if self.state == SvcState::Holding {
                self.flush_batch()?;
                for cmd in self.bus.wait(Duration::from_millis(100)) {
                    self.handle(cmd);
                }
                continue;
            }
            for cmd in self.bus.drain() {
                self.handle(cmd);
            }
            if self.stopping {
                return self.interrupt();
            }
            if self.driver.is_finished() {
                return self.complete();
            }
            let slot = self.driver.next_slot();
            match self.ckpt_handed_off {
                // In ingest mode the fed schedule exists only in memory
                // until the first checkpoint: anchor one at the running
                // transition, durable before the first slot runs, so a
                // crash at any executed slot resumes with the schedule.
                None => {
                    self.write_checkpoint()?;
                    self.persist.join()?;
                }
                Some(at) => {
                    let every = self.cfg.ckpt_every;
                    if every > 0 && slot.is_multiple_of(every) && at != slot {
                        self.write_checkpoint()?;
                    }
                }
            }
            let mut publish = true;
            if let Some(p) = pace {
                let now = Instant::now();
                let (t0, s0) = *self.anchor.get_or_insert((now, slot));
                let due = t0 + p.saturating_mul((slot - s0) as u32);
                if now < due {
                    std::thread::sleep(due - now);
                } else if now.duration_since(due) > p {
                    // More than one full budget late: the overrun
                    // policy decides, then the deadline clock
                    // re-anchors so lateness never compounds.
                    publish = self.overrun(slot);
                    self.anchor = Some((now, slot));
                }
            }
            if self.cfg.fail_at.is_some_and(|f| slot >= f) {
                // The one deliberate panic in this crate: the fault
                // injection knob the supervision tests use to exercise
                // catch_unwind + restart. Armed only via --fail-at.
                #[allow(clippy::panic)]
                {
                    panic!("injected failure at slot {slot}");
                }
            }
            if self.cfg.step_delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(self.cfg.step_delay_ms));
            }
            self.driver.step(&mut self.rec);
            self.publish_new_records(publish)?;
        }
    }

    /// Graceful interruption: final checkpoint, drain, report.
    fn interrupt(mut self) -> Result<Outcome, SimError> {
        self.state = SvcState::Stopping;
        self.publish_status();
        let at_slot = self.driver.next_slot();
        self.write_checkpoint()?;
        self.persist.join()?;
        self.fanout.close();
        Ok(Outcome::Interrupted { at_slot })
    }

    /// Completion: settle the result, write the final trace (header +
    /// spooled lines + the partial window `finish` flushed), clear the
    /// checkpoint sidecar (the run is over; a restart must not resume
    /// it), surface simulation warnings, announce `done`, then remove
    /// the spool and close the fan-out.
    fn complete(mut self) -> Result<Outcome, SimError> {
        self.flush_batch()?;
        // A rename landing after the removals below would resurrect the
        // finished run.
        self.persist.join()?;
        let Self {
            cfg,
            bus,
            fanout,
            driver,
            mut rec,
            mut records,
            sidecar,
            ..
        } = self;
        // Gone before the trace is assembled; the batch is empty.
        let spool = records.spool.take();
        drop((records, sidecar));
        let result = driver.finish(&mut rec);
        for w in &result.warnings {
            if let Ok(line) = serde_json::to_string(&GwEvent::Warning {
                message: w.to_string(),
            }) {
                fanout.broadcast(&line);
            }
        }
        if let (Some(path), Some(spool)) = (&cfg.trace_path, &spool) {
            // The recorder was drained slot by slot: what it still holds
            // is the tail `finish` emitted, and its header is the run's.
            let tail = rec.into_trace(&result.scheduler);
            let mut header = String::new();
            json_line(&mut header, &tail.meta)?;
            header.push('\n');
            let mut tail_lines = String::new();
            for r in &tail.records {
                json_line(&mut tail_lines, r)?;
                tail_lines.push('\n');
            }
            // Assembled in memory, not streamed: ISSUE 14 keeps the
            // daemon's peak RSS above the benchmark harness's own (it
            // discards a life whose `ru_maxrss` it cannot tell from the
            // one inherited across `exec`). Streaming spool → trace is
            // the follow-up once that check is gone.
            let out = [header.as_bytes(), &spool.read()?, tail_lines.as_bytes()].concat();
            atomic_write(path, &out).map_err(|source| TraceError::Io {
                path: path.clone(),
                source,
            })?;
        }
        if let Some(p) = &cfg.ckpt_path {
            let _ = std::fs::remove_file(p);
        }
        bus.update_status(|s| s.state = SvcState::Done);
        if let Ok(line) = serde_json::to_string(&GwEvent::Done {
            slots_run: result.slots_run,
        }) {
            fanout.broadcast(&line);
        }
        // The trace is whole, so the spool is garbage: it is removed
        // while the subscribers' threads write `done` out, not before.
        if let Some(spool) = spool {
            spool.remove();
        }
        fanout.close();
        Ok(Outcome::Done {
            slots_run: result.slots_run,
        })
    }
}
