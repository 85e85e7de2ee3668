//! The sidecar: its format and version, `Engine::restore` and `SlotDriver::checkpoint`.

use super::admission_tick::planned_arrivals;
use super::{Engine, SlotDriver, NO_WINDOW, SIG_BLOCK_SLOTS};
use crate::error::{atomic_write, CheckpointError};
use crate::telemetry::SlotRecorder;
use crate::waiting_room::WaitingRoom;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::{AdmissionState, CollectorState, FlowState, UserSnapshot};
use jmso_media::{AbrClient, ClientPlayback, VideoSession};
use jmso_radio::{Dbm, EnergyMeter, RrcMachine};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Serializable snapshot of one user's mid-run state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct UserCkpt {
    session: VideoSession,
    playback: ClientPlayback,
    rrc: RrcMachine,
    meter: EnergyMeter,
    pub(super) cur_signal: Dbm,
    pub(super) sig_block: Vec<f64>,
    active_slots: u64,
    arrival_slot: u64,
    departure_slot: u64,
    declared_rate_kbps: Option<f64>,
    pub(super) sig_samples: u64,
    /// The user's ABR client state; absent on fixed-bitrate runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    abr: Option<AbrClient>,
}

/// Loop-local accumulators that live outside the engine components.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(super) struct LoopCkpt {
    pub(super) fairness_series: Vec<f64>,
    pub(super) fairness_window_series: Vec<f64>,
    pub(super) power_series_j: Vec<f64>,
    pub(super) window_delivered: Vec<f64>,
    pub(super) window_need: Vec<f64>,
    pub(super) slots_run: u64,
    pub(super) watching: usize,
    pub(super) done_watching: Vec<bool>,
    pub(super) retired: Vec<bool>,
    pub(super) retired_at: Vec<u64>,
    pub(super) live: Vec<usize>,
    pub(super) raw: Vec<RawUserState>,
    pub(super) snapshots: Vec<UserSnapshot>,
}

/// Full engine state captured at the top of a slot.
///
/// A checkpoint taken at slot `k` plus a freshly built engine for the
/// same scenario reproduces the straight run exactly: same
/// [`crate::SimResult`], same telemetry trace bytes (pinned by the
/// checkpoint-resume property test).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    version: u32,
    pub(super) slot: u64,
    pub(super) users: Vec<UserCkpt>,
    receiver: Vec<FlowState>,
    pub(super) collector: CollectorState,
    scheduler: String,
    transmitter_clamps: u64,
    pub(super) recorder: String,
    pub(super) loop_state: LoopCkpt,
    /// Admission-controller state (absent when no feasibility controller
    /// is installed; its arrival queue is rebuilt from the users' arrival
    /// slots on restore).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    admission: Option<AdmissionCkpt>,
}

/// Checkpoint format version this build writes, and the only one it
/// reads: a sidecar of any other version is refused as corrupt.
const CKPT_VERSION: u32 = 4;

impl EngineCheckpoint {
    /// Slot the resumed run will execute next.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Serialize to the sidecar JSON payload: [`SidecarPrinter`]'s
    /// bytes, printed with nothing to reuse.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        Ok(self.print(None, None).0)
    }

    /// The derived `Serialize` layout, written field by field so that the
    /// four per-user tables can reuse `last`'s bytes row by row. `spans`,
    /// when given, receives where each of those rows lies in the text.
    /// Also returns how many rows were reused.
    fn print(&self, last: Option<Last<'_>>, spans: Option<&mut Spans>) -> (String, usize) {
        let size = last.map_or(0, |l| l.text.len());
        let mut out = String::with_capacity(size + size / 8);
        let mut tables = Tables {
            last,
            spans,
            reused: 0,
        };
        let lp = &self.loop_state;
        out.push('{');
        field(&mut out, "version", &self.version);
        field(&mut out, "slot", &self.slot);
        tables.print(&mut out, "users", 0, self, |c| &c.users);
        tables.print(&mut out, "receiver", 1, self, |c| &c.receiver);
        field(&mut out, "collector", &self.collector);
        field(&mut out, "scheduler", &self.scheduler);
        field(&mut out, "transmitter_clamps", &self.transmitter_clamps);
        field(&mut out, "recorder", &self.recorder);
        key(&mut out, "loop_state");
        out.push('{');
        field(&mut out, "fairness_series", &lp.fairness_series);
        field(
            &mut out,
            "fairness_window_series",
            &lp.fairness_window_series,
        );
        field(&mut out, "power_series_j", &lp.power_series_j);
        field(&mut out, "window_delivered", &lp.window_delivered);
        field(&mut out, "window_need", &lp.window_need);
        field(&mut out, "slots_run", &lp.slots_run);
        field(&mut out, "watching", &lp.watching);
        field(&mut out, "done_watching", &lp.done_watching);
        field(&mut out, "retired", &lp.retired);
        field(&mut out, "retired_at", &lp.retired_at);
        field(&mut out, "live", &lp.live);
        tables.print(&mut out, "raw", 2, self, |c| &c.loop_state.raw);
        tables.print(&mut out, "snapshots", 3, self, |c| &c.loop_state.snapshots);
        out.push('}');
        if let Some(admission) = &self.admission {
            field(&mut out, "admission", admission);
        }
        out.push('}');
        (out, tables.reused)
    }

    /// Parse a sidecar JSON payload (version-checked).
    pub fn from_json(s: &str) -> Result<Self, CheckpointError> {
        let ck: Self = serde_json::from_str(s).map_err(|e| CheckpointError::Corrupt {
            reason: format!("parse: {e:?}"),
        })?;
        if ck.version != CKPT_VERSION {
            return Err(CheckpointError::Corrupt {
                reason: format!("version {} (this build reads {CKPT_VERSION})", ck.version),
            });
        }
        Ok(ck)
    }

    /// Atomically write the checkpoint to `path`.
    pub fn write_file(&self, path: &Path) -> Result<(), CheckpointError> {
        let json = self.to_json()?;
        atomic_write(path, json.as_bytes()).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Read and parse a checkpoint sidecar.
    pub fn read_file(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Self::from_json(&text)
    }
}

/// An object key in the compact form, with the comma before it unless
/// it is the object's first.
fn key(out: &mut String, name: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

fn field<T: Serialize>(out: &mut String, name: &str, value: &T) {
    key(out, name);
    // Printing into a `String` cannot fail.
    let _ = serde_json::to_string_into(out, value);
}

/// Where each row of the four per-user tables lies in a sidecar's text.
type Spans = [Vec<Range<usize>>; 4];

/// The sidecar a print may reuse rows of: its checkpoint, its text, and
/// its rows' spans in that text.
#[derive(Clone, Copy)]
struct Last<'a> {
    ck: &'a EngineCheckpoint,
    text: &'a str,
    spans: &'a Spans,
}

/// The per-user tables of one print.
struct Tables<'a> {
    last: Option<Last<'a>>,
    spans: Option<&'a mut Spans>,
    reused: usize,
}

impl Tables<'_> {
    /// The key `name`, then table `k` — the rows `table` picks out of a
    /// checkpoint — as `Vec<T>` prints in the compact form. A row that
    /// is [`Serialize::same_bits`] as the last sidecar's row at its
    /// index is copied from that sidecar's text instead of printed again.
    fn print<T: Serialize>(
        &mut self,
        out: &mut String,
        name: &str,
        k: usize,
        ck: &EngineCheckpoint,
        table: fn(&EngineCheckpoint) -> &Vec<T>,
    ) {
        key(out, name);
        let last = self.last.map(|l| (table(l.ck), l.text, &l.spans[k]));
        let mut spans = self.spans.as_deref_mut().map(|s| &mut s[k]);
        out.push('[');
        for (i, row) in table(ck).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let at = out.len();
            let was = last.and_then(|(rows, text, spans)| {
                let bytes = text.get(spans.get(i)?.clone())?;
                rows.get(i).filter(|was| row.same_bits(was)).map(|_| bytes)
            });
            match was {
                Some(bytes) => {
                    out.push_str(bytes);
                    self.reused += 1;
                }
                // Printing into a `String` cannot fail.
                None => drop(serde_json::to_string_into(out, row)),
            }
            if let Some(spans) = spans.as_deref_mut() {
                spans.push(at..out.len());
            }
        }
        out.push(']');
    }
}

/// Prints a run's sidecars one after another, each reusing the bytes of
/// the one before for every row of its per-user tables — `users`,
/// `receiver`, `loop_state.raw` and `loop_state.snapshots` — that is bit
/// for bit what it was then. Between two of a daemon's checkpoints most
/// users are not live (not yet arrived, or gone), so most rows are.
///
/// Rows are compared with [`Serialize::same_bits`], which compares
/// floats by `f64::to_bits`, never by `==`: `0.0` → `-0.0` is a change,
/// and a NaN is the same as its own pattern. What it prints is byte for
/// byte [`EngineCheckpoint::to_json`], which is this printer with
/// nothing to reuse.
#[derive(Debug, Default)]
pub struct SidecarPrinter {
    /// The last sidecar printed; shared with whoever is writing it out.
    text: Arc<String>,
    /// The checkpoint `text` is the print of.
    last: Option<EngineCheckpoint>,
    spans: Spans,
    reused: usize,
}

impl SidecarPrinter {
    /// Print `ck`, reusing what it can of the last sidecar, and keep both
    /// for the next print.
    pub fn print(&mut self, ck: EngineCheckpoint) -> Arc<String> {
        let mut spans = Spans::default();
        let last = self.last.as_ref().map(|ck| Last {
            ck,
            text: &self.text,
            spans: &self.spans,
        });
        let (text, reused) = ck.print(last, Some(&mut spans));
        *self = SidecarPrinter {
            text: Arc::new(text),
            last: Some(ck),
            spans,
            reused,
        };
        self.text.clone()
    }

    /// Rows the last [`SidecarPrinter::print`] copied from the sidecar
    /// before it.
    pub fn reused_rows(&self) -> usize {
        self.reused
    }
}

/// Serializable slice of an `AdmissionRuntime` (the arrival queue —
/// planned list, waiting room and gate — is derived from per-user
/// arrival slots and deferral counts and rebuilt on restore).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdmissionCkpt {
    state: AdmissionState,
    energy_mj: f64,
    user_slots: u64,
    /// The incremental active-population aggregates, verbatim, so a
    /// resumed run continues on the exact float sum.
    n_active: usize,
    rate_sum: f64,
}

impl Engine {
    /// Restore component state from a checkpoint (everything except the
    /// loop-carried accumulators and the signal windows, which
    /// `build_driver` reinstalls, replaying each signal's samples).
    pub(super) fn restore(&mut self, ck: &EngineCheckpoint) -> Result<(), CheckpointError> {
        let [lane] = self.lanes.as_mut_slice() else {
            return Err(multi_lane_checkpoint());
        };
        if ck.users.len() != self.users.len() {
            return Err(CheckpointError::Restore {
                component: "users",
                reason: format!(
                    "checkpoint has {} users, engine has {}",
                    ck.users.len(),
                    self.users.len()
                ),
            });
        }
        for (i, (u, s)) in self.users.iter_mut().zip(&ck.users).enumerate() {
            if s.sig_block.len() != SIG_BLOCK_SLOTS {
                return Err(CheckpointError::Restore {
                    component: "signal",
                    reason: format!(
                        "sig_block has {} entries, expected {SIG_BLOCK_SLOTS}",
                        s.sig_block.len()
                    ),
                });
            }
            u.session = s.session;
            u.playback = s.playback.clone();
            u.rrc = s.rrc.clone();
            u.meter = s.meter.clone();
            u.active_slots = s.active_slots;
            self.arrival[i] = s.arrival_slot;
            self.departure[i] = s.departure_slot;
            u.declared_rate_kbps = s.declared_rate_kbps;
        }
        // ABR presence must agree between the checkpoint and the engine
        // (a spec mismatch would silently change pricing mid-run).
        if let Some(a) = self.abr.as_mut() {
            for (i, s) in ck.users.iter().enumerate() {
                let Some(c) = s.abr else {
                    return Err(CheckpointError::Restore {
                        component: "abr",
                        reason: "checkpoint has no ABR client state but the engine runs ABR".into(),
                    });
                };
                a.clients[i] = c;
            }
        } else if ck.users.iter().any(|s| s.abr.is_some()) {
            return Err(CheckpointError::Restore {
                component: "abr",
                reason: "checkpoint carries ABR client state but the engine runs fixed-bitrate"
                    .into(),
            });
        }
        match (self.admission.as_mut(), &ck.admission) {
            (Some(a), Some(s)) => {
                a.ctl
                    .import_state(&s.state)
                    .map_err(|reason| CheckpointError::Restore {
                        component: "admission",
                        reason,
                    })?;
                a.energy_mj = s.energy_mj;
                a.user_slots = s.user_slots;
                // Each pending user's deferrals must be ones the
                // checkpoint's tick could have left: none for a user not
                // yet due, at most the cap for one it deferred to the
                // next slot — else the first due slot they place the
                // user's wait at is not the one the run had — and all of
                // them in the tally, which hands them to the clock when
                // the wait re-opens (`AdmissionController::start_wait`).
                let cap = a.ctl.max_defer_slots();
                let counts = &s.state.defer_counts;
                let mut pending = 0u64;
                for (i, &arrival) in self.arrival.iter().enumerate() {
                    let deferred = counts[i];
                    if arrival <= ck.slot || arrival == u64::MAX || deferred == 0 {
                        continue;
                    }
                    if deferred > cap || deferred > arrival || arrival != ck.slot + 1 {
                        return Err(CheckpointError::Restore {
                            component: "admission",
                            reason: format!(
                                "user {i}, due at slot {arrival}, carries {deferred} deferrals \
                                 (cap {cap}; a deferred user is due at slot {})",
                                ck.slot + 1
                            ),
                        });
                    }
                    pending += deferred;
                }
                if pending > s.state.summary.deferrals {
                    return Err(CheckpointError::Restore {
                        component: "admission",
                        reason: format!(
                            "pending users carry {pending} deferrals, the tally only {}",
                            s.state.summary.deferrals
                        ),
                    });
                }
                // Rebuild the queue from the restored arrival slots and
                // deferral counts: at the top of slot k everything still
                // due after k awaits a ruling (the tick at the end of
                // slot k−1 consumed what was due at or before k), and a
                // user deferred to k+1 re-enters the waiting room at the
                // first due slot its count places it at. `build_driver`
                // re-derives the gate's `admitted` list.
                a.planned = planned_arrivals(&self.arrival, ck.slot, |i| counts[i]);
                a.planned_next = 0;
                a.expire_next = 0;
                a.waiting = WaitingRoom::new(self.users.len());
                a.admitted.clear();
                a.rejected.clear();
                a.n_active = s.n_active;
                a.rate_sum = s.rate_sum;
            }
            (None, None) => {}
            _ => {
                return Err(CheckpointError::Restore {
                    component: "admission",
                    reason: "admission-control presence differs between checkpoint and engine"
                        .into(),
                })
            }
        }
        self.receiver
            .import_state(&ck.receiver)
            .map_err(|reason| CheckpointError::Restore {
                component: "receiver",
                reason,
            })?;
        self.collector
            .import_state(&ck.collector)
            .map_err(|reason| CheckpointError::Restore {
                component: "collector",
                reason,
            })?;
        lane.scheduler
            .import_state(&ck.scheduler)
            .map_err(|reason| CheckpointError::Restore {
                component: "scheduler",
                reason,
            })?;
        lane.transmitter.restore_clamp_events(ck.transmitter_clamps);
        Ok(())
    }
}

impl SlotDriver {
    /// Capture the full simulation state at the top of the next slot.
    /// Feeding the checkpoint to a freshly built driver (or any batch
    /// resume path) for the same scenario continues bit-identically.
    pub fn checkpoint<R: SlotRecorder>(
        &self,
        rec: &R,
    ) -> Result<EngineCheckpoint, CheckpointError> {
        let (eng, c, lp) = (&self.engine, &self.cols, &self.lp);
        let [lane] = self.lanes.as_slice() else {
            return Err(multi_lane_checkpoint());
        };
        let recorder = rec.export_state().ok_or(CheckpointError::Unsupported {
            reason: "recorder cannot export its state".into(),
        })?;
        let scheduler =
            lane.scheduler
                .export_state()
                .ok_or_else(|| CheckpointError::Unsupported {
                    reason: format!(
                        "scheduler {} cannot export its state",
                        lane.scheduler.name()
                    ),
                })?;
        // Before the first slot nothing has been reported: the sidecar
        // carries no rows and the report cache as built.
        let reported = lp.rows_primed && lp.slots_run > 0;
        let mut collector = eng.collector.export_state();
        if self.mode.pass_through && reported {
            // A pass-through collector's rows are written by the build
            // and phase A, which leave its (never read) report cache
            // alone; the last report is by definition the row's signal.
            for (cached, snap) in collector.cached_signal.iter_mut().zip(&c.snaps) {
                *cached = Some(snap.signal);
            }
        }
        // What a user who never went live exports.
        let built = (Dbm(0.0), &[Dbm(0.0); SIG_BLOCK_SLOTS], 0);
        // A user in the admission waiting room was deferred to the slot
        // after this one; the tick leaves that unwritten.
        let waiting = eng.admission.as_ref().map(|a| &a.waiting);
        let deferred_to = self.next_slot + 1;
        Ok(EngineCheckpoint {
            version: CKPT_VERSION,
            slot: self.next_slot,
            users: (c.users.iter().enumerate())
                .map(|(i, u)| {
                    let (cur_signal, sig, sig_samples) = match u.window {
                        NO_WINDOW => built,
                        w => {
                            let w = &self.live.windows[w as usize];
                            (w.cur_signal, &w.sig, w.sig_samples)
                        }
                    };
                    UserCkpt {
                        session: u.session,
                        playback: u.playback.clone(),
                        rrc: u.rrc.clone(),
                        meter: u.meter.clone(),
                        cur_signal,
                        sig_block: sig.iter().map(|d| d.0).collect(),
                        active_slots: u.active_slots,
                        arrival_slot: match waiting {
                            Some(room) if room.contains(i) => deferred_to,
                            _ => c.arrival[i],
                        },
                        departure_slot: c.departure[i],
                        declared_rate_kbps: u.declared_rate_kbps,
                        sig_samples,
                        abr: c.abr.get(i).copied(),
                    }
                })
                .collect(),
            receiver: eng.receiver.export_state(),
            collector,
            scheduler,
            transmitter_clamps: lane.transmitter.clamp_events(),
            recorder,
            loop_state: LoopCkpt {
                fairness_series: lp.fairness_series.clone(),
                fairness_window_series: lp.fairness_window_series.clone(),
                power_series_j: lp.power_series_j.clone(),
                window_delivered: lp.window_delivered.clone(),
                window_need: lp.window_need.clone(),
                slots_run: lp.slots_run,
                watching: lp.watching,
                done_watching: c.done.clone(),
                retired: c.retired.clone(),
                retired_at: c.retired_at.clone(),
                live: self.live.live.clone(),
                raw: c.raw.clone(),
                snapshots: if reported {
                    c.snaps.clone()
                } else {
                    Vec::new()
                },
            },
            admission: eng.admission.as_ref().map(|a| AdmissionCkpt {
                state: a.ctl.export_state(a.waiting.iter(), deferred_to),
                energy_mj: a.energy_mj,
                user_slots: a.user_slots,
                n_active: a.n_active,
                rate_sum: a.rate_sum,
            }),
        })
    }
}

/// The refusal a run of more than one lane gives a checkpoint request:
/// the sidecar carries one scheduler's state and no attachment.
fn multi_lane_checkpoint() -> CheckpointError {
    CheckpointError::Unsupported {
        reason: "a run with more than one cell cannot be checkpointed".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NullRecorder;
    use crate::{RunOutcome, Scenario};

    /// A closed 8-user cell's sidecar at slot 40, and its row count.
    fn mid_run() -> (EngineCheckpoint, usize) {
        let mut s = Scenario::paper_default(8);
        s.slots = 100;
        let RunOutcome::Paused(ck) = s.run_until(&mut NullRecorder, 40).expect("run") else {
            unreachable!("the cell runs past slot 40");
        };
        let lp = &ck.loop_state;
        let rows = ck.users.len() + ck.receiver.len() + lp.raw.len() + lp.snapshots.len();
        (*ck, rows)
    }

    /// `0.0 == -0.0`, yet they print differently: a row whose only
    /// change is that sign is printed again.
    #[test]
    fn a_zero_turned_negative_is_printed_again() {
        let (mut ck, rows) = mid_run();
        let mut printer = SidecarPrinter::default();
        ck.loop_state.raw[3].idle_s = 0.0;
        printer.print(ck.clone());
        ck.loop_state.raw[3].idle_s = -0.0;
        let text = printer.print(ck.clone());
        assert_eq!(printer.reused_rows(), rows - 1);
        assert_eq!(*text, ck.to_json().expect("print"));
        assert!(text.contains("\"idle_s\":-0.0"));
    }

    /// `NaN != NaN`, yet it prints the same: a row holding one is reused
    /// like any other unchanged row.
    #[test]
    fn a_row_holding_a_nan_is_reused() {
        let (mut ck, rows) = mid_run();
        ck.loop_state.raw[5].rate_kbps = f64::NAN;
        ck.receiver[2].backlog_kb = f64::NAN;
        let mut printer = SidecarPrinter::default();
        printer.print(ck.clone());
        assert_eq!(printer.reused_rows(), 0, "nothing to reuse yet");
        let text = printer.print(ck.clone());
        assert_eq!(printer.reused_rows(), rows);
        assert_eq!(*text, ck.to_json().expect("print"));
    }
}
