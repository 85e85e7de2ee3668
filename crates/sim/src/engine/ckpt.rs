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
use std::path::Path;

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

    /// Serialize to the sidecar JSON payload.
    pub fn to_json(&self) -> Result<String, CheckpointError> {
        serde_json::to_string(self).map_err(|e| CheckpointError::Corrupt {
            reason: format!("serialize: {e:?}"),
        })
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
