//! The slotted multi-user simulation engine.
//!
//! Each slot `n` executes the paper's §III pipeline:
//!
//! 1. the BS capacity `S(n)` is sampled and origin arrivals are ingested
//!    into the Data Receiver;
//! 2. every client advances its playback buffer by Eq. (7) and accrues
//!    Eq. (8) rebuffering;
//! 3. the Information Collector snapshots cross-layer state (RSSI,
//!    `pᵢ(n)`, occupancy, RRC idle time) into a [`SlotContext`];
//! 4. the Scheduler decides `φᵢ(n)`; the Data Transmitter enforces
//!    Eq. (1)/(2) and moves bytes;
//! 5. each device is charged either transmission energy (Eq. (3)) or one
//!    slot of tail energy (Eq. (4)), per the Eq. (5) dichotomy, on the
//!    *true* signal (the collector may have reported a noisy one);
//! 6. per-slot fairness (`Fᵢ = dᵢ/d_need`) and total power samples are
//!    recorded for the CDF figures.
//!
//! The engine stops early once every session has been fetched *and*
//! watched — remaining slots can contribute neither rebuffering (Eq. (8)'s
//! `mᵢ ≥ Mᵢ` branch) nor energy (the tail has saturated), so all
//! aggregates are unaffected; `slots_configured` still reflects Γ.
//!
//! Two orthogonal extensions thread through the same loop without
//! touching the fault-free hot path:
//!
//! * **Fault injection** — every run variant is generic over a
//!   [`FaultHook`]; the [`NoFaults`] instantiation monomorphizes every
//!   hook into a no-op, while a compiled
//!   [`FaultPlan`](crate::faults::FaultPlan) perturbs *state* (signals,
//!   capacity, sessions) strictly after the RNG streams have been drawn,
//!   so a faulted run consumes bit-identical random sequences to its
//!   fault-free twin.
//! * **Checkpoint/resume** — [`Engine::run_core`] can capture the full
//!   simulation state at the top of any slot into an
//!   [`EngineCheckpoint`] (periodically to a sidecar file, or once via
//!   [`CkptMode::PauseAt`]) and later resume from it bit-identically:
//!   signal RNGs are fast-forwarded by replaying the recorded number of
//!   samples, and every stateful component restores through its
//!   `export_state`/`import_state` pair.
//! * **Open-system churn** — each user additionally carries a
//!   `departure_slot` (set by the compiled
//!   [`ChurnPlan`](crate::arrivals::ChurnPlan)): from that slot on the
//!   client abandons playback and the origin stops fetching, exactly the
//!   state change a `departure` fault applies, but as a first-class
//!   workload property instead of a perturbation.
//!
//! [`Engine::run_sharded_on`] is the shard-parallel form of the hot
//! path: users are partitioned into contiguous shards, each owned by one
//! worker-pool participant, with two serial phases per slot (scheduling
//! under the shared Eq. (2) BS constraint, and trace recording) fenced
//! by a [`SpinBarrier`]. It is bit-identical to [`Engine::run`] by
//! construction — see the method docs and DESIGN.md §11.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::error::{atomic_write, CheckpointError, ScenarioError, SimError};
use crate::faults::{FaultHook, NoFaults};
use crate::pool::{PhaseCell, SharedSlice, SpinBarrier, WorkerPool};
use crate::results::{SimResult, SimWarning, UserResult};
use crate::telemetry::{NullRecorder, SlotRecorder};
use jmso_gateway::bs::CapacityModel;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::{
    AdmissionContext, AdmissionController, AdmissionDecision, AdmissionSpec, AdmissionState,
    Allocation, CollectorState, DataReceiver, DataTransmitter, Delivery, FlowState,
    InformationCollector, Scheduler, SlotContext, SnapshotSoA, UnitParams, UserSnapshot,
};
use jmso_media::{jain_index, AbrClient, AbrInputs, AbrSpec, ClientPlayback, VideoSession};
use jmso_radio::rrc::RrcState;
use jmso_radio::signal::{SignalKind, SignalModel};
use jmso_radio::{Dbm, EnergyMeter, MilliJoules, PowerModel, RrcMachine};
use jmso_sched::{drift_bound_b, energy_upper_bound, rebuffer_upper_bound, CrossLayerModels};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Slots sampled per [`SignalModel::sample_into`] block in the hot loop
/// (shared with the multicell stepper, which blocks its radio math the
/// same way).
pub(crate) const SIG_BLOCK_SLOTS: usize = 32;

/// Per-user simulation state.
struct UserSim {
    signal: SignalKind,
    session: VideoSession,
    playback: ClientPlayback,
    rrc: RrcMachine,
    meter: EnergyMeter,
    cur_signal: Dbm,
    /// Block-sampled RSSI for slots `b·B .. (b+1)·B`; refilled whenever
    /// the slot index crosses a block boundary while the user is live.
    sig_block: [Dbm; SIG_BLOCK_SLOTS],
    /// Per-block Eq. (1) link caps derived from `sig_block` by the batch
    /// throughput kernel at the refill boundary. Only maintained (and only
    /// sound) on the fault-free pass-through path — see `run_core`; not
    /// checkpointed, recomputed from the restored `sig_block` on resume.
    ///
    /// Transmission energy deliberately has no such table: the link cap is
    /// read every slot for every user (the table is a one-for-one batch of
    /// the scalar computes it replaced), but `P(sig)` is only needed on
    /// the user-slots that actually transmit, so an eager per-block power
    /// pass can cost more divisions than it saves. Instead `epk_sig` /
    /// `epk_per_kb` memoize the scalar kernel one-deep at transmit time:
    /// strictly fewer evaluations than computing per transmit (the RSSI
    /// holds for up to [`SIG_BLOCK_SLOTS`] slots) and never a wasted one.
    cap_block: [u64; SIG_BLOCK_SLOTS],
    /// Signal at which `epk_per_kb` was computed. Seeded (and reset on
    /// restore) to NaN, which compares unequal to everything, so the
    /// first transmit recomputes; derived state, not checkpointed.
    epk_sig: Dbm,
    /// Memoized Eq. (3) per-KB transmission energy at `epk_sig`.
    epk_per_kb: f64,
    active_slots: u64,
    /// Slot at which this user's session starts (0 = at the beginning).
    arrival_slot: u64,
    /// Slot at which this user abandons their session (`u64::MAX` = they
    /// watch to completion). The open-system workload path — the
    /// first-class form of the fault taxonomy's `departure` event.
    departure_slot: u64,
    /// Rate the gateway believes (e.g. DPI-extracted manifest rate); when
    /// set it overrides the instantaneous session rate in snapshots.
    declared_rate_kbps: Option<f64>,
    /// Signal-model samples drawn so far. Checkpoint restore fast-forwards
    /// the per-user RNG by replaying exactly this many samples (the
    /// block-sampling contract makes replay order irrelevant).
    sig_samples: u64,
}

/// Engine-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Slot length τ, seconds.
    pub tau: f64,
    /// Frame length δ, KB.
    pub delta_kb: f64,
    /// Horizon Γ in slots.
    pub slots: u64,
    /// Record per-slot fairness / power series (needed for CDF figures;
    /// off for plain sweeps to save memory).
    pub record_series: bool,
}

/// Checkpoint cadence for [`Engine::run_core`].
#[derive(Debug, Clone, Copy)]
pub enum CkptMode<'a> {
    /// No checkpointing — the plain hot path.
    Off,
    /// Atomically (re)write a sidecar checkpoint every `every` slots.
    EveryToFile {
        /// Checkpoint period in slots (0 disables).
        every: u64,
        /// Sidecar file the checkpoint JSON is atomically renamed into.
        path: &'a Path,
    },
    /// Capture state at the top of the given slot and return
    /// [`RunOutcome::Paused`] instead of finishing the run.
    PauseAt {
        /// Slot to pause at (state is captured before the slot executes).
        slot: u64,
    },
}

/// What a checkpoint-aware run produced.
// `Done` carries the full `SimResult` by value on purpose: it is the
// common case and every caller immediately consumes it.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The run reached the horizon (or early exit) and finished.
    Done(SimResult),
    /// The run stopped at [`CkptMode::PauseAt`]; feed the checkpoint to a
    /// freshly built engine to continue bit-identically.
    Paused(Box<EngineCheckpoint>),
}

/// Serializable snapshot of one user's mid-run state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct UserCkpt {
    session: VideoSession,
    playback: ClientPlayback,
    rrc: RrcMachine,
    meter: EnergyMeter,
    cur_signal: Dbm,
    sig_block: Vec<f64>,
    active_slots: u64,
    arrival_slot: u64,
    /// Added in v2 (the default keeps the parse permissive; the version
    /// gate still rejects v1 payloads with a clean error).
    #[serde(default = "never_departs")]
    departure_slot: u64,
    declared_rate_kbps: Option<f64>,
    sig_samples: u64,
    /// Added in v3: the user's ABR client state (absent on fixed-bitrate
    /// runs, so their sidecars keep the v2 byte shape and v2 sidecars
    /// parse with the default).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    abr: Option<AbrClient>,
}

/// Serde default for [`UserCkpt::departure_slot`].
fn never_departs() -> u64 {
    u64::MAX
}

/// Loop-local accumulators that live outside the engine components.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LoopCkpt {
    fairness_series: Vec<f64>,
    fairness_window_series: Vec<f64>,
    power_series_j: Vec<f64>,
    window_delivered: Vec<f64>,
    window_need: Vec<f64>,
    slots_run: u64,
    watching: usize,
    done_watching: Vec<bool>,
    retired: Vec<bool>,
    retired_at: Vec<u64>,
    live: Vec<usize>,
    raw: Vec<RawUserState>,
    snapshots: Vec<UserSnapshot>,
}

/// Full engine state captured at the top of a slot.
///
/// A checkpoint taken at slot `k` plus a freshly built engine for the
/// same scenario reproduces the straight run exactly: same
/// [`SimResult`], same telemetry trace bytes (pinned by the
/// checkpoint-resume property test).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    version: u32,
    slot: u64,
    users: Vec<UserCkpt>,
    receiver: Vec<FlowState>,
    collector: CollectorState,
    scheduler: String,
    transmitter_clamps: u64,
    recorder: String,
    loop_state: LoopCkpt,
    /// Added in v3: admission-controller state (absent when no
    /// feasibility controller is installed; its arrival queue is rebuilt
    /// from the users' arrival slots on restore).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    admission: Option<AdmissionCkpt>,
}

/// Checkpoint format version this build writes. v2 added per-user
/// `departure_slot` (open-system churn); v3 added per-user ABR client
/// state and admission-controller state, both behind serde defaults, so
/// v2 sidecars still restore. v4 gates the live list on arrival
/// (pre-arrival users wait in the driver's arrival queue instead of
/// being carried live) and adds the admission aggregates; older
/// sidecars still restore — their live lists are re-gated and the
/// aggregates recomputed on import.
const CKPT_VERSION: u32 = 4;

/// Oldest checkpoint version this build still reads.
const CKPT_MIN_VERSION: u32 = 2;

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
        if !(CKPT_MIN_VERSION..=CKPT_VERSION).contains(&ck.version) {
            return Err(CheckpointError::Corrupt {
                reason: format!(
                    "version {} (this build reads {CKPT_MIN_VERSION}..={CKPT_VERSION})",
                    ck.version
                ),
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

/// Per-shard mutable state for [`Engine::run_sharded_on`], owned by one
/// pool participant during the parallel phases (A: radio/playback walk,
/// C: accounting) and read-only to participant 0 during phase D.
struct ShardState {
    /// Global user ids in this shard's contiguous range still live, in
    /// ascending order (order-preserving retain) — so the shards'
    /// concatenation is exactly the serial engine's live list.
    live: Vec<usize>,
    /// Min-heap of `(arrival_slot, user)` over this shard's range for
    /// users not yet live — the per-shard half of the serial driver's
    /// arrival gate, drained at the top of phase A. Empty under
    /// feasibility admission: a governed user enters through the tick's
    /// `admitted` list instead.
    arrival_queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// RRC transitions captured during phase C, `(user, from, to)` in
    /// live-walk order, replayed into the recorder by phase D.
    events: Vec<(usize, RrcState, RrcState)>,
    /// Users of this shard whose `done_watching` flag flipped this slot,
    /// in live-walk order — phase D replays the admission aggregate
    /// decrements (and the pre-flip E* membership test) from these.
    flips: Vec<usize>,
    /// Batch-throughput scratch for the per-block cap-table refill.
    v_scratch: [f64; SIG_BLOCK_SLOTS],
    /// Users of this shard that finished watching this slot.
    watching_dec: usize,
    /// Arrived-and-still-watching users after this slot's accounting
    /// (only maintained when a recorder is attached).
    in_system: u64,
    /// Set when a user of this shard retired this slot; live-list
    /// compaction is deferred to the next phase A so phase D can still
    /// replay the retiring slot's records.
    any_retired: bool,
}

/// Participant-0-only state for [`Engine::run_sharded_on`]'s serial
/// phases (B: scheduling, D: recording); everything in here is either
/// order-sensitive (recorder calls, floating-point series sums) or
/// inherently shared (the scheduler deciding against the one BS cap).
struct SerialCtx<'a, R> {
    scheduler: Box<dyn Scheduler>,
    capacity: Box<dyn CapacityModel>,
    receiver: DataReceiver,
    transmitter: DataTransmitter,
    rec: &'a mut R,
    alloc: Allocation,
    deliveries: Vec<Delivery>,
    fairness_scratch: Vec<f64>,
    fairness_series: Vec<f64>,
    fairness_window_series: Vec<f64>,
    power_series_j: Vec<f64>,
    window_delivered: Vec<f64>,
    window_need: Vec<f64>,
    watching: usize,
    slots_run: u64,
    /// Feasibility admission runtime — ticked in phase D (the serial
    /// end-of-slot region), exactly where the serial loop ticks it.
    admission: Option<AdmissionRuntime>,
    /// Slot capacity computed in phase B, carried to phase D for the
    /// admission tick's ε̂ estimate.
    bs_cap_units: u64,
}

/// Per-run ABR machinery installed by [`Engine::set_abr`]: the spec, the
/// per-user native rates the ladder multiplies, and one client state
/// machine per user. Decisions are staged per user during delivery
/// accounting ([`AbrClient::on_delivery`]) and committed in a serial
/// ascending-user pass, so every run path (serial, sharded, reference)
/// observes identical switch order.
struct AbrRuntime {
    spec: AbrSpec,
    /// Chunk length in seconds (`chunk_slots · τ`).
    chunk_s: f64,
    /// Per-user native mean rate, KB/s (the ladder's 1.0 reference).
    native: Vec<f64>,
    clients: Vec<AbrClient>,
}

/// Per-run admission machinery installed by [`Engine::set_admission`] —
/// only for the feasibility policy; `AlwaysAdmit` is the identity and
/// installs nothing, which is what makes it bit-identical to running
/// without admission control.
struct AdmissionRuntime {
    ctl: AdmissionController,
    /// Per-user native mean rate, KB/s (demand estimate for ε̂).
    rates: Vec<f64>,
    /// Lyapunov trade-off weight `V` used in the bound estimates.
    v: f64,
    /// Planned arrivals still awaiting their first ruling, ascending
    /// `(arrival_slot, user)` and consumed from `planned_next` on. The
    /// plan is compiled before the run and live reschedules are refused
    /// under admission, so a sorted list with a cursor is the whole queue.
    planned: Vec<(u64, usize)>,
    planned_next: usize,
    /// Users the latest tick deferred, ascending. A deferral is always
    /// to the very next slot, so these are exactly the candidates the
    /// next tick merges with its newly due planned arrivals.
    carry: Vec<usize>,
    /// Users the latest tick admitted, ascending — the arrival gate's
    /// input for the next slot, and the only way a governed user goes
    /// live (slot-0 arrivals, admitted by fiat, start live).
    admitted: Vec<usize>,
    /// The current tick's candidates (buffer reused across ticks, like
    /// `carry` and `admitted`, so a steady-state tick allocates nothing).
    candidates: Vec<usize>,
    /// Energy charged to arrived-and-watching users so far, mJ — the
    /// running `E*` estimate's numerator.
    energy_mj: f64,
    /// Arrived-and-watching user-slots accumulated so far.
    user_slots: u64,
    /// Incrementally maintained size of the active population — users
    /// with `arrival_slot ≤ slot` that are not done watching. Updated at
    /// the O(1) event points (arrival commit, `done_watching` flip) so
    /// each admission candidate costs O(1) instead of an O(n_users)
    /// rescan; `admission_aggregates_reference` is the rescan the
    /// reference loop still runs, pinned equal by the admission
    /// property tests.
    n_active: usize,
    /// Running Σ of `rates` over the same active population. A running
    /// float sum is not bit-identical to a fresh rescan (addition order
    /// differs), but the decision threshold only flips at exact ties,
    /// which scenario-valued inputs never produce; the recorded
    /// decisions — the only observable — stay equal.
    rate_sum: f64,
}

/// Serializable slice of an [`AdmissionRuntime`] (the arrival queue —
/// planned list, carry list and gate — is derived from per-user arrival
/// slots and rebuilt on restore).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdmissionCkpt {
    state: AdmissionState,
    energy_mj: f64,
    user_slots: u64,
    /// Added in v4: the incremental active-population aggregates. Absent
    /// in v2/v3 sidecars, where restore recomputes them from the users'
    /// arrival slots and `done_watching` flags (a fresh sum, which may
    /// differ from the original running sum in the last ulps — decision
    /// ties are measure-zero, so continuations stay decision-identical).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    n_active: Option<usize>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    rate_sum: Option<f64>,
}

/// The assembled simulator for one scenario.
pub struct Engine {
    users: Vec<UserSim>,
    scheduler: Box<dyn Scheduler>,
    capacity: Box<dyn CapacityModel>,
    receiver: DataReceiver,
    transmitter: DataTransmitter,
    collector: InformationCollector,
    units: UnitParams,
    models: CrossLayerModels,
    cfg: EngineConfig,
    abr: Option<AbrRuntime>,
    admission: Option<AdmissionRuntime>,
}

impl Engine {
    /// Assemble an engine from its parts. `signals` and `sessions` must
    /// have equal length; sessions' volumes are installed as the origin
    /// source bound for each flow.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        signals: Vec<SignalKind>,
        sessions: Vec<VideoSession>,
        scheduler: Box<dyn Scheduler>,
        capacity: Box<dyn CapacityModel>,
        receiver: DataReceiver,
        collector: InformationCollector,
        models: CrossLayerModels,
        cfg: EngineConfig,
    ) -> Self {
        let n = sessions.len();
        Self::with_arrivals(
            signals,
            sessions,
            vec![0; n],
            scheduler,
            capacity,
            receiver,
            collector,
            models,
            cfg,
        )
    }

    /// [`Engine::new`] with per-user session arrival slots: before their
    /// arrival slot users neither play, fetch, nor consume energy (their
    /// radio is cold). Staggered arrivals model realistic session churn;
    /// the all-zeros vector recovers the paper's synchronized start.
    #[allow(clippy::too_many_arguments)]
    pub fn with_arrivals(
        signals: Vec<SignalKind>,
        sessions: Vec<VideoSession>,
        arrival_slots: Vec<u64>,
        scheduler: Box<dyn Scheduler>,
        capacity: Box<dyn CapacityModel>,
        receiver: DataReceiver,
        collector: InformationCollector,
        models: CrossLayerModels,
        cfg: EngineConfig,
    ) -> Self {
        let n = sessions.len();
        Self::with_churn(
            signals,
            sessions,
            arrival_slots,
            vec![u64::MAX; n],
            scheduler,
            capacity,
            receiver,
            collector,
            models,
            cfg,
        )
    }

    /// [`Engine::with_arrivals`] plus per-user departure slots (`u64::MAX`
    /// = watches to completion): the full open-system workload. From their
    /// departure slot on, a user abandons playback and stops fetching —
    /// the same idempotent state change the `departure` fault applies, so
    /// an all-`MAX` vector is bit-identical to [`Engine::with_arrivals`].
    #[allow(clippy::too_many_arguments)]
    pub fn with_churn(
        signals: Vec<SignalKind>,
        sessions: Vec<VideoSession>,
        arrival_slots: Vec<u64>,
        departure_slots: Vec<u64>,
        scheduler: Box<dyn Scheduler>,
        capacity: Box<dyn CapacityModel>,
        mut receiver: DataReceiver,
        collector: InformationCollector,
        models: CrossLayerModels,
        cfg: EngineConfig,
    ) -> Self {
        assert_eq!(signals.len(), sessions.len(), "one signal per session");
        assert_eq!(
            arrival_slots.len(),
            sessions.len(),
            "one arrival slot per session"
        );
        assert_eq!(
            departure_slots.len(),
            sessions.len(),
            "one departure slot per session"
        );
        assert_eq!(receiver.n_flows(), sessions.len(), "one flow per session");
        assert!(cfg.tau > 0.0 && cfg.delta_kb > 0.0 && cfg.slots > 0);
        for (i, s) in sessions.iter().enumerate() {
            receiver.set_source_volume_kb(i, s.total_kb);
        }
        let users = signals
            .into_iter()
            .zip(sessions)
            .zip(arrival_slots.into_iter().zip(departure_slots))
            .map(|((signal, session), (arrival_slot, departure_slot))| {
                let playback = ClientPlayback::new(session.total_playback_s(), cfg.tau);
                UserSim {
                    signal,
                    session,
                    playback,
                    // Radios start cold (fully idle): the first slot's
                    // promotion is charged with its transmission.
                    rrc: RrcMachine::new_idle(models.rrc),
                    meter: EnergyMeter::new(),
                    cur_signal: Dbm(0.0),
                    sig_block: [Dbm(0.0); SIG_BLOCK_SLOTS],
                    cap_block: [0; SIG_BLOCK_SLOTS],
                    epk_sig: Dbm(f64::NAN),
                    epk_per_kb: 0.0,
                    active_slots: 0,
                    arrival_slot,
                    departure_slot,
                    declared_rate_kbps: None,
                    sig_samples: 0,
                }
            })
            .collect();
        Self {
            users,
            scheduler,
            capacity,
            receiver,
            transmitter: DataTransmitter::new(),
            collector,
            units: UnitParams::new(cfg.delta_kb),
            models,
            cfg,
            abr: None,
            admission: None,
        }
    }

    /// Install gateway-side declared rates (e.g. DPI-extracted manifest
    /// rates): snapshots then expose these instead of the instantaneous
    /// session rate. Client-side playback still uses the true rate.
    pub fn set_declared_rates(&mut self, rates_kbps: &[f64]) {
        assert_eq!(rates_kbps.len(), self.users.len());
        for (u, &r) in self.users.iter_mut().zip(rates_kbps) {
            assert!(r > 0.0, "declared rate must be positive");
            u.declared_rate_kbps = Some(r);
        }
    }

    /// Install DASH-style ABR clients: each user fetches fixed-duration
    /// chunks priced by the ladder rung their policy selects, and the
    /// gateway's advertised demand tracks the rung rate. The single-rung
    /// ladder is bit-identical to the constant-bitrate path (`1.0 ×
    /// native` is exact in IEEE 754 and a one-rung policy never stages a
    /// switch) — pinned by the `abr_properties` test pack.
    ///
    /// Must be called before the run starts; `spec` is assumed validated
    /// (see `AbrSpec::validate`).
    pub fn set_abr(&mut self, spec: &AbrSpec) {
        let chunk_s = spec.chunk_slots as f64 * self.cfg.tau;
        let start = spec.start_rung();
        let native: Vec<f64> = self
            .users
            .iter()
            .map(|u| u.session.bitrate.mean_rate())
            .collect();
        let mut clients = Vec::with_capacity(self.users.len());
        for (i, u) in self.users.iter_mut().enumerate() {
            let c = AbrClient::new(&spec.ladder, start, native[i], chunk_s);
            // A below-native start rung re-prices the whole (unfetched)
            // video at the start rung's rate; the receiver's origin-side
            // volume bound follows the session.
            if c.rate_kbps != native[i] {
                let delta = u.session.rescale_remaining(c.rate_kbps / native[i]);
                self.receiver.adjust_source_volume_kb(i, delta);
            }
            clients.push(c);
        }
        self.abr = Some(AbrRuntime {
            spec: spec.clone(),
            chunk_s,
            native,
            clients,
        });
    }

    /// Install gateway admission control over this run's planned
    /// arrivals. [`AdmissionSpec::AlwaysAdmit`] installs nothing — the
    /// identity, bit-identical to an uncontrolled run on every path. The
    /// feasibility policy rules on each pending arrival at the end of the
    /// slot preceding it (arrivals at slot 0 are admitted by fiat: there
    /// is no earlier decision point). The tick runs in the serial
    /// end-of-slot region of every loop — including `run_sharded_on`'s
    /// phase D — so admission-controlled scenarios shard like any other.
    pub fn set_admission(&mut self, spec: &AdmissionSpec) {
        let AdmissionSpec::Feasibility { v, .. } = spec else {
            return;
        };
        let rates: Vec<f64> = self
            .users
            .iter()
            .map(|u| u.session.bitrate.mean_rate())
            .collect();
        let planned = planned_arrivals(&self.users, 0);
        // Aggregates start with the slot-0 population (admitted by fiat),
        // summed in ascending user order.
        let mut n_active = 0usize;
        let mut rate_sum = 0.0f64;
        for (i, u) in self.users.iter().enumerate() {
            if u.arrival_slot == 0 {
                n_active += 1;
                rate_sum += rates[i];
            }
        }
        self.admission = Some(AdmissionRuntime {
            ctl: AdmissionController::new(spec.clone(), self.users.len()),
            rates,
            v: *v,
            planned,
            planned_next: 0,
            carry: Vec::new(),
            admitted: Vec::new(),
            candidates: Vec::new(),
            energy_mj: 0.0,
            user_slots: 0,
            n_active,
            rate_sum,
        });
    }

    /// Decision tallies of the installed admission controller (`None`
    /// when no feasibility controller is installed).
    pub fn admission_summary(&self) -> Option<jmso_gateway::AdmissionSummary> {
        self.admission.as_ref().map(|a| a.ctl.summary())
    }

    /// Capture full engine state at the top of `slot`.
    fn capture<R: SlotRecorder>(
        &self,
        slot: u64,
        rec: &R,
        loop_state: LoopCkpt,
    ) -> Result<EngineCheckpoint, CheckpointError> {
        let recorder = rec.export_state().ok_or(CheckpointError::Unsupported {
            reason: "recorder cannot export its state".into(),
        })?;
        let scheduler =
            self.scheduler
                .export_state()
                .ok_or_else(|| CheckpointError::Unsupported {
                    reason: format!(
                        "scheduler {} cannot export its state",
                        self.scheduler.name()
                    ),
                })?;
        Ok(EngineCheckpoint {
            version: CKPT_VERSION,
            slot,
            users: self
                .users
                .iter()
                .enumerate()
                .map(|(i, u)| UserCkpt {
                    session: u.session.clone(),
                    playback: u.playback.clone(),
                    rrc: u.rrc.clone(),
                    meter: u.meter.clone(),
                    cur_signal: u.cur_signal,
                    sig_block: u.sig_block.iter().map(|d| d.0).collect(),
                    active_slots: u.active_slots,
                    arrival_slot: u.arrival_slot,
                    departure_slot: u.departure_slot,
                    declared_rate_kbps: u.declared_rate_kbps,
                    sig_samples: u.sig_samples,
                    abr: self.abr.as_ref().map(|a| a.clients[i]),
                })
                .collect(),
            receiver: self.receiver.export_state(),
            collector: self.collector.export_state(),
            scheduler,
            transmitter_clamps: self.transmitter.clamp_events(),
            recorder,
            loop_state,
            admission: self.admission.as_ref().map(|a| AdmissionCkpt {
                state: a.ctl.export_state(),
                energy_mj: a.energy_mj,
                user_slots: a.user_slots,
                n_active: Some(a.n_active),
                rate_sum: Some(a.rate_sum),
            }),
        })
    }

    /// Restore component state from a checkpoint (everything except the
    /// loop-local accumulators, which [`Engine::run_core`] reinstalls).
    fn restore(&mut self, ck: &EngineCheckpoint) -> Result<(), CheckpointError> {
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
        for (u, s) in self.users.iter_mut().zip(&ck.users) {
            if s.sig_block.len() != SIG_BLOCK_SLOTS {
                return Err(CheckpointError::Restore {
                    component: "signal",
                    reason: format!(
                        "sig_block has {} entries, expected {SIG_BLOCK_SLOTS}",
                        s.sig_block.len()
                    ),
                });
            }
            // Fast-forward the freshly seeded signal RNG by replaying the
            // recorded number of samples. The block-sampling contract
            // (`sample_into` consumes the stream in slot order) makes
            // one-at-a-time replay equivalent to the original block cuts.
            for replay_slot in 0..s.sig_samples {
                let _ = u.signal.sample(replay_slot);
            }
            for (dst, &v) in u.sig_block.iter_mut().zip(&s.sig_block) {
                *dst = Dbm(v);
            }
            u.session = s.session.clone();
            u.playback = s.playback.clone();
            u.rrc = s.rrc.clone();
            u.meter = s.meter.clone();
            u.cur_signal = s.cur_signal;
            u.epk_sig = Dbm(f64::NAN);
            u.active_slots = s.active_slots;
            u.arrival_slot = s.arrival_slot;
            u.departure_slot = s.departure_slot;
            u.declared_rate_kbps = s.declared_rate_kbps;
            u.sig_samples = s.sig_samples;
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
                // Rebuild the queue from the restored arrival slots: at
                // the top of slot k everything still due after k awaits
                // a ruling (the tick at the end of slot k−1 consumed what
                // was due at or before k). A deferred user and a planned
                // one due at k+1 are ruled in the same ascending user
                // order either way, so the carry list restarts empty;
                // `into_driver` re-derives the gate's `admitted` list.
                a.planned = planned_arrivals(&self.users, ck.slot);
                a.planned_next = 0;
                a.carry.clear();
                a.admitted.clear();
                // v4 sidecars carry the running aggregates verbatim (so a
                // resumed run continues on the exact float sum); legacy
                // sidecars get a fresh rescan over the restored state.
                match (s.n_active, s.rate_sum) {
                    (Some(n), Some(r)) => {
                        a.n_active = n;
                        a.rate_sum = r;
                    }
                    _ => {
                        a.n_active = 0;
                        a.rate_sum = 0.0;
                        // Zip (not index) so a malformed legacy sidecar
                        // fails the loop-state length check downstream
                        // instead of panicking here.
                        let done = &ck.loop_state.done_watching;
                        for (i, (u, d)) in self.users.iter().zip(done).enumerate() {
                            if u.arrival_slot <= ck.slot && !d {
                                a.n_active += 1;
                                a.rate_sum += a.rates[i];
                            }
                        }
                    }
                }
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
        self.scheduler
            .import_state(&ck.scheduler)
            .map_err(|reason| CheckpointError::Restore {
                component: "scheduler",
                reason,
            })?;
        self.transmitter.restore_clamp_events(ck.transmitter_clamps);
        Ok(())
    }

    /// Run to the horizon (or until all sessions complete) and report.
    ///
    /// This is the active-set hot path. The slot loop reuses every
    /// intermediate buffer (`raw`, snapshots, the allocation, deliveries,
    /// fairness scratch, and — inside the stateful policies — their own
    /// solver/sort scratch), so a steady-state slot performs zero heap
    /// allocation; on top of that it only touches users that can still
    /// change the outputs:
    ///
    /// * Per-user RSSI is drawn in [`SIG_BLOCK_SLOTS`]-slot blocks via
    ///   [`SignalModel::sample_into`] — one devirtualized dispatch per
    ///   block instead of one per slot, with the per-user RNG consumed in
    ///   the same slot order as stream sampling.
    /// * `live` holds the indices of users whose accounting can still
    ///   move: users enter at their (final) arrival slot — pre-arrival
    ///   users wait in a heap, draw no signal samples (each noise stream
    ///   is anchored at its owner's arrival slot), and cost nothing per
    ///   slot — and a user is retired once playback is complete *and*
    ///   the RRC tail has fully drained — from then on every
    ///   seed-semantics slot would charge exactly `record_tail(0 mJ)`,
    ///   which is settled in one
    ///   [`EnergyMeter::record_saturated_idle_slots`] call at the end.
    ///   The list is kept sorted (order-preserving compaction, in-order
    ///   insertion) so iteration order (and therefore floating-point
    ///   summation order) matches the reference loop bit for bit.
    /// * `raw` and `snapshots` keep full length with stable indices;
    ///   retired users' frozen entries advertise `remaining_kb == 0`, so
    ///   every scheduler's usable-capacity clamp grants them nothing and
    ///   allocations to live users are unaffected. With a noise-free
    ///   collector only live entries are refreshed
    ///   ([`InformationCollector::snapshot_refresh`]); reported-signal
    ///   noise forces the full per-user pass to keep the collector RNG
    ///   stream aligned.
    ///
    /// [`Engine::run_reference`] is the executable specification of these
    /// claims: it runs the plain all-users loop and must produce an
    /// identical [`SimResult`].
    pub fn run(self) -> SimResult {
        self.run_with(&mut NullRecorder)
    }

    /// [`Engine::run`] with a [`SlotRecorder`] observing every slot.
    ///
    /// Generic over the recorder so the [`NullRecorder`] instantiation
    /// monomorphizes every hook into a no-op — `run()` pays nothing for
    /// the instrumentation (pinned by the `hotpath` bench). The recorder
    /// only ever sees simulation state; wall-clock scheduler timing is
    /// gated on [`SlotRecorder::enabled`] and reported separately.
    pub fn run_with<R: SlotRecorder>(self, rec: &mut R) -> SimResult {
        self.run_faulted_with(rec, &NoFaults)
    }

    /// [`Engine::run_with`] under a [`FaultHook`]. [`NoFaults`]
    /// monomorphizes to exactly the fault-free loop; a compiled
    /// [`FaultPlan`](crate::faults::FaultPlan) perturbs signals, BS
    /// capacity, and sessions after all RNG draws.
    pub fn run_faulted_with<R: SlotRecorder, F: FaultHook>(
        self,
        rec: &mut R,
        faults: &F,
    ) -> SimResult {
        match self.run_core(rec, faults, None, CkptMode::Off) {
            Ok(RunOutcome::Done(r)) => r,
            // `Off` mode performs no I/O, imports no state, never pauses.
            Ok(RunOutcome::Paused(_)) | Err(_) => {
                unreachable!("CkptMode::Off cannot pause or fail")
            }
        }
    }

    /// Resume a run from a checkpoint captured by [`Engine::run_core`].
    /// `self` must be freshly built for the same scenario (same users,
    /// seeds, scheduler kind); the recorder must be of the same kind that
    /// captured the checkpoint.
    pub fn resume_with<R: SlotRecorder, F: FaultHook>(
        self,
        rec: &mut R,
        faults: &F,
        ckpt: &EngineCheckpoint,
    ) -> Result<SimResult, SimError> {
        match self.run_core(rec, faults, Some(ckpt), CkptMode::Off)? {
            RunOutcome::Done(r) => Ok(r),
            RunOutcome::Paused(_) => unreachable!("CkptMode::Off never pauses"),
        }
    }

    /// [`Engine::run_sharded_on`] on the process-wide
    /// [`WorkerPool::global`].
    pub fn run_sharded_with<R: SlotRecorder + Send>(self, rec: &mut R, shards: usize) -> SimResult {
        self.run_sharded_on(WorkerPool::global(), shards, rec)
    }

    /// Shard-parallel form of the hot path: users are partitioned into
    /// `shards` contiguous ranges, each owned by one pool participant,
    /// and every slot runs four lockstep phases fenced by a
    /// [`SpinBarrier`]:
    ///
    /// * **A (parallel)** — each shard samples its users' signal blocks,
    ///   refills their Eq. (1) cap tables, advances playback clocks, and
    ///   refreshes its rows of the shared snapshot buffer (and SoA
    ///   mirror) in place;
    /// * **B (serial)** — participant 0 merges the shards against the
    ///   shared Eq. (2) BS capacity: one scheduler call over the full
    ///   snapshot buffer, then the transmitter moves bytes;
    /// * **C (parallel)** — each shard applies its users' deliveries and
    ///   settles device accounting (Eq. 3/4/5) locally, capturing RRC
    ///   transitions for replay;
    /// * **D (serial)** — participant 0 replays per-user records into the
    ///   recorder in global user order, folds the per-slot series, and
    ///   runs the end-of-slot admission tick, so every floating-point
    ///   sum, every recorder call, and every admission ruling happens in
    ///   the exact serial order.
    ///
    /// Bit-identical to [`Engine::run_with`] by construction: shards
    /// write disjoint rows with the serial loop's exact expressions, and
    /// nothing order-sensitive runs in a parallel phase (pinned by the
    /// `shard_properties` tests). `shards` is a ceiling — the effective
    /// width is clamped to the pool (`workers + 1`); width ≤ 1, or a
    /// collector that is not pass-through (whose per-user RNG stream
    /// must be consumed in global user order), falls back to the serial
    /// loop. Checkpointing and fault hooks stay serial-only.
    pub fn run_sharded_on<R: SlotRecorder + Send>(
        self,
        pool: &WorkerPool,
        shards: usize,
        rec: &mut R,
    ) -> SimResult {
        let width = shards.min(pool.n_workers() + 1);
        if width <= 1 {
            // Requested (or clamped-to) serial width: the serial loop IS
            // the requested execution, not a substitution — no warning.
            return self.run_with(rec);
        }
        if !self.collector.is_pass_through() {
            let mut r = self.run_with(rec);
            r.warnings.push(SimWarning::ShardFallback {
                reason: "collector is not pass-through: its per-user RNG stream must be \
                         consumed in global user order, so the run fell back to the serial loop"
                    .into(),
            });
            return r;
        }
        let Engine {
            mut users,
            scheduler,
            capacity,
            receiver,
            transmitter,
            mut collector,
            units,
            models,
            cfg,
            abr,
            admission,
        } = self;
        // Split the ABR runtime so phase C can stage per-user decisions
        // through a SharedSlice while the spec/native tables stay shared
        // read-only across shards.
        type AbrMeta = (AbrSpec, f64, Vec<f64>);
        let (abr_meta, mut abr_clients): (Option<AbrMeta>, Vec<AbrClient>) = match abr {
            Some(a) => (Some((a.spec, a.chunk_s, a.native)), a.clients),
            None => (None, Vec::new()),
        };
        let n_users = users.len();
        let rec_enabled = rec.enabled();
        let record_series = cfg.record_series;
        let has_admission = admission.is_some();
        let use_soa = scheduler.wants_soa();
        const FAIR_WINDOW: u64 = 10;
        rec.begin_run(n_users, cfg.tau);

        // Shared full-length buffers, one stable row per user. Rows of
        // not-yet-arrived users keep these placeholder contents — the
        // exact frozen row the serial driver's arrival gate never
        // writes, so schedulers see identical inputs on every path.
        let mut raw_buf: Vec<RawUserState> = vec![
            RawUserState {
                signal: Dbm(0.0),
                rate_kbps: 0.0,
                buffer_s: 0.0,
                remaining_kb: 0.0,
                active: false,
                idle_s: 0.0,
                rrc_state: RrcState::Idle,
            };
            n_users
        ];
        let mut snaps_buf: Vec<UserSnapshot> = (0..n_users)
            .map(|id| UserSnapshot {
                id,
                signal: Dbm(0.0),
                rate_kbps: 0.0,
                buffer_s: 0.0,
                remaining_kb: 0.0,
                active: false,
                link_cap_units: 0,
                idle_s: 0.0,
                rrc_state: RrcState::Idle,
            })
            .collect();
        let mut slot_e_buf = vec![0.0f64; n_users];
        let mut done_watching = vec![false; n_users];
        let mut retired = vec![false; n_users];
        let mut retired_at = vec![0u64; n_users];

        // Mirror the serial driver's slot-0 full snapshot pass: derive
        // every row — including not-yet-arrived users' placeholder rows
        // — through the collector once, so a pre-arrival snapshot holds
        // the exact bytes the serial path computes for it (phase A then
        // only ever refreshes arrived rows, like the serial refresh).
        collector.snapshot_into(0, &raw_buf, &mut snaps_buf);

        // The SoA mirror's raw row writer is captured before the mirror
        // moves into the serial context: the pointers target the column
        // Vecs' heap buffers, which are stable across the move.
        let mut soa = SnapshotSoA::new();
        if use_soa {
            soa.resize(n_users);
            soa.fill_from(&snaps_buf, cfg.tau, cfg.delta_kb);
        }
        let soa_rows = use_soa.then(|| soa.rows());

        // One shard of contiguous user ids per participant; their
        // concatenation in shard order is exactly the serial live list
        // (arrived users only — the rest wait in the shard's arrival
        // queue or, under admission, for the tick to admit them, exactly
        // like the serial driver's gate).
        let shard_range = |s: usize| s * n_users / width..(s + 1) * n_users / width;
        let shard_cells: Vec<PhaseCell<ShardState>> = (0..width)
            .map(|s| {
                PhaseCell::new(ShardState {
                    live: shard_range(s)
                        .filter(|&i| users[i].arrival_slot == 0)
                        .collect(),
                    arrival_queue: shard_range(s)
                        .filter(|&i| {
                            !has_admission
                                && users[i].arrival_slot > 0
                                && users[i].arrival_slot != u64::MAX
                        })
                        .map(|i| Reverse((users[i].arrival_slot, i)))
                        .collect(),
                    events: Vec::new(),
                    flips: Vec::new(),
                    v_scratch: [0.0; SIG_BLOCK_SLOTS],
                    watching_dec: 0,
                    in_system: 0,
                    any_retired: false,
                })
            })
            .collect();

        let users_s = SharedSlice::new(&mut users);
        debug_assert_eq!(users_s.len(), n_users);
        let raw_s = SharedSlice::new(&mut raw_buf);
        let snaps_s = SharedSlice::new(&mut snaps_buf);
        let slot_e_s = SharedSlice::new(&mut slot_e_buf);
        let done_s = SharedSlice::new(&mut done_watching);
        let retired_s = SharedSlice::new(&mut retired);
        let retired_at_s = SharedSlice::new(&mut retired_at);
        let abr_s = SharedSlice::new(&mut abr_clients);
        let abr_meta_ref = &abr_meta;

        let serial = PhaseCell::new(SerialCtx {
            scheduler,
            capacity,
            receiver,
            transmitter,
            rec,
            alloc: Allocation::zeros(n_users),
            deliveries: Vec::with_capacity(n_users),
            fairness_scratch: Vec::with_capacity(n_users),
            fairness_series: Vec::new(),
            fairness_window_series: Vec::new(),
            power_series_j: Vec::new(),
            window_delivered: vec![0.0; n_users],
            window_need: vec![0.0; n_users],
            watching: n_users,
            slots_run: 0,
            admission,
            bs_cap_units: 0,
        });

        let barrier = SpinBarrier::new(width);
        let quit = AtomicBool::new(false);
        let collector_ref = &collector;
        let soa_cell = PhaseCell::new(soa);

        pool.broadcast(width, &|p| {
            let my = &shard_cells[p];
            for slot in 0..cfg.slots {
                // ---- Phase A (parallel): per-shard radio & playback ----
                {
                    // SAFETY: parallel phase — shard `p` belongs to this
                    // participant until the next barrier crossing.
                    let sh = unsafe { my.get_mut() };
                    if sh.any_retired {
                        // Compaction deferred from phase C so phase D
                        // could replay the retiring slot's records.
                        // SAFETY: retired flags are frozen in phase A.
                        sh.live.retain(|&i| unsafe { !*retired_s.get(i) });
                        sh.any_retired = false;
                    }
                    // Admit due arrivals into this shard's live list —
                    // the serial driver's arrival gate, split by range.
                    // Nothing reschedules a sharded run's plan, so a
                    // queued entry is due exactly when it says.
                    while let Some(&Reverse((due, i))) = sh.arrival_queue.peek() {
                        if due > slot {
                            break;
                        }
                        sh.arrival_queue.pop();
                        // Keeps the shard's live list ascending.
                        merge_ascending(&mut sh.live, &[i]);
                    }
                    // SAFETY: the serial state is read-only in phase A
                    // (participant 0 writes it in phases B and D only).
                    if let Some(adm) = unsafe { serial.get() }.admission.as_ref() {
                        // The previous slot's tick admitted these for this
                        // slot; this shard takes the ones in its range.
                        let range = shard_range(p);
                        let from = adm.admitted.partition_point(|&i| i < range.start);
                        let to = adm.admitted.partition_point(|&i| i < range.end);
                        merge_ascending(&mut sh.live, &adm.admitted[from..to]);
                    }
                    for k in 0..sh.live.len() {
                        let i = sh.live[k];
                        // SAFETY: `i` lies in this shard's disjoint range.
                        let u = unsafe { users_s.get_mut(i) };
                        debug_assert!(slot >= u.arrival_slot, "live user must have arrived");
                        // Per-user signal block anchored at the final
                        // arrival slot — the serial driver's exact gate.
                        let block_off = ((slot - u.arrival_slot) % SIG_BLOCK_SLOTS as u64) as usize;
                        if block_off == 0 {
                            u.signal.sample_into(slot, &mut u.sig_block);
                            u.sig_samples += SIG_BLOCK_SLOTS as u64;
                            collector_ref.link_caps_into(
                                &u.sig_block,
                                &mut sh.v_scratch,
                                &mut u.cap_block,
                            );
                        }
                        u.cur_signal = u.sig_block[block_off];
                        let link_cap = u.cap_block[block_off];
                        // Gateway-advertised demand: the ABR rung rate
                        // when clients are installed (single-rung = the
                        // native rate, bitwise), else the session rate.
                        // SAFETY: row `i` belongs to this shard.
                        let abr_rate = abr_meta_ref
                            .is_some()
                            .then(|| unsafe { abr_s.get(i) }.rate_kbps);
                        if slot >= u.departure_slot {
                            // Workload churn departure (idempotent).
                            u.session.cancel_remaining();
                            u.playback.abandon();
                        }
                        let outcome = u.playback.begin_slot();
                        if outcome.active {
                            u.active_slots += 1;
                        }
                        let r = RawUserState {
                            signal: u.cur_signal,
                            rate_kbps: abr_rate.unwrap_or_else(|| {
                                u.declared_rate_kbps
                                    .unwrap_or_else(|| u.session.rate_at(slot))
                            }),
                            buffer_s: outcome.occupancy_s,
                            remaining_kb: u.session.remaining_kb(),
                            active: outcome.active,
                            idle_s: u.rrc.idle_seconds(),
                            rrc_state: u.rrc.state(),
                        };
                        // Snapshot refresh: the pass-through collector's
                        // caps path verbatim (report = truth, Eq. (1)
                        // bound from the per-block table — the exact
                        // values `snapshot_refresh_soa` would write). The
                        // signal cache the serial collector maintains is
                        // write-only state here — sharded runs neither
                        // checkpoint nor add noise, so it is never read
                        // again and skipping it cannot change an output.
                        let snap = UserSnapshot {
                            id: i,
                            signal: r.signal,
                            rate_kbps: r.rate_kbps,
                            buffer_s: r.buffer_s,
                            remaining_kb: r.remaining_kb,
                            active: r.active,
                            link_cap_units: link_cap,
                            idle_s: r.idle_s,
                            rrc_state: r.rrc_state,
                        };
                        if let Some(rows) = soa_rows.as_ref() {
                            // SAFETY: row `i` belongs to this shard.
                            unsafe { rows.set_row(&snap, cfg.tau, cfg.delta_kb) };
                        }
                        // SAFETY: disjoint rows per shard (phase A).
                        unsafe {
                            *raw_s.get_mut(i) = r;
                            *snaps_s.get_mut(i) = snap;
                        }
                    }
                }
                barrier.wait();

                // ---- Phase B (serial): merge vs the shared BS cap ----
                if p == 0 {
                    // SAFETY: serial phase — every other participant is
                    // parked at the barrier below.
                    let SerialCtx {
                        scheduler,
                        capacity,
                        receiver,
                        transmitter,
                        rec,
                        alloc,
                        deliveries,
                        slots_run,
                        bs_cap_units: bs_cap_ctx,
                        ..
                    } = unsafe { serial.get_mut() };
                    *slots_run = slot + 1;
                    let cap = capacity.capacity(slot);
                    let bs_cap_units = units.bs_cap_units(cap, cfg.tau);
                    *bs_cap_ctx = bs_cap_units;
                    rec.begin_slot(slot, bs_cap_units);
                    receiver.ingest_slot(slot);
                    if use_soa {
                        // The shard lists in shard order are the serial
                        // live list: the rows a SoA sweep has to visit.
                        // SAFETY: serial phase — no shard writes rows or
                        // touches its list now, and no other reference
                        // to the mirror is live.
                        let soa = unsafe { soa_cell.get_mut() };
                        soa.set_live_rows(
                            shard_cells
                                .iter()
                                .flat_map(|cell| unsafe { cell.get() }.live.iter().copied()),
                        );
                    }
                    // SAFETY: serial phase; no shard writes rows now.
                    let ctx = SlotContext {
                        slot,
                        tau: cfg.tau,
                        delta_kb: cfg.delta_kb,
                        bs_cap_units,
                        users: unsafe { snaps_s.as_slice() },
                        soa: if use_soa {
                            Some(unsafe { soa_cell.get() })
                        } else {
                            None
                        },
                    };
                    if rec_enabled {
                        let t0 = std::time::Instant::now();
                        scheduler.allocate_into(&ctx, alloc);
                        rec.record_sched_latency_ns(t0.elapsed().as_nanos() as u64);
                        rec.record_alloc(&alloc.0);
                        if let Some(q) = scheduler.queue_values() {
                            rec.record_queues(q);
                        }
                        let deg = scheduler.degradations();
                        if !deg.is_empty() {
                            rec.record_degradations(deg);
                        }
                    } else {
                        scheduler.allocate_into(&ctx, alloc);
                    }
                    transmitter.transmit_into(&ctx, alloc, receiver, deliveries);
                }
                barrier.wait();

                // ---- Phase C (parallel): per-shard accounting ----
                {
                    // SAFETY: parallel phase — shard `p` is ours.
                    let sh = unsafe { my.get_mut() };
                    sh.watching_dec = 0;
                    sh.in_system = 0;
                    sh.events.clear();
                    sh.flips.clear();
                    // SAFETY: the serial state is read-only in phase C.
                    let deliveries = &unsafe { serial.get() }.deliveries;
                    for k in 0..sh.live.len() {
                        let i = sh.live[k];
                        // SAFETY: disjoint shard range.
                        let u = unsafe { users_s.get_mut(i) };
                        debug_assert!(slot >= u.arrival_slot, "live user must have arrived");
                        let d = &deliveries[i];
                        let slot_e = if d.kb > 0.0 {
                            let accepted = u.session.deliver(d.kb);
                            debug_assert!(
                                (accepted - d.kb).abs() < 1e-6,
                                "transmitter should never over-deliver"
                            );
                            // Playback advances at the rung rate under
                            // ABR (lower rungs stretch delivered KB into
                            // more playback seconds); the serial loop's
                            // exact expression.
                            if let Some((spec, chunk_s, native)) = abr_meta_ref {
                                // SAFETY: row `i` belongs to this shard.
                                let c = unsafe { abr_s.get_mut(i) };
                                u.playback.deliver(accepted, c.rate_kbps);
                                // SAFETY: own-shard rows, frozen since
                                // phase A.
                                let inp = AbrInputs {
                                    buffer_s: unsafe { raw_s.get(i) }.buffer_s,
                                    predicted_kbps: unsafe { snaps_s.get(i) }.link_cap_units as f64
                                        * cfg.delta_kb
                                        / cfg.tau,
                                };
                                c.on_delivery(
                                    accepted,
                                    u.session.fully_fetched(),
                                    &spec.ladder,
                                    &spec.policy,
                                    native[i],
                                    *chunk_s,
                                    inp,
                                );
                            } else {
                                u.playback.deliver(accepted, u.session.rate_at(slot));
                            }
                            if u.epk_sig.value() != u.cur_signal.value() {
                                u.epk_per_kb = models.power.energy_per_kb(u.cur_signal);
                                u.epk_sig = u.cur_signal;
                            }
                            let e = MilliJoules(u.epk_per_kb * accepted);
                            if rec_enabled {
                                u.rrc.on_transmit_observed(|f, t| sh.events.push((i, f, t)));
                            } else {
                                u.rrc.on_transmit();
                            }
                            u.meter.record_transmission(e);
                            e.value()
                        } else {
                            let e = if rec_enabled {
                                u.rrc
                                    .on_idle_observed(cfg.tau, |f, t| sh.events.push((i, f, t)))
                            } else {
                                u.rrc.on_idle(cfg.tau)
                            };
                            u.meter.record_tail(e);
                            e.value()
                        };
                        if rec_enabled || record_series || has_admission {
                            // SAFETY: disjoint shard range. Phase D's E*
                            // replay needs the per-user energy too.
                            unsafe { *slot_e_s.get_mut(i) = slot_e };
                        }
                        // SAFETY: disjoint shard range (flags below too).
                        let done = unsafe { done_s.get_mut(i) };
                        if !*done && u.session.fully_fetched() && u.playback.playback_complete() {
                            *done = true;
                            sh.watching_dec += 1;
                            if has_admission {
                                sh.flips.push(i);
                            }
                        }
                        if rec_enabled && !*done {
                            sh.in_system += 1;
                        }
                        if *done && u.rrc.state() == RrcState::Idle {
                            unsafe {
                                *retired_s.get_mut(i) = true;
                                *retired_at_s.get_mut(i) = slot;
                            }
                            sh.any_retired = true;
                        }
                    }
                }
                barrier.wait();

                // ---- Phase D (serial): in-order replay & series ----
                if p == 0 {
                    // SAFETY: serial phase (other participants parked).
                    let SerialCtx {
                        receiver,
                        rec,
                        deliveries,
                        fairness_scratch,
                        fairness_series,
                        fairness_window_series,
                        power_series_j,
                        window_delivered,
                        window_need,
                        watching,
                        admission,
                        bs_cap_units,
                        ..
                    } = unsafe { serial.get_mut() };
                    let mut watching_dec = 0usize;
                    let mut in_system = 0u64;
                    if rec_enabled || record_series || has_admission {
                        let mut slot_energy_mj = 0.0;
                        fairness_scratch.clear();
                        for cell in shard_cells.iter() {
                            // SAFETY: shards are quiescent in phase D.
                            let sh = unsafe { cell.get() };
                            let mut ev = 0usize;
                            let mut fl = 0usize;
                            for &i in &sh.live {
                                // SAFETY: exclusive serial phase.
                                let u = unsafe { users_s.get(i) };
                                // RRC transitions precede the user record,
                                // exactly as the serial accounting emits
                                // them; the cursors work because phase C
                                // pushed events (and done-flag flips) in
                                // this same live order.
                                while ev < sh.events.len() && sh.events[ev].0 == i {
                                    let (_, f, t) = sh.events[ev];
                                    rec.record_rrc_transition(i, f, t);
                                    ev += 1;
                                }
                                // SAFETY: exclusive serial phase.
                                let slot_e = unsafe { *slot_e_s.get(i) };
                                slot_energy_mj += slot_e;
                                if let Some(adm) = admission.as_mut() {
                                    let flipped = fl < sh.flips.len() && sh.flips[fl] == i;
                                    if flipped {
                                        fl += 1;
                                    }
                                    // SAFETY: exclusive serial phase.
                                    let done = unsafe { *done_s.get(i) };
                                    // Pre-flip membership, exactly as the
                                    // serial E* accumulator sees it (the
                                    // finishing slot itself still counts).
                                    if !done || flipped {
                                        adm.energy_mj += slot_e;
                                        adm.user_slots += 1;
                                    }
                                    // Membership event point: replay the
                                    // aggregate decrement in the serial
                                    // loop's exact user order.
                                    if flipped {
                                        adm.n_active -= 1;
                                        adm.rate_sum -= adm.rates[i];
                                    }
                                }
                                rec.record_user(i, slot_e, u.playback.total_rebuffer_s());
                                if record_series {
                                    // SAFETY: exclusive serial phase.
                                    let r = unsafe { raw_s.get(i) };
                                    if r.remaining_kb > 0.0 {
                                        let need_kb = (cfg.tau * r.rate_kbps).min(r.remaining_kb);
                                        if need_kb > 0.0 {
                                            fairness_scratch.push(deliveries[i].kb / need_kb);
                                            window_delivered[i] += deliveries[i].kb;
                                            window_need[i] += need_kb;
                                        }
                                    }
                                }
                            }
                            watching_dec += sh.watching_dec;
                            in_system += sh.in_system;
                        }
                        if record_series {
                            if !fairness_scratch.is_empty() {
                                fairness_series.push(jain_index(fairness_scratch.as_slice()));
                            }
                            power_series_j.push(slot_energy_mj / 1000.0);
                            if (slot + 1).is_multiple_of(FAIR_WINDOW) {
                                fairness_scratch.clear();
                                for i in 0..n_users {
                                    if window_need[i] > 0.0 {
                                        fairness_scratch.push(window_delivered[i] / window_need[i]);
                                    }
                                }
                                if !fairness_scratch.is_empty() {
                                    fairness_window_series
                                        .push(jain_index(fairness_scratch.as_slice()));
                                }
                                window_delivered.fill(0.0);
                                window_need.fill(0.0);
                            }
                        }
                    } else {
                        for cell in shard_cells.iter() {
                            // SAFETY: shards are quiescent in phase D.
                            watching_dec += unsafe { cell.get() }.watching_dec;
                        }
                    }
                    // Commit staged ABR switches in ascending user order
                    // — the serial loop's exact commit order, so rung
                    // state, session re-pricing, and switch records are
                    // bit-identical across shard widths. Only a delivery
                    // stages a switch, so the live lists cover them all.
                    if let Some((spec, _, native)) = abr_meta_ref {
                        // SAFETY: shards are quiescent in phase D.
                        let live = shard_cells
                            .iter()
                            .flat_map(|cell| unsafe { cell.get() }.live.iter().copied());
                        for i in live {
                            // SAFETY: exclusive serial phase.
                            let c = unsafe { abr_s.get_mut(i) };
                            if let Some(sw) = c.apply_pending(&spec.ladder, native[i]) {
                                // SAFETY: exclusive serial phase.
                                let u = unsafe { users_s.get_mut(i) };
                                let delta = u.session.rescale_remaining(sw.ratio);
                                receiver.adjust_source_volume_kb(i, delta);
                                rec.record_abr_switch(i, sw.from, sw.to);
                            }
                        }
                    }
                    if rec_enabled {
                        rec.record_live(in_system);
                    }
                    // Fold the shard flips before the admission tick so a
                    // rejection decrements an up-to-date watch count —
                    // the serial loop's exact ordering.
                    *watching -= watching_dec;
                    if let Some(adm) = admission.as_mut() {
                        // SAFETY: exclusive serial phase — every shard is
                        // parked at the barrier below, so the full user
                        // and done-flag slices are ours. The tick is the
                        // serial loop's end-of-slot tick verbatim; the
                        // users it admits join their shard's live list
                        // next phase A.
                        admission_tick(
                            adm,
                            unsafe { users_s.as_mut_slice() },
                            unsafe { done_s.as_mut_slice() },
                            watching,
                            &mut **rec,
                            slot,
                            *bs_cap_units,
                            cfg.tau,
                            cfg.delta_kb,
                        );
                    }
                    rec.end_slot();
                    if *watching == 0 || slot + 1 == cfg.slots {
                        quit.store(true, Ordering::Release);
                    }
                }
                barrier.wait();
                if quit.load(Ordering::Acquire) {
                    break;
                }
            }
        });

        let SerialCtx {
            scheduler,
            capacity,
            receiver,
            transmitter,
            rec,
            fairness_series,
            fairness_window_series,
            power_series_j,
            slots_run,
            ..
        } = serial.into_inner();
        rec.end_run();
        // Settle the idle slots the retired users sat out, exactly as the
        // serial loop does after its exit.
        for i in 0..n_users {
            if retired[i] {
                users[i]
                    .meter
                    .record_saturated_idle_slots(slots_run - 1 - retired_at[i]);
            }
        }
        let engine = Engine {
            users,
            scheduler,
            capacity,
            receiver,
            transmitter,
            collector,
            units,
            models,
            cfg,
            abr: None,
            admission: None,
        };
        let mut result = engine.finish(
            slots_run,
            fairness_series,
            fairness_window_series,
            power_series_j,
        );
        result.telemetry = rec.summary();
        result
    }

    /// The one true hot loop: fault-aware, checkpoint-aware, generic over
    /// recorder and fault hook so the plain `run()` instantiation compiles
    /// to the same code as before either subsystem existed.
    ///
    /// Implemented as a thin cadence loop over [`SlotDriver`]: the engine
    /// converts into a driver ([`Engine::into_driver`]) and steps to the
    /// horizon, so batch runs and live stepping execute the exact same
    /// slot code — the golden traces and the resume ≡ straight-run
    /// proptests pin both at once.
    ///
    /// * `resume` — restore this checkpoint (captured by an earlier run of
    ///   the same scenario) and continue from its slot.
    /// * `mode` — periodic sidecar checkpointing, a one-shot pause, or
    ///   neither. Checkpoints are captured at the *top* of a slot, before
    ///   any of that slot's state changes.
    pub fn run_core<R: SlotRecorder, F: FaultHook>(
        self,
        rec: &mut R,
        faults: &F,
        resume: Option<&EngineCheckpoint>,
        mode: CkptMode<'_>,
    ) -> Result<RunOutcome, SimError> {
        let resumed = resume.is_some();
        let mut drv = self.into_driver(rec, faults, resume)?;
        while !drv.is_finished() {
            let slot = drv.next_slot();
            match mode {
                CkptMode::Off => {}
                CkptMode::EveryToFile { every, path } => {
                    if every > 0 && slot != drv.start_slot() && slot.is_multiple_of(every) {
                        let ck = drv.checkpoint(rec).map_err(SimError::Checkpoint)?;
                        ck.write_file(path).map_err(SimError::Checkpoint)?;
                    }
                }
                CkptMode::PauseAt { slot: pause } => {
                    if slot == pause && (!resumed || slot > drv.start_slot()) {
                        let ck = drv.checkpoint(rec).map_err(SimError::Checkpoint)?;
                        return Ok(RunOutcome::Paused(Box::new(ck)));
                    }
                }
            }
            drv.step(rec);
        }
        Ok(RunOutcome::Done(drv.finish(rec)))
    }

    /// Convert the engine into a [`SlotDriver`] — the resumable stepping
    /// form of the hot loop, executing exactly one slot per
    /// [`SlotDriver::step`] call.
    ///
    /// Every batch run path is a thin loop over the driver (see
    /// [`Engine::run_core`]), so stepping it from a front-end — with
    /// checkpoints, live arrival scheduling, or degradation between
    /// slots — is bit-identical to a batch run by construction: there is
    /// no second loop implementation to drift.
    ///
    /// `faults` is taken by value: pass [`NoFaults`], a compiled
    /// [`FaultPlan`](crate::faults::FaultPlan), a reference to either
    /// (`&F` of any hook is itself a hook), or the runtime-selected
    /// [`DynFaults`](crate::faults::DynFaults).
    ///
    /// On resume the checkpoint is restored exactly as the batch resume
    /// path does: component state imports, per-user RNG fast-forward,
    /// and derived state (SoA mirror, link-cap tables) rebuilt.
    pub fn into_driver<R: SlotRecorder, F: FaultHook>(
        mut self,
        rec: &mut R,
        faults: F,
        resume: Option<&EngineCheckpoint>,
    ) -> Result<SlotDriver<F>, SimError> {
        let n_users = self.users.len();
        let series_cap = if self.cfg.record_series {
            self.cfg.slots as usize
        } else {
            0
        };
        let mut fairness_series = Vec::with_capacity(series_cap);
        let mut fairness_window_series = Vec::with_capacity(series_cap.div_ceil(10));
        let mut power_series_j = Vec::with_capacity(series_cap);
        let fairness_scratch: Vec<f64> = Vec::with_capacity(n_users);
        // 10-slot accumulators for the windowed fairness view.
        let mut window_delivered = vec![0.0f64; n_users];
        let mut window_need = vec![0.0f64; n_users];
        let mut slots_run = 0;

        // Early-exit bookkeeping: a user counts as watching until their
        // session is fully fetched *and* fully watched. Both predicates
        // are monotone, so a per-user flag plus a counter replaces a
        // per-slot O(N) scan over all users.
        let mut watching = n_users;
        let mut done_watching = vec![false; n_users];
        // Retirement bookkeeping: once retired a user leaves the live set
        // and their trailing zero-cost idle slots are settled after the
        // loop.
        let mut retired = vec![false; n_users];
        let mut retired_at = vec![0u64; n_users];
        // Arrival gate: only users whose sessions have started occupy
        // the live set; the rest wait in a min-heap keyed by arrival
        // slot and join (ascending user order within a slot) once due —
        // or, under feasibility admission, wait for the tick to admit
        // them (`AdmissionRuntime::admitted`). A user's noise stream is
        // anchored at their final arrival slot — pre-arrival users draw
        // no signal samples at all, so the per-slot work scales with the
        // arrived population, not the scenario's user count.
        let governed = self.admission.is_some();
        let mut live: Vec<usize> = Vec::with_capacity(n_users);
        let mut entered = vec![false; n_users];
        let mut arrival_queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, u) in self.users.iter().enumerate() {
            if u.arrival_slot == 0 {
                live.push(i);
                entered[i] = true;
            } else if u.arrival_slot != u64::MAX && !governed {
                arrival_queue.push(Reverse((u.arrival_slot, i)));
            }
        }

        // Per-slot pipeline buffers, hoisted out of the loop and reused.
        // `raw` keeps one stable entry per user; retired users' entries
        // freeze at their retirement-slot values.
        let mut raw: Vec<RawUserState> = vec![
            RawUserState {
                signal: Dbm(0.0),
                rate_kbps: 0.0,
                buffer_s: 0.0,
                remaining_kb: 0.0,
                active: false,
                idle_s: 0.0,
                rrc_state: RrcState::Idle,
            };
            n_users
        ];
        let mut snapshots = Vec::with_capacity(n_users);
        let collector_full_pass = self.collector.needs_full_pass();
        // Block-precomputed radio tables (per-user Eq. (1) caps for a
        // whole RSSI block) are only sound when the reported signal is
        // exactly the sampled one — a pass-through collector — and no
        // fault hook can perturb signals after sampling. Outside that
        // regime the loop falls back to the scalar kernels, which are
        // bit-identical by construction (shared per-element `kernel`).
        let tables_enabled = !faults.enabled() && self.collector.is_pass_through();
        let mut v_scratch = [0.0f64; SIG_BLOCK_SLOTS];
        // The SoA mirror is maintained only for schedulers that read it
        // (Scheduler::wants_soa): column upkeep re-derives unit
        // quantities per live user every slot, which row-walking
        // policies would pay for without ever looking at the result.
        let use_soa = self.scheduler.wants_soa();
        let mut soa = SnapshotSoA::new();

        let mut start_slot = 0;
        if let Some(ck) = resume {
            self.restore(ck).map_err(SimError::Checkpoint)?;
            rec.import_state(&ck.recorder)
                .map_err(|reason| CheckpointError::Restore {
                    component: "recorder",
                    reason,
                })
                .map_err(SimError::Checkpoint)?;
            let ls = &ck.loop_state;
            if ls.done_watching.len() != n_users
                || ls.retired.len() != n_users
                || ls.live.iter().any(|&i| i >= n_users)
            {
                return Err(CheckpointError::Restore {
                    component: "loop state",
                    reason: "user indices out of range".into(),
                }
                .into());
            }
            fairness_series = ls.fairness_series.clone();
            fairness_window_series = ls.fairness_window_series.clone();
            power_series_j = ls.power_series_j.clone();
            window_delivered = ls.window_delivered.clone();
            window_need = ls.window_need.clone();
            slots_run = ls.slots_run;
            watching = ls.watching;
            done_watching = ls.done_watching.clone();
            retired = ls.retired.clone();
            retired_at = ls.retired_at.clone();
            // Re-derive the arrival gate from the restored schedule:
            // pre-arrival users move out of the restored live set
            // (legacy pre-v4 checkpoints carried every user in `live`;
            // current ones never include the un-arrived) and back into
            // the arrival queue. `entered` is exactly "in live or
            // retired" — a user only ever leaves `live` by retiring —
            // so no extra loop state needs checkpointing.
            live = ls.live.clone();
            live.retain(|&i| self.users[i].arrival_slot <= ck.slot);
            entered.fill(false);
            for &i in &live {
                entered[i] = true;
            }
            arrival_queue.clear();
            for i in 0..n_users {
                if retired[i] {
                    entered[i] = true;
                }
                let arrival = self.users[i].arrival_slot;
                if entered[i] || arrival == u64::MAX {
                    continue;
                }
                match self.admission.as_mut() {
                    None => arrival_queue.push(Reverse((arrival, i))),
                    // A governed user due by the restored slot and not
                    // yet live was admitted by the tick just before it;
                    // the later ones are in the rebuilt `planned` list.
                    Some(adm) if arrival <= ck.slot => adm.admitted.push(i),
                    Some(_) => {}
                }
            }
            raw = ls.raw.clone();
            snapshots = ls.snapshots.clone();
            // The SoA mirror and the radio tables are derived state, not
            // checkpointed: rebuild both from the restored snapshots and
            // signal blocks so a resumed run re-enters the block mid-way
            // with the exact values the straight run would hold.
            if use_soa {
                soa.fill_from(&snapshots, self.cfg.tau, self.cfg.delta_kb);
            }
            if tables_enabled {
                for u in &mut self.users {
                    self.collector
                        .link_caps_into(&u.sig_block, &mut v_scratch, &mut u.cap_block);
                }
            }
            start_slot = ck.slot;
        } else {
            rec.begin_run(n_users, self.cfg.tau);
        }

        let finished = start_slot >= self.cfg.slots;
        let alloc = Allocation::zeros(n_users);
        let deliveries = Vec::with_capacity(n_users);
        Ok(SlotDriver {
            engine: self,
            faults,
            fairness_series,
            fairness_window_series,
            power_series_j,
            fairness_scratch,
            window_delivered,
            window_need,
            slots_run,
            watching,
            done_watching,
            retired,
            retired_at,
            live,
            arrival_queue,
            entered,
            raw,
            snapshots,
            alloc,
            deliveries,
            fault_notes: Vec::new(),
            collector_full_pass,
            tables_enabled,
            v_scratch,
            cap_hint: vec![0; n_users],
            use_soa,
            soa,
            start_slot,
            next_slot: start_slot,
            finished,
        })
    }
    /// Reference slot loop: every user is visited every slot and signals
    /// are drawn one slot at a time — the plain transcription of the §III
    /// pipeline with none of [`Engine::run`]'s active-set machinery.
    ///
    /// This is the executable specification for the hot path: on any
    /// scenario, `run()` and `run_reference()` must return identical
    /// [`SimResult`]s (pinned by the `active_set_matches_reference`
    /// property test). It is also the baseline the `hotpath` bench
    /// compares against.
    pub fn run_reference(self) -> SimResult {
        self.run_reference_with(&mut NullRecorder)
    }

    /// [`Engine::run_reference`] with a [`SlotRecorder`] observing every
    /// slot. Produces a trace identical to [`Engine::run_with`]'s on any
    /// scenario: per-user records land at stable indices, and the users
    /// the active-set loop skips would only ever contribute zero-energy,
    /// zero-delta records (pinned by the trace-equality property test).
    pub fn run_reference_with<R: SlotRecorder>(self, rec: &mut R) -> SimResult {
        self.run_reference_faulted_with(rec, &NoFaults)
    }

    /// [`Engine::run_reference_with`] under a [`FaultHook`] — the
    /// executable specification for [`Engine::run_faulted_with`]: both
    /// must produce identical results and traces under any fault plan
    /// (checkpointing stays exclusive to the hot path).
    pub fn run_reference_faulted_with<R: SlotRecorder, F: FaultHook>(
        mut self,
        rec: &mut R,
        faults: &F,
    ) -> SimResult {
        let n_users = self.users.len();
        rec.begin_run(n_users, self.cfg.tau);
        let series_cap = if self.cfg.record_series {
            self.cfg.slots as usize
        } else {
            0
        };
        let mut fairness_series = Vec::with_capacity(series_cap);
        let mut fairness_window_series = Vec::with_capacity(series_cap.div_ceil(10));
        let mut power_series_j = Vec::with_capacity(series_cap);
        let mut fairness_scratch: Vec<f64> = Vec::with_capacity(n_users);
        const FAIR_WINDOW: u64 = 10;
        let mut window_delivered = vec![0.0f64; n_users];
        let mut window_need = vec![0.0f64; n_users];
        let mut slots_run = 0;

        let mut unfinished = n_users;
        let mut finished = vec![false; n_users];

        let mut raw: Vec<RawUserState> = Vec::with_capacity(n_users);
        let mut snapshots = Vec::with_capacity(n_users);
        let mut alloc = Allocation::zeros(n_users);
        let mut deliveries = Vec::with_capacity(n_users);
        let mut fault_notes: Vec<String> = Vec::new();

        for slot in 0..self.cfg.slots {
            slots_run = slot + 1;
            let cap = self.capacity.capacity(slot);
            let bs_cap_units =
                faults.adjust_cap_units(slot, self.units.bs_cap_units(cap, self.cfg.tau));
            rec.begin_slot(slot, bs_cap_units);
            if faults.enabled() && rec.enabled() {
                fault_notes.clear();
                faults.notes_into(slot, &mut fault_notes);
                for note in &fault_notes {
                    rec.record_fault(note);
                }
            }
            self.receiver.ingest_slot(slot);

            // Client-side slot advance (Eq. 7/8) and ground-truth state.
            raw.clear();
            for (i, u) in self.users.iter_mut().enumerate() {
                if slot < u.arrival_slot {
                    // Pre-arrival users are invisible to the radio: their
                    // noise stream is anchored at their (final) arrival
                    // slot, so no sample is drawn, and the gateway sees
                    // the same frozen placeholder row the hot loop's
                    // arrival gate never writes.
                    raw.push(RawUserState {
                        signal: Dbm(0.0),
                        rate_kbps: 0.0,
                        buffer_s: 0.0,
                        remaining_kb: 0.0,
                        active: false,
                        idle_s: 0.0,
                        rrc_state: RrcState::Idle,
                    });
                    continue;
                }
                u.cur_signal = u.signal.sample(slot);
                u.sig_samples += 1;
                if faults.enabled() {
                    u.cur_signal = faults.adjust_signal(slot, i, u.cur_signal);
                }
                // Mirrors the hot loop's ABR rate substitution exactly.
                let abr_rate = self.abr.as_ref().map(|a| a.clients[i].rate_kbps);
                if slot >= u.departure_slot || (faults.enabled() && faults.departed(slot, i)) {
                    u.session.cancel_remaining();
                    u.playback.abandon();
                }
                let outcome = u.playback.begin_slot();
                if outcome.active {
                    u.active_slots += 1;
                }
                raw.push(RawUserState {
                    signal: u.cur_signal,
                    rate_kbps: abr_rate.unwrap_or_else(|| {
                        u.declared_rate_kbps
                            .unwrap_or_else(|| u.session.rate_at(slot))
                    }),
                    buffer_s: outcome.occupancy_s,
                    remaining_kb: u.session.remaining_kb(),
                    active: outcome.active,
                    idle_s: u.rrc.idle_seconds(),
                    rrc_state: u.rrc.state(),
                });
            }

            // Gateway pipeline.
            self.collector.snapshot_into(slot, &raw, &mut snapshots);
            let ctx = SlotContext {
                slot,
                tau: self.cfg.tau,
                delta_kb: self.cfg.delta_kb,
                bs_cap_units,
                users: &snapshots,
                soa: None,
            };
            if rec.enabled() {
                let t0 = std::time::Instant::now();
                self.scheduler.allocate_into(&ctx, &mut alloc);
                rec.record_sched_latency_ns(t0.elapsed().as_nanos() as u64);
                rec.record_alloc(&alloc.0);
                if let Some(q) = self.scheduler.queue_values() {
                    rec.record_queues(q);
                }
                let deg = self.scheduler.degradations();
                if !deg.is_empty() {
                    rec.record_degradations(deg);
                }
            } else {
                self.scheduler.allocate_into(&ctx, &mut alloc);
            }
            self.transmitter
                .transmit_into(&ctx, &alloc, &mut self.receiver, &mut deliveries);

            // Device-side accounting (Eq. 3/4/5) and client delivery.
            let mut slot_energy_mj = 0.0;
            let mut in_system = 0u64;
            fairness_scratch.clear();
            for (u_idx, ((u, d), r)) in self.users.iter_mut().zip(&deliveries).zip(&raw).enumerate()
            {
                if slot < u.arrival_slot {
                    continue;
                }
                let slot_e = if d.kb > 0.0 {
                    let accepted = u.session.deliver(d.kb);
                    debug_assert!(
                        (accepted - d.kb).abs() < 1e-6,
                        "transmitter should never over-deliver"
                    );
                    if let Some(a) = self.abr.as_mut() {
                        u.playback.deliver(accepted, a.clients[u_idx].rate_kbps);
                        let inp = AbrInputs {
                            buffer_s: r.buffer_s,
                            predicted_kbps: snapshots[u_idx].link_cap_units as f64
                                * self.cfg.delta_kb
                                / self.cfg.tau,
                        };
                        a.clients[u_idx].on_delivery(
                            accepted,
                            u.session.fully_fetched(),
                            &a.spec.ladder,
                            &a.spec.policy,
                            a.native[u_idx],
                            a.chunk_s,
                            inp,
                        );
                    } else {
                        u.playback.deliver(accepted, u.session.rate_at(slot));
                    }
                    let e = self
                        .models
                        .power
                        .transmission_energy(u.cur_signal, accepted);
                    if rec.enabled() {
                        u.rrc
                            .on_transmit_observed(|f, t| rec.record_rrc_transition(u_idx, f, t));
                    } else {
                        u.rrc.on_transmit();
                    }
                    u.meter.record_transmission(e);
                    e.value()
                } else {
                    let e = if rec.enabled() {
                        u.rrc.on_idle_observed(self.cfg.tau, |f, t| {
                            rec.record_rrc_transition(u_idx, f, t)
                        })
                    } else {
                        u.rrc.on_idle(self.cfg.tau)
                    };
                    u.meter.record_tail(e);
                    e.value()
                };
                slot_energy_mj += slot_e;
                // Mirrors the hot loop's running E* accumulator exactly.
                if let Some(adm) = self.admission.as_mut() {
                    if !finished[u_idx] {
                        adm.energy_mj += slot_e;
                        adm.user_slots += 1;
                    }
                }
                rec.record_user(u_idx, slot_e, u.playback.total_rebuffer_s());
                // Mirrors the hot loop's `record_series` gate so both
                // loops carry identical windowed-fairness state.
                if self.cfg.record_series && r.remaining_kb > 0.0 {
                    let need_kb = (self.cfg.tau * r.rate_kbps).min(r.remaining_kb);
                    if need_kb > 0.0 {
                        fairness_scratch.push(d.kb / need_kb);
                        window_delivered[u_idx] += d.kb;
                        window_need[u_idx] += need_kb;
                    }
                }
                if !finished[u_idx] && u.session.fully_fetched() && u.playback.playback_complete() {
                    finished[u_idx] = true;
                    unfinished -= 1;
                }
                // Mirrors the hot loop's live-population sample exactly.
                if rec.enabled() && !finished[u_idx] {
                    in_system += 1;
                }
            }

            // Commit staged ABR switches — the hot loop's exact pass.
            if let Some(a) = self.abr.as_mut() {
                for i in 0..n_users {
                    if let Some(sw) = a.clients[i].apply_pending(&a.spec.ladder, a.native[i]) {
                        let delta = self.users[i].session.rescale_remaining(sw.ratio);
                        self.receiver.adjust_source_volume_kb(i, delta);
                        rec.record_abr_switch(i, sw.from, sw.to);
                    }
                }
            }

            if self.cfg.record_series {
                if !fairness_scratch.is_empty() {
                    fairness_series.push(jain_index(&fairness_scratch));
                }
                power_series_j.push(slot_energy_mj / 1000.0);
                if (slot + 1).is_multiple_of(FAIR_WINDOW) {
                    fairness_scratch.clear();
                    for i in 0..n_users {
                        if window_need[i] > 0.0 {
                            fairness_scratch.push(window_delivered[i] / window_need[i]);
                        }
                    }
                    if !fairness_scratch.is_empty() {
                        fairness_window_series.push(jain_index(&fairness_scratch));
                    }
                    window_delivered.fill(0.0);
                    window_need.fill(0.0);
                }
            }
            if rec.enabled() {
                rec.record_live(in_system);
            }
            // Mirrors the hot loop's admission tick exactly (`finished` /
            // `unfinished` play the roles of `done_watching`/`watching`),
            // in full-rescan form — the reference loop is where the
            // O(n_users) aggregate specification stays executable.
            if let Some(adm) = self.admission.as_mut() {
                admission_tick_reference(
                    adm,
                    &mut self.users,
                    &mut finished,
                    &mut unfinished,
                    rec,
                    slot,
                    bs_cap_units,
                    self.cfg.tau,
                    self.cfg.delta_kb,
                );
            }
            rec.end_slot();

            if unfinished == 0 {
                break;
            }
        }
        rec.end_run();

        let mut result = self.finish(
            slots_run,
            fairness_series,
            fairness_window_series,
            power_series_j,
        );
        result.telemetry = rec.summary();
        result
    }

    /// Fold the finished per-user state into a [`SimResult`].
    fn finish(
        self,
        slots_run: u64,
        fairness_series: Vec<f64>,
        fairness_window_series: Vec<f64>,
        power_series_j: Vec<f64>,
    ) -> SimResult {
        let mut per_user: Vec<UserResult> = self
            .users
            .into_iter()
            .map(|u| UserResult {
                rebuffer_s: u.playback.total_rebuffer_s(),
                stall_slots: u.playback.stall_slots(),
                startup_slots: u.playback.startup_slots(),
                watched_s: u.playback.played_s(),
                playback_complete: u.playback.playback_complete(),
                fetched_kb: u.session.received_kb(),
                energy: u.meter.breakdown(),
                active_slots: u.active_slots,
                tx_slots: u.meter.slots_transmitting(),
                idle_slots: u.meter.slots_idle(),
                rate_kbps: u.session.bitrate.mean_rate(),
                video_kb: u.session.total_kb,
            })
            .collect();
        // The collect above reuses the `UserSim` buffer in place, so the
        // result would otherwise pin 8× the bytes its rows need for as
        // long as a caller keeps it.
        per_user.shrink_to_fit();

        SimResult {
            scheduler: self.scheduler.name().to_string(),
            per_user,
            slots_run,
            slots_configured: self.cfg.slots,
            tau_s: self.cfg.tau,
            fairness_series,
            fairness_window_series,
            power_series_j,
            telemetry: None,
            warnings: Vec::new(),
        }
    }
}

/// The resumable stepping form of the engine's hot loop: one slot per
/// [`SlotDriver::step`] call, checkpoint capture between any two slots,
/// and live mutation of the not-yet-executed schedule.
///
/// Built by [`Engine::into_driver`]; every batch run path
/// ([`Engine::run_core`]) is a thin cadence loop over this driver, so
/// stepping it from a front-end (the live gateway service) executes the
/// exact same slot code as a batch run — the determinism tests pin both
/// at once, and a fully stepped driver's result and telemetry are
/// byte-identical to the batch run of the same scenario.
///
/// The driver owns its fault hook (generic, so the [`NoFaults`]
/// instantiation folds every fault branch away exactly as in the batch
/// loop) and every loop-local accumulator; the recorder stays external,
/// passed into each call, so one recorder can outlive crash/rebuild
/// cycles of the driver itself.
pub struct SlotDriver<F: FaultHook = NoFaults> {
    engine: Engine,
    faults: F,
    fairness_series: Vec<f64>,
    fairness_window_series: Vec<f64>,
    power_series_j: Vec<f64>,
    fairness_scratch: Vec<f64>,
    window_delivered: Vec<f64>,
    window_need: Vec<f64>,
    slots_run: u64,
    watching: usize,
    done_watching: Vec<bool>,
    retired: Vec<bool>,
    retired_at: Vec<u64>,
    live: Vec<usize>,
    /// Min-heap of `(arrival_slot, user)` for users that have not yet
    /// entered `live`, drained at the top of each step. A live
    /// `set_arrival` reschedule pushes a fresh entry and leaves the old
    /// one behind to be dropped on pop. Empty under feasibility
    /// admission, whose tick feeds the gate instead.
    arrival_queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// Latched once a user joins `live` (or was restored as retired):
    /// live membership never regresses, so a queue entry for an entered
    /// user is stale by construction and dropped on pop.
    entered: Vec<bool>,
    raw: Vec<RawUserState>,
    snapshots: Vec<UserSnapshot>,
    alloc: Allocation,
    deliveries: Vec<Delivery>,
    fault_notes: Vec<String>,
    collector_full_pass: bool,
    tables_enabled: bool,
    v_scratch: [f64; SIG_BLOCK_SLOTS],
    cap_hint: Vec<u64>,
    use_soa: bool,
    soa: SnapshotSoA,
    start_slot: u64,
    next_slot: u64,
    finished: bool,
}

/// What the latest slot cost in rows visited rather than in time: counts
/// that repeat exactly from run to run, so a test can pin that a slot
/// costs the sessions in the cell and not the pool they came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotWork {
    /// Flows the Data Receiver's ingest visited.
    pub receiver_flows: usize,
    /// Rows the scheduler's context listed as live — what a live-list
    /// sweep such as Default's visits; the whole pool when the policy
    /// keeps no SoA mirror.
    pub scheduler_rows: usize,
}

impl<F: FaultHook> SlotDriver<F> {
    /// Work counts of the slot the latest [`SlotDriver::step`] executed.
    pub fn last_slot_work(&self) -> SlotWork {
        SlotWork {
            receiver_flows: self.engine.receiver.flows_visited_last_ingest(),
            scheduler_rows: if self.use_soa {
                self.soa.live_rows().len()
            } else {
                self.engine.users.len()
            },
        }
    }

    /// Slot the next [`SlotDriver::step`] call will execute.
    pub fn next_slot(&self) -> u64 {
        self.next_slot
    }

    /// Slot this driver started (or resumed) from.
    pub fn start_slot(&self) -> u64 {
        self.start_slot
    }

    /// Configured horizon Γ in slots.
    pub fn horizon(&self) -> u64 {
        self.engine.cfg.slots
    }

    /// Number of users in the scenario.
    pub fn n_users(&self) -> usize {
        self.engine.users.len()
    }

    /// True once the run is over: the horizon was reached or every
    /// session has been fully fetched and watched (the batch loop's
    /// early exit). Further [`SlotDriver::step`] calls return `None`;
    /// call [`SlotDriver::finish`] to settle accounting and collect the
    /// [`SimResult`].
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Users still fetching or watching.
    pub fn watching(&self) -> usize {
        self.watching
    }

    /// Short name of the scheduling policy driving allocations.
    pub fn scheduler_name(&self) -> &'static str {
        self.engine.scheduler.name()
    }

    /// Switch the scheduler into its degraded (cheaper, best-effort)
    /// operating mode, if it has one — the live `Degrade` overrun
    /// policy. Returns whether the scheduler supports degradation.
    /// Engaging is idempotent and takes effect from the next slot; the
    /// switch is observable through the scheduler's degradation events
    /// in the telemetry stream.
    pub fn engage_degraded(&mut self) -> bool {
        self.engine.scheduler.engage_degraded()
    }

    /// Defer every user's arrival to "never" (`u64::MAX`): live
    /// ingestion mode, where sessions start only once a
    /// [`SlotDriver::set_arrival`] event schedules them. Only valid
    /// before the first slot of a fresh (non-resumed) run — a resumed
    /// run carries its schedule inside the checkpoint — and
    /// incompatible with feasibility admission control (whose pending
    /// queue is compiled from the planned schedule).
    pub fn defer_all_arrivals(&mut self) -> Result<(), ScenarioError> {
        if self.next_slot != 0 {
            return Err(ScenarioError::new(
                "live.defer",
                "arrivals can only be deferred before the first slot runs",
            ));
        }
        if self.engine.admission.is_some() {
            return Err(ScenarioError::new(
                "live.defer",
                "live arrival scheduling is incompatible with feasibility \
                 admission control (its pending queue is compiled from the \
                 planned arrival schedule)",
            ));
        }
        for u in &mut self.engine.users {
            u.arrival_slot = u64::MAX;
            u.departure_slot = u64::MAX;
        }
        // Live mode starts with an empty system: every user enters
        // through a later `set_arrival` event.
        self.live.clear();
        self.entered.fill(false);
        self.arrival_queue.clear();
        Ok(())
    }

    /// Schedule user `user`'s session to start at `slot` — the live form
    /// of [`crate::arrivals::ArrivalSpec::Declared`]. The engine only
    /// ever reads `arrival_slot` as `slot < arrival`, so scheduling an
    /// arrival any time before its slot executes yields bytes identical
    /// to a batch run whose declared plan carries the same final
    /// schedule.
    pub fn set_arrival(&mut self, user: usize, slot: u64) -> Result<(), ScenarioError> {
        self.check_live_mutation("live.arrive", user, slot)?;
        let next = self.next_slot;
        let u = &mut self.engine.users[user];
        if u.arrival_slot < next {
            return Err(ScenarioError::new(
                "live.arrive",
                format!("user {user} already arrived at slot {}", u.arrival_slot),
            ));
        }
        if u.departure_slot != u64::MAX && slot >= u.departure_slot {
            return Err(ScenarioError::new(
                "live.arrive",
                "arrival must precede the scheduled departure",
            ));
        }
        u.arrival_slot = slot;
        // Duplicate entries for a rescheduled arrival are harmless: the
        // drain drops any entry that comes up before the user's current
        // arrival slot, or after they entered.
        self.arrival_queue.push(Reverse((slot, user)));
        Ok(())
    }

    /// Schedule user `user` to abandon their session at `slot` — live
    /// churn, the same idempotent state change the batch departure plan
    /// applies.
    pub fn set_departure(&mut self, user: usize, slot: u64) -> Result<(), ScenarioError> {
        self.check_live_mutation("live.depart", user, slot)?;
        let u = &mut self.engine.users[user];
        if u.arrival_slot != u64::MAX && slot <= u.arrival_slot {
            return Err(ScenarioError::new(
                "live.depart",
                "departure must come after the arrival",
            ));
        }
        u.departure_slot = slot;
        Ok(())
    }

    /// Install a gateway-side declared rate (e.g. DPI-extracted from the
    /// session's segment request) for user `user`: snapshots from the
    /// next slot on advertise it instead of the instantaneous session
    /// rate. Client-side playback still uses the true encoding rate.
    pub fn set_declared_rate(&mut self, user: usize, kbps: f64) -> Result<(), ScenarioError> {
        if user >= self.engine.users.len() {
            return Err(ScenarioError::new(
                "live.rate",
                format!("user {user} out of range"),
            ));
        }
        if kbps <= 0.0 || kbps.is_nan() {
            return Err(ScenarioError::new("live.rate", "rate must be positive"));
        }
        self.engine.users[user].declared_rate_kbps = Some(kbps);
        Ok(())
    }

    /// Shared validation for live schedule mutations: the user exists,
    /// the slot has not executed yet, and no feasibility admission
    /// controller owns the arrival schedule.
    fn check_live_mutation(
        &self,
        field: &'static str,
        user: usize,
        slot: u64,
    ) -> Result<(), ScenarioError> {
        if user >= self.engine.users.len() {
            return Err(ScenarioError::new(
                field,
                format!("user {user} out of range"),
            ));
        }
        if slot < self.next_slot {
            return Err(ScenarioError::new(
                field,
                format!(
                    "slot {slot} already executed (next slot is {})",
                    self.next_slot
                ),
            ));
        }
        if self.engine.admission.is_some() {
            return Err(ScenarioError::new(
                field,
                "live schedule changes are incompatible with feasibility \
                 admission control",
            ));
        }
        Ok(())
    }

    /// Clone the loop-local accumulators into a serializable snapshot.
    fn loop_ckpt(&self) -> LoopCkpt {
        LoopCkpt {
            fairness_series: self.fairness_series.clone(),
            fairness_window_series: self.fairness_window_series.clone(),
            power_series_j: self.power_series_j.clone(),
            window_delivered: self.window_delivered.clone(),
            window_need: self.window_need.clone(),
            slots_run: self.slots_run,
            watching: self.watching,
            done_watching: self.done_watching.clone(),
            retired: self.retired.clone(),
            retired_at: self.retired_at.clone(),
            live: self.live.clone(),
            raw: self.raw.clone(),
            snapshots: self.snapshots.clone(),
        }
    }

    /// Capture the full simulation state at the top of the next slot.
    /// Feeding the checkpoint to a freshly built driver (or any batch
    /// resume path) for the same scenario continues bit-identically.
    pub fn checkpoint<R: SlotRecorder>(
        &self,
        rec: &R,
    ) -> Result<EngineCheckpoint, CheckpointError> {
        self.engine.capture(self.next_slot, rec, self.loop_ckpt())
    }

    /// Execute exactly one slot of the §III pipeline. Returns the slot
    /// index it ran, or `None` once the run is finished.
    ///
    /// The body is the batch loop's slot body verbatim (the batch loop
    /// calls this method); only the loop-carried locals moved into the
    /// driver struct.
    pub fn step<R: SlotRecorder>(&mut self, rec: &mut R) -> Option<u64> {
        if self.finished {
            return None;
        }
        const FAIR_WINDOW: u64 = 10;
        let slot = self.next_slot;
        let n_users = self.engine.users.len();
        let collector_full_pass = self.collector_full_pass;
        let tables_enabled = self.tables_enabled;
        let use_soa = self.use_soa;
        let Self {
            engine: eng,
            faults,
            fairness_series,
            fairness_window_series,
            power_series_j,
            fairness_scratch,
            window_delivered,
            window_need,
            slots_run,
            watching,
            done_watching,
            retired,
            retired_at,
            live,
            arrival_queue,
            entered,
            raw,
            snapshots,
            alloc,
            deliveries,
            fault_notes,
            v_scratch,
            cap_hint,
            soa,
            ..
        } = self;

        // Admit due arrivals into the live set: pop every entry due by
        // this slot. An entry a live reschedule left behind (the user
        // entered already, or now arrives later under a fresh entry) is
        // dropped.
        while let Some(&Reverse((due, i))) = arrival_queue.peek() {
            if due > slot {
                break;
            }
            arrival_queue.pop();
            if !entered[i] && eng.users[i].arrival_slot <= slot {
                // `live` stays ascending, so iteration (and FP
                // summation) order matches the reference loop's plain
                // 0..n walk.
                merge_ascending(live, &[i]);
                entered[i] = true;
            }
        }
        // Under admission the previous slot's tick admitted these for
        // this slot — the gate's only input.
        if let Some(adm) = eng.admission.as_ref() {
            merge_ascending(live, &adm.admitted);
            for &i in &adm.admitted {
                entered[i] = true;
            }
        }

        *slots_run = slot + 1;
        let cap = eng.capacity.capacity(slot);
        let bs_cap_units = faults.adjust_cap_units(slot, eng.units.bs_cap_units(cap, eng.cfg.tau));
        rec.begin_slot(slot, bs_cap_units);
        if faults.enabled() && rec.enabled() {
            fault_notes.clear();
            faults.notes_into(slot, fault_notes);
            for note in fault_notes.iter() {
                rec.record_fault(note);
            }
        }
        eng.receiver.ingest_slot(slot);

        // Client-side slot advance (Eq. 7/8) and ground-truth state.
        // Every live user has arrived (the gate above), and each user's
        // signal block is anchored at their final arrival slot: a user
        // entering at slot `a` refills at `a`, `a + 32`, …, so the
        // window is always current and pre-arrival slots draw no
        // samples at all.
        for &i in live.iter() {
            let u = &mut eng.users[i];
            debug_assert!(slot >= u.arrival_slot, "live user must have arrived");
            let block_off = ((slot - u.arrival_slot) % SIG_BLOCK_SLOTS as u64) as usize;
            if block_off == 0 {
                u.signal.sample_into(slot, &mut u.sig_block);
                u.sig_samples += SIG_BLOCK_SLOTS as u64;
                if tables_enabled {
                    // One batch-kernel pass per block: the next
                    // SIG_BLOCK_SLOTS slots read pure table entries.
                    eng.collector
                        .link_caps_into(&u.sig_block, v_scratch, &mut u.cap_block);
                }
            }
            u.cur_signal = u.sig_block[block_off];
            if tables_enabled {
                cap_hint[i] = u.cap_block[block_off];
            }
            if faults.enabled() {
                // Faults perturb state, never RNG streams: the raw
                // sample above already advanced the generator.
                u.cur_signal = faults.adjust_signal(slot, i, u.cur_signal);
            }
            // Gateway-advertised demand: the ABR rung rate when
            // clients are installed (single-rung = the native rate,
            // bitwise), else the declared/session rate.
            let abr_rate = eng.abr.as_ref().map(|a| a.clients[i].rate_kbps);
            if slot >= u.departure_slot || (faults.enabled() && faults.departed(slot, i)) {
                // Mid-stream departure — workload churn or the fault
                // taxonomy's perturbation form: the client abandons
                // playback and the origin stops fetching for them.
                // Both calls are idempotent, so the latched window
                // check is safe to re-apply every slot, and a
                // `u64::MAX` departure slot leaves the run untouched.
                u.session.cancel_remaining();
                u.playback.abandon();
            }
            let outcome = u.playback.begin_slot();
            if outcome.active {
                u.active_slots += 1;
            }
            raw[i] = RawUserState {
                signal: u.cur_signal,
                rate_kbps: abr_rate.unwrap_or_else(|| {
                    u.declared_rate_kbps
                        .unwrap_or_else(|| u.session.rate_at(slot))
                }),
                buffer_s: outcome.occupancy_s,
                remaining_kb: u.session.remaining_kb(),
                active: outcome.active,
                idle_s: u.rrc.idle_seconds(),
                rrc_state: u.rrc.state(),
            };
        }

        // Gateway pipeline (all writes go into the reused buffers).
        // The noise-free collector only recomputes live entries; the
        // first slot (and a noisy collector, whose RNG stream must
        // stay per-user aligned) takes the full pass.
        if collector_full_pass || snapshots.len() != n_users {
            if use_soa {
                eng.collector
                    .snapshot_into_soa(slot, raw.as_slice(), snapshots, soa);
            } else {
                eng.collector.snapshot_into(slot, raw.as_slice(), snapshots);
            }
        } else {
            eng.collector.snapshot_refresh_soa(
                slot,
                raw.as_slice(),
                live.as_slice(),
                tables_enabled.then_some(&cap_hint[..]),
                snapshots,
                use_soa.then_some(&mut *soa),
            );
        }
        let ctx = SlotContext {
            slot,
            tau: eng.cfg.tau,
            delta_kb: eng.cfg.delta_kb,
            bs_cap_units,
            users: snapshots.as_slice(),
            soa: use_soa.then_some(&*soa),
        };
        if rec.enabled() {
            let t0 = std::time::Instant::now();
            eng.scheduler.allocate_into(&ctx, alloc);
            rec.record_sched_latency_ns(t0.elapsed().as_nanos() as u64);
            rec.record_alloc(&alloc.0);
            if let Some(q) = eng.scheduler.queue_values() {
                rec.record_queues(q);
            }
            let deg = eng.scheduler.degradations();
            if !deg.is_empty() {
                rec.record_degradations(deg);
            }
        } else {
            eng.scheduler.allocate_into(&ctx, alloc);
        }
        eng.transmitter
            .transmit_into(&ctx, &*alloc, &mut eng.receiver, deliveries);

        // Device-side accounting (Eq. 3/4/5) and client delivery.
        let mut slot_energy_mj = 0.0;
        let mut in_system = 0u64;
        fairness_scratch.clear();
        let mut any_retired = false;
        for &i in live.iter() {
            let u = &mut eng.users[i];
            debug_assert!(slot >= u.arrival_slot, "live user must have arrived");
            let d = &deliveries[i];
            let r = &raw[i];
            let slot_e = if d.kb > 0.0 {
                let accepted = u.session.deliver(d.kb);
                debug_assert!(
                    (accepted - d.kb).abs() < 1e-6,
                    "transmitter should never over-deliver"
                );
                // Client playback always advances by the *true*
                // encoding rate regardless of what the gateway thinks
                // — under ABR that is the rung rate (lower rungs
                // stretch delivered KB into more playback seconds).
                if let Some(a) = eng.abr.as_mut() {
                    u.playback.deliver(accepted, a.clients[i].rate_kbps);
                    let inp = AbrInputs {
                        buffer_s: r.buffer_s,
                        predicted_kbps: snapshots[i].link_cap_units as f64 * eng.cfg.delta_kb
                            / eng.cfg.tau,
                    };
                    a.clients[i].on_delivery(
                        accepted,
                        u.session.fully_fetched(),
                        &a.spec.ladder,
                        &a.spec.policy,
                        a.native[i],
                        a.chunk_s,
                        inp,
                    );
                } else {
                    u.playback.deliver(accepted, u.session.rate_at(slot));
                }
                // One-deep memo of the Eq. (3) kernel: `P(sig)` is a
                // pure function of the block-held RSSI, so this is the
                // same product `transmission_energy` would compute.
                if u.epk_sig.value() != u.cur_signal.value() {
                    u.epk_per_kb = eng.models.power.energy_per_kb(u.cur_signal);
                    u.epk_sig = u.cur_signal;
                }
                let e = MilliJoules(u.epk_per_kb * accepted);
                if rec.enabled() {
                    u.rrc
                        .on_transmit_observed(|f, t| rec.record_rrc_transition(i, f, t));
                } else {
                    u.rrc.on_transmit();
                }
                u.meter.record_transmission(e);
                e.value()
            } else {
                let e = if rec.enabled() {
                    u.rrc
                        .on_idle_observed(eng.cfg.tau, |f, t| rec.record_rrc_transition(i, f, t))
                } else {
                    u.rrc.on_idle(eng.cfg.tau)
                };
                u.meter.record_tail(e);
                e.value()
            };
            slot_energy_mj += slot_e;
            // Running E* estimate for admission feasibility: energy
            // per arrived-and-watching user-slot (pre-update flag, so
            // the finishing slot itself still counts).
            if let Some(adm) = eng.admission.as_mut() {
                if !done_watching[i] {
                    adm.energy_mj += slot_e;
                    adm.user_slots += 1;
                }
            }
            rec.record_user(i, slot_e, u.playback.total_rebuffer_s());
            // Fairness sample over users still fetching this slot.
            // Every consumer of these samples (the per-slot Jain
            // series and the windowed one) is behind `record_series`,
            // so plain sweeps skip the divide entirely.
            if eng.cfg.record_series && r.remaining_kb > 0.0 {
                let need_kb = (eng.cfg.tau * r.rate_kbps).min(r.remaining_kb);
                if need_kb > 0.0 {
                    fairness_scratch.push(d.kb / need_kb);
                    window_delivered[i] += d.kb;
                    window_need[i] += need_kb;
                }
            }
            if !done_watching[i] && u.session.fully_fetched() && u.playback.playback_complete() {
                done_watching[i] = true;
                *watching -= 1;
                // Membership event point: the user leaves the admission
                // tick's active population for good (`done_watching`
                // never un-flips), so the incremental aggregates shed
                // them here and never again.
                if let Some(adm) = eng.admission.as_mut() {
                    adm.n_active -= 1;
                    adm.rate_sum -= adm.rates[i];
                }
            }
            // Live-population sample for open-system telemetry:
            // arrived and still watching after this slot's accounting
            // (the count is only read through `record_live`, so the
            // NullRecorder instantiation folds it away).
            if rec.enabled() && !done_watching[i] {
                in_system += 1;
            }
            // Retire once nothing remains to account: playback is over
            // and the RRC tail has fully drained, so every further
            // slot would charge exactly 0 mJ of tail energy.
            if done_watching[i] && u.rrc.state() == RrcState::Idle {
                retired[i] = true;
                retired_at[i] = slot;
                any_retired = true;
            }
        }
        // Commit staged ABR switches in ascending user order: update
        // the rung rate, re-price the unfetched tail of the session,
        // and keep the receiver's origin-side volume bound in step.
        // Only a delivery stages a switch, so the live list (not yet
        // compacted) covers every user that can have one.
        if let Some(a) = eng.abr.as_mut() {
            for &i in live.iter() {
                if let Some(sw) = a.clients[i].apply_pending(&a.spec.ladder, a.native[i]) {
                    let delta = eng.users[i].session.rescale_remaining(sw.ratio);
                    eng.receiver.adjust_source_volume_kb(i, delta);
                    rec.record_abr_switch(i, sw.from, sw.to);
                }
            }
        }
        if any_retired {
            // Order-preserving compaction keeps iteration (and FP
            // summation) order identical to the reference loop.
            live.retain(|&i| !retired[i]);
        }

        if eng.cfg.record_series {
            if !fairness_scratch.is_empty() {
                fairness_series.push(jain_index(fairness_scratch.as_slice()));
            }
            power_series_j.push(slot_energy_mj / 1000.0);
            if (slot + 1).is_multiple_of(FAIR_WINDOW) {
                fairness_scratch.clear();
                for i in 0..n_users {
                    if window_need[i] > 0.0 {
                        fairness_scratch.push(window_delivered[i] / window_need[i]);
                    }
                }
                if !fairness_scratch.is_empty() {
                    fairness_window_series.push(jain_index(fairness_scratch.as_slice()));
                }
                window_delivered.fill(0.0);
                window_need.fill(0.0);
            }
        }
        if rec.enabled() {
            rec.record_live(in_system);
        }
        // Rule on arrivals planned for the next slot, now that this
        // slot's capacity and energy accounting are final.
        if let Some(adm) = eng.admission.as_mut() {
            admission_tick(
                adm,
                &mut eng.users,
                done_watching,
                watching,
                rec,
                slot,
                bs_cap_units,
                eng.cfg.tau,
                eng.cfg.delta_kb,
            );
        }
        rec.end_slot();

        self.next_slot = slot + 1;
        // The batch loop's exit conditions: nothing left to schedule,
        // watch, or drain — or the horizon was reached.
        if self.watching == 0 || self.next_slot >= self.engine.cfg.slots {
            self.finished = true;
        }
        Some(slot)
    }

    /// Settle end-of-run accounting and fold the final [`SimResult`] —
    /// the driver form of the batch loop's epilogue. Callable at any
    /// point; finishing early yields the result of the slots run so
    /// far.
    pub fn finish<R: SlotRecorder>(self, rec: &mut R) -> SimResult {
        rec.end_run();
        let Self {
            mut engine,
            fairness_series,
            fairness_window_series,
            power_series_j,
            slots_run,
            retired,
            retired_at,
            ..
        } = self;
        // Settle the idle slots the retired users sat out: each would
        // have recorded a zero-energy tail slot per remaining loop
        // iteration.
        for i in 0..engine.users.len() {
            if retired[i] {
                engine.users[i]
                    .meter
                    .record_saturated_idle_slots(slots_run - 1 - retired_at[i]);
            }
        }
        let mut result = engine.finish(
            slots_run,
            fairness_series,
            fairness_window_series,
            power_series_j,
        );
        result.telemetry = rec.summary();
        result
    }
}

/// The planned arrivals due after `after`, ascending `(slot, user)` —
/// the order every tick has ruled in. Users that never arrive
/// (`u64::MAX`: past any horizon, or rejected) are left out.
fn planned_arrivals(users: &[UserSim], after: u64) -> Vec<(u64, usize)> {
    let mut planned: Vec<(u64, usize)> = users
        .iter()
        .enumerate()
        .filter(|(_, u)| u.arrival_slot > after && u.arrival_slot != u64::MAX)
        .map(|(i, u)| (u.arrival_slot, i))
        .collect();
    planned.sort_unstable();
    planned
}

/// Merge the ascending `add` into the ascending `live` in place (the two
/// are disjoint): back to front, so it costs the tail of `live` behind
/// the first insertion plus `add`, and nothing when `add` is empty.
fn merge_ascending(live: &mut Vec<usize>, add: &[usize]) {
    let mut i = live.len();
    let mut k = i + add.len();
    live.resize(k, 0);
    for &new in add.iter().rev() {
        while i > 0 && live[i - 1] > new {
            live[k - 1] = live[i - 1];
            i -= 1;
            k -= 1;
        }
        live[k - 1] = new;
        k -= 1;
    }
}

/// The running per-user-slot E* estimate (0 until any user-slot has been
/// charged — optimistic start).
fn admission_e_star(adm: &AdmissionRuntime) -> f64 {
    if adm.user_slots == 0 {
        0.0
    } else {
        adm.energy_mj / adm.user_slots as f64
    }
}

/// Rule on one candidate given the active population *with the candidate
/// admitted* (`n_active` users whose rates sum to `rate_sum`). This is
/// the single decision expression both the O(1) incremental tick and the
/// full-rescan reference evaluate, so the two paths can only diverge
/// through their population aggregates.
fn admission_decide(
    adm: &mut AdmissionRuntime,
    j: usize,
    n_active: usize,
    rate_sum: f64,
    e_star_user: f64,
    c_kbps: f64,
    tau: f64,
) -> AdmissionDecision {
    let n = n_active as f64;
    let r_bar = rate_sum / n;
    // Per-user service slack ε̂ = τ·(C/(n·r̄) − 1): seconds of
    // playback headroom per user-slot under an even capacity split.
    let eps_s = tau * (c_kbps / (n * r_bar) - 1.0);
    // Theorem 1 bound estimates with the candidate counted in; the
    // aggregate forms take Σ-quantities, so the per-user estimates
    // are scaled up by n going in and back down coming out.
    let b = drift_bound_b(n_active, tau, tau);
    let phi_hat = energy_upper_bound(e_star_user * n, b, adm.v) / n;
    let omega_hat = if eps_s > 0.0 {
        rebuffer_upper_bound(b, adm.v, e_star_user * n, n * eps_s) / n
    } else {
        // Non-positive slack: Theorem 1's bound does not exist.
        f64::INFINITY
    };
    let ctx = AdmissionContext {
        eps_s,
        omega_hat_s: omega_hat,
        phi_hat_mj: phi_hat,
    };
    adm.ctl.decide(j, &ctx)
}

/// Apply one admission ruling to the schedule: deferred users are pushed
/// back a slot, rejected users are cancelled before ever going live (the
/// radio stays cold and they stop counting toward the watch count).
/// Rejected users were never in the active population, so the aggregates
/// are untouched here; the admit arm (aggregates, gate) and the carry
/// list are the incremental tick's own business.
fn admission_apply(
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    j: usize,
    next_slot: u64,
    decision: AdmissionDecision,
) {
    match decision {
        AdmissionDecision::Admit => {}
        AdmissionDecision::Defer => users[j].arrival_slot = next_slot + 1,
        AdmissionDecision::Reject => {
            users[j].arrival_slot = u64::MAX;
            users[j].session.cancel_remaining();
            users[j].playback.abandon();
            done_watching[j] = true;
            *watching -= 1;
        }
    }
}

/// One end-of-slot admission pass: rule on every planned arrival due at
/// the next slot, evaluating each candidate against the Lyapunov bound
/// estimates *as they would be with the candidate admitted* (candidates
/// this pass already admitted count toward later candidates' load).
///
/// Runs in the serial end-of-slot region of every loop (the driver's
/// step, the sharded loop's phase D), right before `end_slot`, so the
/// decision uses the slot's final capacity and energy accounting and its
/// records land on the decision slot. Each candidate costs O(1): the
/// active population is read off the incrementally maintained
/// `n_active`/`rate_sum` aggregates instead of a per-candidate rescan,
/// and the candidates come off one queue — the carry list of the last
/// tick's deferrals merged with the planned arrivals that just came due,
/// in ascending `(slot, user)` order. A candidate enters the arrival
/// gate (`admitted`) only when admitted, so a user deferred thirty times
/// costs thirty rulings and nothing else. The reference loop runs the
/// naive form, [`admission_tick_reference`], pinned equal by the
/// admission property pack.
#[allow(clippy::too_many_arguments)]
fn admission_tick<R: SlotRecorder>(
    adm: &mut AdmissionRuntime,
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    rec: &mut R,
    slot: u64,
    bs_cap_units: u64,
    tau: f64,
    delta_kb: f64,
) {
    let next_slot = slot + 1;
    // The gate consumed the previous tick's admits at the top of this
    // slot.
    adm.admitted.clear();
    // Every carried user is due exactly `next_slot`; planned entries are
    // already in `(slot, user)` order.
    let mut candidates = std::mem::take(&mut adm.candidates);
    candidates.clear();
    let mut carried = 0;
    while let Some(&(due, j)) = adm.planned.get(adm.planned_next) {
        if due > next_slot {
            break;
        }
        while carried < adm.carry.len() && (next_slot, adm.carry[carried]) < (due, j) {
            candidates.push(adm.carry[carried]);
            carried += 1;
        }
        candidates.push(j);
        adm.planned_next += 1;
    }
    candidates.extend_from_slice(&adm.carry[carried..]);
    adm.carry.clear();
    // Slot-s capacity in KB/s.
    let c_kbps = bs_cap_units as f64 * delta_kb / tau;
    let e_star_user = admission_e_star(adm);
    for &j in &candidates {
        debug_assert!(users[j].arrival_slot <= next_slot, "candidate not due");
        // Population with the candidate admitted: the maintained active
        // population (which already includes the candidates this pass
        // admitted) plus `j` itself — `j` is never a member yet, since
        // its arrival slot is the next slot.
        let n_active = adm.n_active + 1;
        let rate_sum = adm.rate_sum + adm.rates[j];
        let decision = admission_decide(adm, j, n_active, rate_sum, e_star_user, c_kbps, tau);
        match decision {
            AdmissionDecision::Admit => {
                // Arrival commit: the event point where `j` joins the
                // active population (and counts toward later
                // candidates) and enters the arrival gate.
                adm.n_active += 1;
                adm.rate_sum += adm.rates[j];
                adm.admitted.push(j);
            }
            AdmissionDecision::Defer => adm.carry.push(j),
            AdmissionDecision::Reject => {}
        }
        admission_apply(users, done_watching, watching, j, next_slot, decision);
        rec.record_admission(j, decision);
    }
    adm.candidates = candidates;
}

/// The full-rescan population count the incremental aggregates replace:
/// users in the system at `next_slot` (arrived, not finished) plus the
/// candidates this pass already admitted (the `admitted` mask), plus the
/// candidate `j` itself. O(n_users) per candidate — kept as the
/// executable specification for `n_active`/`rate_sum`, run by the
/// reference loop and pinned against the incremental path by the
/// admission property pack.
fn admission_aggregates_reference(
    adm: &AdmissionRuntime,
    users: &[UserSim],
    done_watching: &[bool],
    admitted: &[bool],
    j: usize,
    next_slot: u64,
) -> (usize, f64) {
    let mut n_active = 1usize;
    let mut rate_sum = adm.rates[j];
    for (i, u) in users.iter().enumerate() {
        if i == j || done_watching[i] {
            continue;
        }
        if u.arrival_slot < next_slot || admitted[i] {
            n_active += 1;
            rate_sum += adm.rates[i];
        }
    }
    (n_active, rate_sum)
}

/// [`admission_tick`] in naive form — identical ruling order and decision
/// expression, but the candidates are found by scanning every user for an
/// arrival due at the next slot (deferred or planned, it reads the same),
/// and each candidate's population aggregates come from
/// [`admission_aggregates_reference`] instead of the running counters
/// (neither of which this form maintains). The reference slot loop runs
/// this, keeping the O(n_users) scans alive as the specification the hot
/// paths' queue and counters are pinned against.
#[allow(clippy::too_many_arguments)]
fn admission_tick_reference<R: SlotRecorder>(
    adm: &mut AdmissionRuntime,
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    rec: &mut R,
    slot: u64,
    bs_cap_units: u64,
    tau: f64,
    delta_kb: f64,
) {
    let next_slot = slot + 1;
    // Arrivals at slot 0 are admitted by fiat, every later one is ruled
    // on the slot before it, so "due by the next slot and not yet ruled"
    // is "due exactly the next slot".
    let candidates: Vec<usize> = (0..users.len())
        .filter(|&j| users[j].arrival_slot == next_slot)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let c_kbps = bs_cap_units as f64 * delta_kb / tau;
    let e_star_user = admission_e_star(adm);
    // Per-tick admitted mask: O(1) membership for the rescan.
    let mut admitted = vec![false; users.len()];
    for j in candidates {
        let (n_active, rate_sum) =
            admission_aggregates_reference(adm, users, done_watching, &admitted, j, next_slot);
        let decision = admission_decide(adm, j, n_active, rate_sum, e_star_user, c_kbps, tau);
        if decision == AdmissionDecision::Admit {
            admitted[j] = true;
        }
        admission_apply(users, done_watching, watching, j, next_slot, decision);
        rec.record_admission(j, decision);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::telemetry::TraceRecorder;
    use jmso_gateway::bs::ConstantCapacity;
    use jmso_gateway::{CollectorSpec, OriginModel};
    use jmso_media::VideoSession;
    use jmso_radio::signal::ConstantSignal;
    use jmso_radio::{KbPerSec, LinearRssiThroughput};
    use jmso_sched::DefaultMax;

    fn small_engine(
        n: usize,
        video_kb: f64,
        rate: f64,
        sig: f64,
        cap_kbps: f64,
        slots: u64,
        scheduler: Box<dyn Scheduler>,
    ) -> Engine {
        let models = CrossLayerModels::paper();
        let cfg = EngineConfig {
            tau: 1.0,
            delta_kb: 50.0,
            slots,
            record_series: true,
        };
        let signals: Vec<SignalKind> = (0..n)
            .map(|_| SignalKind::Constant(ConstantSignal(Dbm(sig))))
            .collect();
        let sessions: Vec<VideoSession> =
            (0..n).map(|_| VideoSession::cbr(video_kb, rate)).collect();
        let receiver = DataReceiver::new(n, OriginModel::Infinite, cfg.tau);
        let collector = InformationCollector::new(
            CollectorSpec::perfect(),
            LinearRssiThroughput::paper(),
            UnitParams::new(cfg.delta_kb),
            cfg.tau,
            n,
            1,
        );
        Engine::new(
            signals,
            sessions,
            scheduler,
            Box::new(ConstantCapacity(KbPerSec(cap_kbps))),
            receiver,
            collector,
            models,
            cfg,
        )
    }

    /// Single user, ample capacity: fetches everything, watches everything,
    /// stalls only at startup (shard usable next slot ⇒ exactly 1 s).
    #[test]
    fn single_user_happy_path() {
        let r = small_engine(
            1,
            5_000.0,
            500.0,
            -70.0,
            20_000.0,
            200,
            Box::new(DefaultMax::new()),
        )
        .run();
        let u = &r.per_user[0];
        assert!(u.playback_complete, "10 s video in 200 slots");
        assert!((u.fetched_kb - 5_000.0).abs() < 1e-6);
        assert!((u.watched_s - 10.0).abs() < 1e-9);
        // Startup stall: slot 0 has no data (delivered during slot 0,
        // playable slot 1).
        assert!((u.rebuffer_s - 1.0).abs() < 1e-9);
        assert!(r.slots_run < 200, "early exit after completion");
    }

    /// Byte conservation: fetched ≤ video size; watched ≤ fetched/rate.
    #[test]
    fn conservation() {
        let r = small_engine(
            3,
            2_000.0,
            400.0,
            -80.0,
            1_000.0,
            300,
            Box::new(DefaultMax::new()),
        )
        .run();
        for u in &r.per_user {
            assert!(u.fetched_kb <= u.video_kb + 1e-6);
            assert!(u.watched_s <= u.fetched_kb / u.rate_kbps + 1e-6);
        }
    }

    /// Starved capacity ⇒ rebuffering accrues; energy split contains tail.
    #[test]
    fn starvation_accrues_rebuffering() {
        // 2 users needing 400 KB/s each through a 300 KB/s BS.
        let r = small_engine(
            2,
            20_000.0,
            400.0,
            -80.0,
            300.0,
            150,
            Box::new(DefaultMax::new()),
        )
        .run();
        assert!(r.total_rebuffer_s() > 10.0, "must stall hard");
        // User order bias: user 0 gets served first every slot.
        assert!(r.per_user[0].rebuffer_s < r.per_user[1].rebuffer_s);
        // The starved user idles some slots ⇒ tail energy present.
        assert!(r.per_user[1].energy.tail.value() > 0.0);
    }

    /// Energy accounting matches Eq. (3) for a deterministic run.
    #[test]
    fn transmission_energy_matches_eq3() {
        let r = small_engine(
            1,
            1_000.0,
            500.0,
            -80.0,
            20_000.0,
            50,
            Box::new(DefaultMax::new()),
        )
        .run();
        let u = &r.per_user[0];
        // All 1000 KB at −80 dBm: P = −0.167 + 1560/2303 mJ/KB.
        let p = -0.167 + 1560.0 / 2303.0;
        assert!((u.energy.transmission.value() - p * 1_000.0).abs() < 1e-6);
    }

    /// Tail saturates after the session: an idle horizon costs at most one
    /// full tail (Pd·T1 + Pf·T2 ≈ 3974 mJ).
    #[test]
    fn tail_saturates_after_session() {
        let r = small_engine(
            1,
            500.0,
            500.0,
            -70.0,
            20_000.0,
            1_000,
            Box::new(DefaultMax::new()),
        )
        .run();
        let u = &r.per_user[0];
        let full_tail = 732.83 * 3.29 + 388.88 * 4.02;
        assert!(u.energy.tail.value() <= full_tail + 1e-6);
    }

    /// Series recording produces bounded fairness samples and positive
    /// power samples.
    #[test]
    fn series_are_sane() {
        let r = small_engine(
            4,
            3_000.0,
            450.0,
            -80.0,
            900.0,
            100,
            Box::new(DefaultMax::new()),
        )
        .run();
        assert!(!r.fairness_series.is_empty());
        for f in &r.fairness_series {
            assert!((0.0..=1.0 + 1e-9).contains(f));
        }
        assert_eq!(r.power_series_j.len() as u64, r.slots_run);
        assert!(r.power_series_j.iter().all(|p| *p >= 0.0));
    }

    /// The active-slot counter equals playback duration + stalls for a
    /// completing user.
    #[test]
    fn active_slots_consistent() {
        let r = small_engine(
            1,
            5_000.0,
            500.0,
            -70.0,
            20_000.0,
            200,
            Box::new(DefaultMax::new()),
        )
        .run();
        let u = &r.per_user[0];
        // Active slots cover watching + stalling: ⌈10 s watched + 1 s stall⌉.
        assert_eq!(u.active_slots, 11);
    }

    /// Pause-and-resume at a mid-run slot reproduces the straight run's
    /// per-user results exactly.
    #[test]
    fn pause_resume_matches_straight_run() {
        let mk = || {
            small_engine(
                2,
                10_000.0,
                400.0,
                -80.0,
                700.0,
                150,
                Box::new(DefaultMax::new()),
            )
        };
        let straight = mk().run();
        let paused = mk()
            .run_core(
                &mut NullRecorder,
                &NoFaults,
                None,
                CkptMode::PauseAt { slot: 17 },
            )
            .expect("pause run");
        let ck = match paused {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => unreachable!("must pause before the early exit"),
        };
        assert_eq!(ck.slot(), 17);
        // Round-trip through JSON like the sidecar file would.
        let ck = EngineCheckpoint::from_json(&ck.to_json().expect("serialize")).expect("parse");
        let resumed = mk()
            .resume_with(&mut NullRecorder, &NoFaults, &ck)
            .expect("resume run");
        assert_eq!(straight.slots_run, resumed.slots_run);
        for (a, b) in straight.per_user.iter().zip(&resumed.per_user) {
            assert_eq!(a.rebuffer_s, b.rebuffer_s);
            assert_eq!(a.fetched_kb, b.fetched_kb);
            assert_eq!(a.energy.total().value(), b.energy.total().value());
            assert_eq!(a.idle_slots, b.idle_slots);
        }
        assert_eq!(straight.power_series_j, resumed.power_series_j);
        assert_eq!(straight.fairness_series, resumed.fairness_series);
    }

    /// A rejected checkpoint (wrong user count) surfaces a typed restore
    /// error instead of panicking.
    #[test]
    fn resume_rejects_wrong_shape() {
        let paused = small_engine(
            2,
            3_000.0,
            400.0,
            -80.0,
            700.0,
            120,
            Box::new(DefaultMax::new()),
        )
        .run_core(
            &mut NullRecorder,
            &NoFaults,
            None,
            CkptMode::PauseAt { slot: 5 },
        )
        .expect("pause run");
        let ck = match paused {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => unreachable!("must pause"),
        };
        let err = small_engine(
            3,
            3_000.0,
            400.0,
            -80.0,
            700.0,
            120,
            Box::new(DefaultMax::new()),
        )
        .resume_with(&mut NullRecorder, &NoFaults, &ck)
        .expect_err("shape mismatch must be rejected");
        assert!(err.to_string().contains("restore"));
    }

    /// The sharded runner reproduces the serial loop bit-for-bit — results
    /// *and* full trace bytes — at every width, including the degenerate
    /// width-1 clamp (the shard_properties suite widens this to churny
    /// open-system scenarios).
    #[test]
    fn sharded_matches_serial_bitwise() {
        // Scheduler-latency quantiles are wall-clock measurements; zero
        // them so the equality below covers every deterministic field.
        fn scrub(mut r: SimResult) -> SimResult {
            if let Some(t) = r.telemetry.as_mut() {
                t.sched_ns_p50 = 0;
                t.sched_ns_p95 = 0;
                t.sched_ns_p99 = 0;
                t.sched_ns_max = 0;
            }
            r
        }
        let mk = || {
            small_engine(
                5,
                4_000.0,
                400.0,
                -80.0,
                900.0,
                200,
                Box::new(DefaultMax::new()),
            )
        };
        let mut rec = TraceRecorder::new().with_live_counts();
        let serial = scrub(mk().run_with(&mut rec));
        let serial_trace = rec.into_trace("DefaultMax").to_jsonl();
        let pool = crate::pool::WorkerPool::new(3);
        for shards in [1usize, 2, 4] {
            let mut rec = TraceRecorder::new().with_live_counts();
            let sharded = scrub(mk().run_sharded_on(&pool, shards, &mut rec));
            assert_eq!(serial, sharded, "width {shards}");
            assert_eq!(
                serial_trace,
                rec.into_trace("DefaultMax").to_jsonl(),
                "trace bytes at width {shards}"
            );
        }
    }
}
