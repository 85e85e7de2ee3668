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
//! # One slot, four phases, a lane per cell
//!
//! Per slot the paper couples users through one constraint only, Eq. (2)
//! `Σφᵢ(n) ≤ C(n)`; everything else is per user. And it runs one
//! scheduler per base station, "managing the resources of each BS
//! independently" (§III-A): across cells nothing changes but *which*
//! budget `C_c(n)` a user's grant counts against. So the slot is written
//! once, as four phase functions over a [`SlotDriver`]'s state, and the
//! budget side is split per cell (a *lane* is one cell's scheduler,
//! capacity model, transmitter, budget and grants):
//!
//! | phase | does |
//! |---|---|
//! | A | arrival gate; for every live user the signal block + Eq. (1) cap table, the Eq. (7)/(8) playback advance and the ground-truth row; for a pass-through collector the snapshot and SoA rows |
//! | B | with more than one lane the slot's mobility (handovers drawn, member lists and the left cell's row updated); every lane's Eq. (2) budget (fault-adjusted), fault notes, origin ingest; the collector pass when it is not pass-through; per lane its rows (with more than one lane), `allocate_into` and `transmit_into` out of the one receiver; scheduler latency, grants, queues and degradations to the recorder in cell order |
//! | C | delivery, ABR staging, Eq. (3)–(5) accounting; energy, rebuffering, RRC events and `done` flips *staged* |
//! | D | replay of what C staged into the recorder, E\* and series folds, ABR commits, live-list compaction; the admission tick — the arrivals that came due join a waiting room, the rule is evaluated O(log n) times per admit, the users whose deferral cap ran out are rejected, and nobody deferred is visited (their rulings go to an enabled recorder only) |
//!
//! A [`Scenario`](crate::scenario::Scenario) run has one lane, which
//! schedules straight off the columns' rows; a
//! [`MultiCellScenario`](crate::multicell::MultiCellScenario) run has
//! `n_cells`, and phases A, C and D do not know: queues, playback, radios
//! and the receiver's flows follow the user. [`SlotDriver::step`] — every
//! batch run, checkpointed run, multicell run and the live daemon — calls
//! the phases back to back on the calling thread, and is the only slot
//! loop. A run is sequential; parallelism is across runs
//! ([`crate::sweep`]), which share nothing (DESIGN.md §11). No input
//! selects another loop.
//!
//! There is one way in. [`Scenario`](crate::scenario::Scenario)'s builder
//! validates, compiles the fault spec and builds the engine, and every
//! public run method is a cadence over the driver it returns: step to the
//! end, pause at a slot, or write a sidecar every k slots.
//! The engine carries the scenario's compiled [`FaultPlan`] — absent when
//! it declares no faults, so a fault-free slot pays a branch per hook
//! point — which perturbs *state* strictly after the RNG streams have
//! been drawn, so a faulted run consumes the random sequences of its
//! fault-free twin. Between two steps the driver can capture everything
//! into an [`EngineCheckpoint`], from which a fresh driver resumes
//! bit-identically (signal RNGs fast-forwarded by replaying the recorded
//! sample counts). Open-system churn is a workload property: each user
//! has an arrival and a departure slot from the compiled
//! [`ChurnPlan`](crate::arrivals::ChurnPlan).
//!
//! `Engine::run_reference` is the executable specification: the plain
//! all-users, sample-per-slot loop, which must produce identical results
//! and trace bytes.

use crate::error::{atomic_write, CheckpointError, ScenarioError, SimError};
use crate::faults::FaultPlan;
use crate::results::{SimResult, UserResult};
use crate::telemetry::SlotRecorder;
use crate::waiting_room::{MonotoneVerdict, WaitingRoom};
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
use jmso_radio::{Dbm, EnergyMeter, KbPerSec, MilliJoules, PowerModel, RrcMachine};
use jmso_sched::{drift_bound_b, energy_upper_bound, rebuffer_upper_bound, CrossLayerModels};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::Path;

/// Slots sampled per [`SignalModel::sample_into`] block in the hot loop.
const SIG_BLOCK_SLOTS: usize = 32;

/// [`UserSim::window`] of a user who has not entered a live list.
const NO_WINDOW: u32 = u32::MAX;

/// Per-user simulation state: the pool's row, built for every user id
/// and written only for the users a run serves. What only a live
/// session needs — the signal it sees, the 32-slot windows that signal
/// is read from, the Eq. (3) memo — is in the driver's slab
/// ([`Window`]), and the arrival and departure slots, which the
/// admission tick and phase A read for users whose rows they do not
/// otherwise touch, are dense columns ([`Columns::arrival`] and
/// [`Columns::departure`]). A row nothing writes keeps the result the
/// build folded it to ([`LoopState::per_user`]).
///
/// The row is 328 bytes, so a 100 000-user pool is 32.8 MB: under the
/// 32 MiB ceiling of glibc's adaptive mmap threshold, so a process
/// that runs one pool after another builds and releases it in heap
/// pages it already holds rather than mapping and unmapping them.
/// `pool_row_size` pins it.
struct UserSim {
    signal: SignalKind,
    session: VideoSession,
    playback: ClientPlayback,
    rrc: RrcMachine,
    meter: EnergyMeter,
    /// This user's place in the slab, [`LiveState::windows`], taken on
    /// first entry into a live list and kept to the end of the run;
    /// [`NO_WINDOW`] before.
    window: u32,
    active_slots: u64,
    /// Rate the gateway believes (e.g. DPI-extracted manifest rate); when
    /// set it overrides the instantaneous session rate in snapshots.
    declared_rate_kbps: Option<f64>,
    /// Signal-model samples drawn so far. Checkpoint restore fast-forwards
    /// the per-user RNG by replaying exactly this many samples (the
    /// block-sampling contract makes replay order irrelevant).
    sig_samples: u64,
}

impl UserSim {
    /// The one fold from a row to its [`UserResult`].
    fn result(&self) -> UserResult {
        UserResult {
            rebuffer_s: self.playback.total_rebuffer_s(),
            stall_slots: self.playback.stall_slots(),
            startup_slots: self.playback.startup_slots(),
            watched_s: self.playback.played_s(),
            playback_complete: self.playback.playback_complete(),
            fetched_kb: self.session.received_kb(),
            energy: self.meter.breakdown(),
            active_slots: self.active_slots,
            tx_slots: self.meter.slots_transmitting(),
            idle_slots: self.meter.slots_idle(),
            rate_kbps: self.session.bitrate.mean_rate(),
            video_kb: self.session.total_kb,
        }
    }
}

/// A live session's radio state, in the driver's slab from the user's
/// first entry into a live list to the end of the run: the signal the
/// user sees and the windows it is read from.
struct Window {
    /// The user it belongs to: a slab lists who ever went live.
    user: usize,
    /// This slot's RSSI: the window's sample, after any fault.
    cur_signal: Dbm,
    /// Signal at which `epk_per_kb` was computed. Seeded (and reset on
    /// restore) to NaN, which compares unequal to everything, so the
    /// first transmit recomputes; derived state, not checkpointed.
    epk_sig: Dbm,
    /// Memoized Eq. (3) per-KB transmission energy at `epk_sig`.
    epk_per_kb: f64,
    /// Block-sampled RSSI for the 32 slots from the latest refill, which
    /// happens whenever a live user's slot offset from their arrival
    /// crosses a block boundary.
    sig: [Dbm; SIG_BLOCK_SLOTS],
    /// Eq. (1) link caps derived from `sig` by the batch throughput
    /// kernel at the refill. Only maintained (and only sound) on the
    /// fault-free pass-through path — see `Mode::tables`; not
    /// checkpointed, recomputed from the restored `sig` on resume.
    ///
    /// Transmission energy deliberately has no such table: the link cap is
    /// read every slot for every user (the table is a one-for-one batch of
    /// the scalar computes it replaced), but `P(sig)` is only needed on
    /// the user-slots that actually transmit, so an eager per-block power
    /// pass can cost more divisions than it saves. Instead `epk_sig` /
    /// `epk_per_kb` memoize the scalar kernel one-deep at transmit time:
    /// strictly fewer evaluations than computing per transmit (the RSSI
    /// holds for up to [`SIG_BLOCK_SLOTS`] slots) and never a wasted one.
    cap: [u64; SIG_BLOCK_SLOTS],
}

impl Window {
    /// The state every row was built with, before any sample: what a
    /// user who never went live exports.
    fn new(user: usize) -> Self {
        Self {
            user,
            cur_signal: Dbm(0.0),
            epk_sig: Dbm(f64::NAN),
            epk_per_kb: 0.0,
            sig: [Dbm(0.0); SIG_BLOCK_SLOTS],
            cap: [0; SIG_BLOCK_SLOTS],
        }
    }
}

/// Engine-level knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineConfig {
    /// Slot length τ, seconds.
    pub(crate) tau: f64,
    /// Frame length δ, KB.
    pub(crate) delta_kb: f64,
    /// Horizon Γ in slots.
    pub(crate) slots: u64,
    /// Record per-slot fairness / power series (needed for CDF figures;
    /// off for plain sweeps to save memory).
    pub(crate) record_series: bool,
}

/// What [`Scenario::run_until`](crate::scenario::Scenario::run_until)
/// produced.
// `Done` carries the full `SimResult` by value on purpose: it is the
// common case and every caller immediately consumes it.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    /// The run reached the horizon (or early exit) and finished.
    Done(SimResult),
    /// The run stopped at the requested slot; feed the checkpoint to a
    /// freshly built driver to continue bit-identically.
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

/// What the slot carries from phase to phase for the users in the cell:
/// the live list, the arrival queue, the radio windows, and what phase C
/// stages for phase D.
struct LiveState {
    /// Users whose accounting can still move, ascending (in-order
    /// insertion, order-preserving compaction) — the reference loop's
    /// plain `0..n` order, so every floating-point fold over them sums in
    /// that order.
    live: Vec<usize>,
    /// Min-heap of `(arrival_slot, user)` for users not yet live, drained
    /// at the top of phase A. A live `set_arrival` reschedule pushes a
    /// fresh entry and leaves the old one behind to be dropped on pop.
    /// Empty under feasibility admission, whose tick feeds the gate
    /// instead.
    arrival_queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// RRC transitions staged by phase C, `(user, from, to)` in live-walk
    /// order, replayed into the recorder by phase D.
    events: Vec<(usize, RrcState, RrcState)>,
    /// Users whose `done` flag flipped in phase C, in live-walk order —
    /// phase D replays the admission aggregate decrements (and the
    /// pre-flip E* membership test) from these.
    flips: Vec<usize>,
    /// The radio windows of the users who ever went live, in the order
    /// they first did ([`UserSim::window`] indexes it). Its room is what
    /// the build can foresee going live, so it does not grow mid-run.
    windows: Vec<Window>,
    /// Batch-throughput scratch for the per-block cap-table refill.
    v_scratch: [f64; SIG_BLOCK_SLOTS],
    /// Users that finished watching in phase C.
    watching_dec: usize,
    /// Arrived-and-still-watching users after phase C (only counted when
    /// a recorder is attached).
    in_system: u64,
    /// Set by phase C when a user retired; phase D compacts `live` after
    /// it has replayed the retiring slot's records.
    any_retired: bool,
}

/// The per-user columns of a run, one row per user id, sized once when
/// the driver is built and never moved or resized while it lives.
struct Columns {
    /// Moved out of the [`Engine`] for the driver's lifetime; the
    /// finish folds the rows the run wrote and releases the rest.
    users: Vec<UserSim>,
    /// Slot at which each user's session starts (0 = at the beginning,
    /// `u64::MAX` = never: past any horizon, or rejected). A deferral
    /// moves it a slot on, so the admission tick writes this column and
    /// not the rows.
    arrival: Vec<u64>,
    /// Slot at which each user abandons their session (`u64::MAX` = they
    /// watch to completion). The open-system workload path — the
    /// first-class form of the fault taxonomy's `departure` event.
    departure: Vec<u64>,
    /// ABR client state machines, moved out of the engine's
    /// [`AbrRuntime`]; empty on fixed-bitrate runs.
    abr: Vec<AbrClient>,
    /// Ground truth handed to the collector. Rows of users that have not
    /// arrived keep their zeroed placeholder; retired users' rows freeze
    /// at their retirement-slot values.
    raw: Vec<RawUserState>,
    /// What the scheduler sees. Retired and not-yet-arrived rows
    /// advertise `remaining_kb == 0`, so every policy's usable-capacity
    /// clamp grants them nothing.
    snaps: Vec<UserSnapshot>,
    /// `(energy charged this slot in mJ, total rebuffering so far in s)`:
    /// what phase C stages for phase D's in-order folds and user records
    /// (only written when something reads it), so the replay walks this
    /// column and not the users again.
    staged: Vec<(f64, f64)>,
    /// Session fully fetched *and* watched (monotone).
    done: Vec<bool>,
    /// Left the live list: playback over and the RRC tail drained, so
    /// every further slot would charge exactly 0 mJ. The idle slots a
    /// retired user sat out are settled on their meter at `finish`.
    retired: Vec<bool>,
    retired_at: Vec<u64>,
}

/// Loop-carried state of phases B and D: the series folds, the fairness
/// window, the grants and deliveries against the slot's budgets.
struct LoopState {
    fairness_series: Vec<f64>,
    fairness_window_series: Vec<f64>,
    power_series_j: Vec<f64>,
    fairness_scratch: Vec<f64>,
    /// 10-slot accumulators for the windowed fairness view.
    window_delivered: Vec<f64>,
    window_need: Vec<f64>,
    /// The rows with a non-zero `window_need`, in the order the window
    /// first touched them: what its end folds and zeroes, in place of
    /// the pool. Derived state — a restore rebuilds it from the
    /// accumulators.
    window_rows: Vec<usize>,
    /// Rows the latest windowed-fairness fold visited (0 on a slot that
    /// does not end a window).
    fairness_rows: usize,
    slots_run: u64,
    /// Users still fetching or watching — the early-exit counter. Both
    /// predicates are monotone, so a flag per user plus this count
    /// replaces a per-slot scan.
    watching: usize,
    /// Per-user grants across cells, for the recorder: only kept with
    /// more than one lane (a lone lane's allocation is the slot's).
    grants: Vec<u64>,
    /// What each user was delivered this slot, whichever lane sent it.
    deliveries: Vec<Delivery>,
    fault_notes: Vec<String>,
    /// The slot's Eq. (2) budgets summed over the lanes, computed in
    /// phase B and read again by phase D's admission tick.
    bs_cap_units: u64,
    /// `snaps` holds what the collector reports. True from the start
    /// for a pass-through collector, whose report of a user who is not
    /// in the cell is the row the build writes; a collector that holds
    /// or perturbs reports makes it true with its first full pass.
    rows_primed: bool,
    /// Rows the latest phase B rewrote on the collector's behalf: its
    /// full pass or live-row refresh, and the mirror's fill with it.
    collector_rows: usize,
    /// Each user's result as the build folded their row. The admission
    /// tick re-folds a row it rejects — the only rows a run writes
    /// outside a live list, and nothing writes them again — and the
    /// finish the rows of the users who went live. `None` on a resumed
    /// driver, whose rows came from a sidecar and are all folded at the
    /// finish.
    per_user: Option<Vec<UserResult>>,
}

/// What shapes a slot without changing during it; copied into each phase.
#[derive(Clone, Copy)]
struct Mode {
    /// Reports equal ground truth on every slot, so phase A writes the
    /// snapshot (and SoA) rows itself; otherwise phase B runs the
    /// collector over the raw rows in user order.
    pass_through: bool,
    /// Eq. (1) is read off per-block cap tables: sound only when the
    /// reported signal is exactly the sampled one — a pass-through
    /// collector and no fault hook perturbing signals after sampling.
    /// The scalar kernel it replaces is bit-identical by construction.
    tables: bool,
    rec_enabled: bool,
    /// Phase D folds per-user energy (recorder, series or E*), so phase C
    /// stages it.
    staged: bool,
}

/// Per-run ABR machinery installed by [`Engine::set_abr`]: the spec, the
/// per-user native rates the ladder multiplies, and one client state
/// machine per user. Decisions are staged per user during delivery
/// accounting ([`AbrClient::on_delivery`]) and committed in a serial
/// ascending-user pass, so the driver and the reference loop observe
/// identical switch order.
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
/// without admission control. Its tick ([`admission_tick`]) costs the
/// arrivals that came due, the admits and the rejects, never the users
/// it defers: they wait in `waiting`, unvisited, until admitted or
/// rejected.
struct AdmissionRuntime {
    ctl: AdmissionController,
    /// Per-user native mean rate, KB/s (demand estimate for ε̂).
    rates: Vec<f64>,
    /// Lyapunov trade-off weight `V` used in the bound estimates.
    v: f64,
    /// The run's planned arrivals, ascending `(first_due, user)`: the
    /// slot each user's arrival first comes due (on restore, the arrival
    /// slot less the deferrals the user already had). The plan is
    /// compiled before the run and live reschedules are refused under
    /// admission, so a sorted list with two cursors is the whole queue:
    /// `planned_next` passes the users who came due into `waiting`, and
    /// `expire_next`, `max_defer_slots` slots behind, the users whose
    /// deferral cap ran out — rejected if still waiting.
    planned: Vec<(u64, usize)>,
    planned_next: usize,
    expire_next: usize,
    /// Users whose arrival is due and who are neither admitted nor
    /// rejected. A deferral writes nothing: each waiting user's defer
    /// count is a function of the clock (`AdmissionController::
    /// start_wait`), their arrival slot is the next slot's, and both
    /// are written when the user leaves the room or a checkpoint
    /// reads them.
    waiting: WaitingRoom,
    /// Users the latest tick admitted, ascending — the arrival gate's
    /// input for the next slot, and the only way a governed user goes
    /// live (slot-0 arrivals, admitted by fiat, start live).
    admitted: Vec<usize>,
    /// Users the latest tick rejected, ascending (buffer reused across
    /// ticks, like `admitted`, so a steady-state tick allocates
    /// nothing).
    rejected: Vec<usize>,
    /// Rulings the latest tick made (every user waiting in it) and the
    /// decision evaluations it spent on them — `SlotWork`'s counts.
    ruled: usize,
    evaluations: usize,
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
/// planned list, waiting room and gate — is derived from per-user
/// arrival slots and deferral counts and rebuilt on restore).
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

/// Which of the two Eq. (2) fault hooks scales a lane's budget (see
/// `phase_b_open`).
#[derive(Clone, Copy)]
enum CapFault {
    /// [`FaultPlan::adjust_cap_units`]: the one BS of a `Scenario` run.
    Bs,
    /// [`FaultPlan::scale_cell_cap`] for this cell of a
    /// `MultiCellScenario` run.
    Cell(usize),
}

/// One base station: what its Eq. (2) budget couples — policy, capacity
/// model, transmitter, the slot's budget and grants — and nothing per
/// user (module docs).
struct CellLane {
    scheduler: Box<dyn Scheduler>,
    capacity: Box<dyn CapacityModel>,
    transmitter: DataTransmitter,
    cap_fault: CapFault,
    /// Cached `scheduler.wants_soa()`: column upkeep re-derives unit
    /// quantities per row every slot, which row-walking policies would
    /// pay for without ever looking at the result.
    use_soa: bool,
    /// Mirror of the rows the scheduler reads: a lone lane's is sized by
    /// the first slot (`size_mirror`) or rebuilt from a checkpoint's
    /// rows, one of several by the lane's first pass over its own rows.
    soa: SnapshotSoA,
    /// The slot's Eq. (2) budget for this cell, units. Capacity models
    /// may be stateful, so each is sampled exactly once per slot.
    cap_units: u64,
    alloc: Allocation,
    /// With more than one lane, what this cell's scheduler sees: a row
    /// per user (stable ids, so per-user policy state survives handovers
    /// without resizing) — its members' as the collector reported them,
    /// everyone else's with the fields that gate a grant
    /// (`remaining_kb`, `active`, `link_cap_units`) at zero. Built on
    /// the first slot; afterwards only members' rows change, and a
    /// handover demotes the row in the cell left behind. A lone lane
    /// reads the columns' rows and delivers into the loop's buffer; its
    /// own two stay empty.
    rows: Vec<UserSnapshot>,
    deliveries: Vec<Delivery>,
}

impl CellLane {
    fn new(
        scheduler: Box<dyn Scheduler>,
        capacity: Box<dyn CapacityModel>,
        cap_fault: CapFault,
        n_users: usize,
    ) -> Self {
        Self {
            use_soa: scheduler.wants_soa(),
            scheduler,
            capacity,
            transmitter: DataTransmitter::new(),
            cap_fault,
            soa: SnapshotSoA::new(),
            cap_units: 0,
            alloc: Allocation::zeros(n_users),
            rows: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

/// Who is attached where, in a run of more than one lane: a seeded
/// memoryless handover process over the users, retired ones included —
/// they keep roaming and keep counting toward occupancy.
struct Roaming {
    /// Per-slot probability that a user hands over to another
    /// (uniformly random) cell.
    handover_prob: f64,
    attached: Vec<usize>,
    /// `members[c]` mirrors `attached` as an ascending id list, so
    /// per-cell work scales with cell population.
    members: Vec<Vec<usize>>,
    mobility: StdRng,
    handovers: u64,
    occupancy_sums: Vec<f64>,
    /// `(user, cell left)` of the current step's handovers.
    moved: Vec<(usize, usize)>,
}

impl Roaming {
    /// Users spread round-robin over `n_cells` cells.
    fn new(n_users: usize, n_cells: usize, handover_prob: f64, seed: u64) -> Self {
        let attached: Vec<usize> = (0..n_users).map(|i| i % n_cells).collect();
        let mut members = vec![Vec::new(); n_cells];
        for (i, &cell) in attached.iter().enumerate() {
            members[cell].push(i);
        }
        Self {
            handover_prob,
            attached,
            members,
            mobility: StdRng::seed_from_u64(seed ^ 0x0B17_E0CE_1100),
            handovers: 0,
            occupancy_sums: vec![0.0; n_cells],
            moved: Vec::new(),
        }
    }

    /// One slot of mobility, before any lane looks at its members: draw
    /// the handovers, move each user between the member lists, demote
    /// its row in the cell it left, and count the slot's occupancy.
    fn step(&mut self, lanes: &mut [CellLane], cfg: EngineConfig) {
        if self.handover_prob > 0.0 {
            let n_cells = lanes.len();
            self.moved.clear();
            for (i, cell) in self.attached.iter_mut().enumerate() {
                if self.mobility.random::<f64>() < self.handover_prob {
                    let mut next = self.mobility.random_range(0..n_cells - 1);
                    if next >= *cell {
                        next += 1;
                    }
                    self.moved.push((i, *cell));
                    *cell = next;
                    self.handovers += 1;
                }
            }
            for &(i, from) in &self.moved {
                let to = self.attached[i];
                let left = &mut self.members[from];
                left.remove(left.partition_point(|&m| m < i));
                let joined = &mut self.members[to];
                joined.insert(joined.partition_point(|&m| m < i), i);
                // Leaving a cell zeroes the fields that gate allocations;
                // the rest freeze harmlessly, and the mirror re-derives
                // its columns from the demoted row (the ceiling collapses
                // to 0 with the remaining bytes).
                let lane = &mut lanes[from];
                if let Some(row) = lane.rows.get_mut(i) {
                    row.remaining_kb = 0.0;
                    row.active = false;
                    row.link_cap_units = 0;
                    if lane.use_soa {
                        lane.soa.set_row(row, cfg.tau, cfg.delta_kb);
                    }
                }
            }
        }
        for (sum, m) in self.occupancy_sums.iter_mut().zip(&self.members) {
            *sum += m.len() as f64;
        }
    }
}

/// The assembled simulator for one scenario, built by the scenario's
/// builder and driven through a [`SlotDriver`].
pub(crate) struct Engine {
    users: Vec<UserSim>,
    /// The per-user arrival and departure columns, as the driver's
    /// [`Columns`] carry them.
    arrival: Vec<u64>,
    departure: Vec<u64>,
    /// One per base station; a [`SlotDriver`] takes them for its
    /// lifetime, like the users.
    lanes: Vec<CellLane>,
    /// Present exactly when there is more than one lane.
    roaming: Option<Roaming>,
    receiver: DataReceiver,
    collector: InformationCollector,
    units: UnitParams,
    models: CrossLayerModels,
    cfg: EngineConfig,
    abr: Option<AbrRuntime>,
    admission: Option<AdmissionRuntime>,
    /// The scenario's compiled fault plan; `None` when it declares none.
    pub(crate) faults: Option<FaultPlan>,
}

impl Engine {
    /// Assemble an engine from its parts: one signal, session, arrival
    /// slot and departure slot per user (sessions' volumes become each
    /// flow's origin source bound). Before their arrival slot users
    /// neither play, fetch, nor consume energy (their radio is cold); from
    /// their departure slot on (`u64::MAX` = watches to completion) they
    /// abandon playback and stop fetching — the same idempotent state
    /// change the `departure` fault applies. All-zero arrivals and
    /// all-`MAX` departures are the paper's closed, synchronized cell.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_churn(
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
        let users: Vec<UserSim> = signals
            .into_iter()
            .zip(sessions)
            .map(|(signal, session)| {
                let playback = ClientPlayback::new(session.total_playback_s(), cfg.tau);
                UserSim {
                    signal,
                    session,
                    playback,
                    // Radios start cold (fully idle): the first slot's
                    // promotion is charged with its transmission.
                    rrc: RrcMachine::new_idle(models.rrc),
                    meter: EnergyMeter::new(),
                    window: NO_WINDOW,
                    active_slots: 0,
                    declared_rate_kbps: None,
                    sig_samples: 0,
                }
            })
            .collect();
        let n = users.len();
        Self {
            users,
            arrival: arrival_slots,
            departure: departure_slots,
            lanes: vec![CellLane::new(scheduler, capacity, CapFault::Bs, n)],
            roaming: None,
            receiver,
            collector,
            units: UnitParams::new(cfg.delta_kb),
            models,
            cfg,
            abr: None,
            admission: None,
            faults: None,
        }
    }

    /// Install gateway-side declared rates (e.g. DPI-extracted manifest
    /// rates): snapshots then expose these instead of the instantaneous
    /// session rate. Client-side playback still uses the true rate.
    pub(crate) fn set_declared_rates(&mut self, rates_kbps: &[f64]) {
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
    pub(crate) fn set_abr(&mut self, spec: &AbrSpec) {
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
    /// is no earlier decision point). The tick runs at the end of the
    /// slot (phase D, and the reference loop's own).
    pub(crate) fn set_admission(&mut self, spec: &AdmissionSpec) {
        let AdmissionSpec::Feasibility { v, .. } = spec else {
            return;
        };
        // The room first: placed after the pool-sized columns below, its
        // two small blocks shift where later reps' buffers land in the
        // heap, which on the 100 000-user open system read as 10 MB more
        // peak RSS (DESIGN §14).
        let waiting = WaitingRoom::new(self.users.len());
        let rates: Vec<f64> = self
            .users
            .iter()
            .map(|u| u.session.bitrate.mean_rate())
            .collect();
        let planned = planned_arrivals(&self.arrival, 0, |_| 0);
        // Aggregates start with the slot-0 population (admitted by fiat),
        // summed in ascending user order.
        let mut n_active = 0usize;
        let mut rate_sum = 0.0f64;
        for (i, &arrival) in self.arrival.iter().enumerate() {
            if arrival == 0 {
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
            expire_next: 0,
            waiting,
            admitted: Vec::new(),
            rejected: Vec::new(),
            ruled: 0,
            evaluations: 0,
            energy_mj: 0.0,
            user_slots: 0,
            n_active,
            rate_sum,
        });
    }

    /// Serve the users from `n_cells` base stations instead of one: a
    /// lane per cell, each with its own policy and capacity model from
    /// `lane`, users attached round-robin and — with more than one cell —
    /// handing over with probability `handover_prob` per slot, drawn
    /// from a stream seeded by `seed`. Every lane's budget goes through
    /// the fault plan's per-cell hook.
    pub(crate) fn into_cells(
        mut self,
        n_cells: usize,
        handover_prob: f64,
        seed: u64,
        mut lane: impl FnMut() -> (Box<dyn Scheduler>, Box<dyn CapacityModel>),
    ) -> Self {
        let n = self.users.len();
        self.lanes = (0..n_cells)
            .map(|cell| {
                let (scheduler, capacity) = lane();
                CellLane::new(scheduler, capacity, CapFault::Cell(cell), n)
            })
            .collect();
        self.roaming = (n_cells > 1).then(|| Roaming::new(n, n_cells, handover_prob, seed));
        self
    }

    /// Restore component state from a checkpoint (everything except the
    /// loop-carried accumulators and the signal windows, which
    /// `build_driver` reinstalls).
    fn restore(&mut self, ck: &EngineCheckpoint) -> Result<(), CheckpointError> {
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
            // Fast-forward the freshly seeded signal RNG by replaying the
            // recorded number of samples. The block-sampling contract
            // (`sample_into` consumes the stream in slot order) makes
            // one-at-a-time replay equivalent to the original block cuts.
            for replay_slot in 0..s.sig_samples {
                let _ = u.signal.sample(replay_slot);
            }
            u.session = s.session.clone();
            u.playback = s.playback.clone();
            u.rrc = s.rrc.clone();
            u.meter = s.meter.clone();
            u.active_slots = s.active_slots;
            self.arrival[i] = s.arrival_slot;
            self.departure[i] = s.departure_slot;
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
                // v4 sidecars carry the running aggregates verbatim (so a
                // resumed run continues on the exact float sum), and one
                // that lost them is refused; v2/v3 sidecars get a fresh
                // rescan over the restored state.
                match (s.n_active, s.rate_sum) {
                    (Some(n), Some(r)) => {
                        a.n_active = n;
                        a.rate_sum = r;
                    }
                    _ if ck.version >= 4 => {
                        return Err(CheckpointError::Restore {
                            component: "admission",
                            reason: format!(
                                "a v{} sidecar must carry n_active and rate_sum",
                                ck.version
                            ),
                        });
                    }
                    _ => {
                        a.n_active = 0;
                        a.rate_sum = 0.0;
                        // Zip (not index) so a malformed legacy sidecar
                        // fails the loop-state length check downstream
                        // instead of panicking here.
                        let done = &ck.loop_state.done_watching;
                        for (i, (&arrival, d)) in self.arrival.iter().zip(done).enumerate() {
                            if arrival <= ck.slot && !d {
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
        lane.scheduler
            .import_state(&ck.scheduler)
            .map_err(|reason| CheckpointError::Restore {
                component: "scheduler",
                reason,
            })?;
        lane.transmitter.restore_clamp_events(ck.transmitter_clamps);
        Ok(())
    }

    /// Convert the engine into a [`SlotDriver`] — the set-up every run
    /// path shares. Every run path goes through the driver, so stepping
    /// it from a front-end — with checkpoints, live arrival scheduling,
    /// or degradation between slots — is bit-identical to a batch run by
    /// construction: there is no second slot implementation to drift.
    ///
    /// On resume the checkpoint is restored: component state imports,
    /// per-user RNG fast-forward, and derived state (SoA mirror, link-cap
    /// tables) rebuilt. Ends with `begin_run` (a fresh run) or the
    /// recorder's state import (a resumed one), so everything sized by
    /// the pool is built before the run's clock starts.
    pub(crate) fn build_driver<R: SlotRecorder>(
        mut self,
        rec: &mut R,
        resume: Option<&EngineCheckpoint>,
    ) -> Result<SlotDriver, SimError> {
        let n_users = self.users.len();
        let cfg = self.cfg;
        if let Some(ck) = resume {
            self.restore(ck).map_err(SimError::Checkpoint)?;
            rec.import_state(&ck.recorder)
                .map_err(|reason| CheckpointError::Restore {
                    component: "recorder",
                    reason,
                })
                .map_err(SimError::Checkpoint)?;
            let ls = &ck.loop_state;
            let per_user = [
                ls.done_watching.len(),
                ls.retired.len(),
                ls.retired_at.len(),
                ls.raw.len(),
                ls.window_delivered.len(),
                ls.window_need.len(),
            ];
            if per_user != [n_users; 6] || ls.live.iter().any(|&i| i >= n_users) {
                return Err(CheckpointError::Restore {
                    component: "loop state",
                    reason: "user indices out of range".into(),
                }
                .into());
            }
            // Only a sidecar taken before the first slot carries no rows;
            // any other length would resume with rows the straight run
            // never had.
            if ls.slots_run > 0 && ls.snapshots.len() != n_users {
                return Err(CheckpointError::Restore {
                    component: "loop state",
                    reason: format!(
                        "{} snapshot rows after slot {}, engine has {n_users} users",
                        ls.snapshots.len(),
                        ls.slots_run
                    ),
                }
                .into());
            }
        }
        let series_cap = if cfg.record_series {
            cfg.slots as usize
        } else {
            0
        };
        let mut lanes = std::mem::take(&mut self.lanes);
        let roams = self.roaming.is_some();
        let pass_through = self.collector.is_pass_through();
        let mut lp = LoopState {
            fairness_series: Vec::with_capacity(series_cap),
            fairness_window_series: Vec::with_capacity(series_cap.div_ceil(10)),
            power_series_j: Vec::with_capacity(series_cap),
            fairness_scratch: Vec::with_capacity(n_users),
            window_delivered: vec![0.0; n_users],
            window_need: vec![0.0; n_users],
            window_rows: Vec::new(),
            fairness_rows: 0,
            slots_run: 0,
            watching: n_users,
            grants: vec![0; if roams && rec.enabled() { n_users } else { 0 }],
            // A lone lane's transmitter sizes the buffer on its first
            // call; several lanes scatter into it row by row.
            deliveries: if roams {
                vec![Delivery { units: 0, kb: 0.0 }; n_users]
            } else {
                Vec::with_capacity(n_users)
            },
            fault_notes: Vec::new(),
            bs_cap_units: 0,
            rows_primed: pass_through,
            collector_rows: 0,
            per_user: None,
        };
        // What a collector reports of a user who is not in the cell: no
        // demand, at the bound of the placeholder signal.
        let absent = RawUserState::ABSENT;
        let absent_cap = self.collector.absent_link_cap();
        let mut c = Columns {
            users: std::mem::take(&mut self.users),
            arrival: std::mem::take(&mut self.arrival),
            departure: std::mem::take(&mut self.departure),
            abr: self
                .abr
                .as_mut()
                .map(|a| std::mem::take(&mut a.clients))
                .unwrap_or_default(),
            raw: vec![absent; n_users],
            // A pass-through collector's rows as they stand: phase A
            // rewrites a row when its user is live, so slot 0 is a slot
            // like any other. Any other collector overwrites them all in
            // its first pass.
            snaps: (0..n_users)
                .map(|id| absent.as_reported(id, absent.signal, absent_cap))
                .collect(),
            staged: vec![(0.0, 0.0); n_users],
            done: vec![false; n_users],
            retired: vec![false; n_users],
            retired_at: vec![0; n_users],
        };
        let mode = Mode {
            pass_through,
            tables: pass_through && self.faults.is_none(),
            rec_enabled: false,
            staged: false,
        };

        // Who is in a live list as the run (re)starts.
        let mut entered = vec![false; n_users];
        let mut start_slot = 0;
        if let Some(ck) = resume {
            let ls = &ck.loop_state;
            lp.fairness_series.clone_from(&ls.fairness_series);
            lp.fairness_window_series
                .clone_from(&ls.fairness_window_series);
            lp.power_series_j.clone_from(&ls.power_series_j);
            lp.window_delivered.clone_from(&ls.window_delivered);
            lp.window_need.clone_from(&ls.window_need);
            lp.window_rows
                .extend((0..n_users).filter(|&i| ls.window_need[i] != 0.0));
            lp.slots_run = ls.slots_run;
            lp.watching = ls.watching;
            c.done.clone_from(&ls.done_watching);
            c.retired.clone_from(&ls.retired);
            c.retired_at.clone_from(&ls.retired_at);
            c.raw.clone_from(&ls.raw);
            // A checkpoint taken before the first slot carries no rows
            // (and one taken later must: checked above): the rows stand
            // as built, and a collector that makes a first full pass
            // makes it after the resume. The SoA mirror
            // is derived state, not checkpointed: rebuilt from restored
            // rows, else sized by the first slot as in a fresh run.
            if ls.snapshots.len() == n_users {
                c.snaps.clone_from(&ls.snapshots);
                lp.rows_primed = true;
                if let [lane] = lanes.as_mut_slice() {
                    if lane.use_soa {
                        lane.soa.fill_from(&c.snaps, cfg.tau, cfg.delta_kb);
                    }
                }
            }
            // A restored live user whose arrival lies ahead (pre-v4
            // sidecars carried the un-arrived in `live`) re-enters
            // through the gate.
            for &i in &ls.live {
                entered[i] = c.arrival[i] <= ck.slot;
            }
            start_slot = ck.slot;
        } else {
            for (e, &arrival) in entered.iter_mut().zip(&c.arrival) {
                *e = arrival == 0;
            }
        }

        // Arrival gate: only users whose sessions have started occupy the
        // live list; the rest wait in a min-heap keyed by arrival slot and
        // join (ascending user order within a slot) once due — or, under
        // feasibility admission, wait for the tick to admit them
        // (`AdmissionRuntime::admitted`). Pre-arrival users draw no
        // signal samples at all (a user's noise stream is anchored at
        // their final arrival slot), so a slot costs the arrived
        // population, not the scenario's user count. The live list keeps
        // room for every user, so arrivals never reallocate mid-run.
        let mut live = Vec::with_capacity(n_users);
        live.extend((0..n_users).filter(|&i| entered[i]));
        let waiting =
            (0..n_users).filter(|&i| !entered[i] && !c.retired[i] && c.arrival[i] != u64::MAX);
        let arrival_queue = match self.admission.as_mut() {
            None => waiting.map(|i| Reverse((c.arrival[i], i))).collect(),
            Some(adm) => {
                // A governed user due by the restored slot and not yet
                // live was admitted by the tick just before it; the later
                // ones are in the rebuilt `planned` list.
                if resume.is_some() {
                    adm.admitted
                        .extend(waiting.filter(|&i| c.arrival[i] <= start_slot));
                }
                BinaryHeap::new()
            }
        };
        // A restored user whose signal or windows differ from the built
        // ones gets them back, so the sidecar round-trips byte for byte;
        // the caps are derived state, rebuilt from the signals, so a
        // resumed run re-enters a block mid-way with the values the
        // straight run would hold. Everyone else takes a window on first
        // entry, which only the users due inside the horizon can make.
        let mut windows = Vec::new();
        if let Some(ck) = resume {
            for (i, u) in ck.users.iter().enumerate() {
                let (block, signal) = (&u.sig_block, u.cur_signal);
                if block.iter().chain([&signal.0]).all(|v| v.to_bits() == 0) {
                    continue;
                }
                let mut w = Window::new(i);
                w.cur_signal = signal;
                for (dst, &v) in w.sig.iter_mut().zip(block) {
                    *dst = Dbm(v);
                }
                if mode.tables {
                    let mut v_scratch = [0.0f64; SIG_BLOCK_SLOTS];
                    self.collector
                        .link_caps_into(&w.sig, &mut v_scratch, &mut w.cap);
                }
                c.users[i].window = windows.len() as u32;
                windows.push(w);
            }
        }
        windows.reserve_exact(
            (0..n_users)
                .filter(|&i| c.users[i].window == NO_WINDOW && c.arrival[i] < cfg.slots)
                .count(),
        );
        let live = LiveState {
            live,
            arrival_queue,
            windows,
            // A radio makes at most one (net) transition a slot, so under
            // a recorder the staging never reallocates either.
            events: Vec::with_capacity(if rec.enabled() { n_users } else { 0 }),
            flips: Vec::new(),
            v_scratch: [0.0; SIG_BLOCK_SLOTS],
            watching_dec: 0,
            in_system: 0,
            any_retired: false,
        };

        if resume.is_none() {
            lp.per_user = Some(c.users.iter().map(UserSim::result).collect());
            rec.begin_run(n_users, cfg.tau);
        }
        Ok(SlotDriver {
            engine: self,
            lp,
            cols: c,
            live,
            lanes,
            mode,
            start_slot,
            next_slot: start_slot,
            finished: start_slot >= cfg.slots,
        })
    }

    /// Reference slot loop: every user is visited every slot and signals
    /// are drawn one slot at a time — the plain transcription of the §III
    /// pipeline with none of the driver's active-set machinery.
    ///
    /// This is the executable specification for every door into the
    /// driver: on any scenario and under any fault plan, both must return
    /// identical [`SimResult`]s (pinned by the `active_set_matches_reference`
    /// property test) and, under a [`SlotRecorder`], identical traces —
    /// per-user records land at stable indices, and the users the
    /// active-set loop skips would only ever contribute zero-energy,
    /// zero-delta records.
    pub(crate) fn run_reference<R: SlotRecorder>(mut self, rec: &mut R) -> SimResult {
        let faults = self.faults.take();
        let n_users = self.users.len();
        let [lane] = self.lanes.as_mut_slice() else {
            unreachable!("the reference loop is the one-cell specification")
        };
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
            let cap = lane.capacity.capacity(slot);
            let mut bs_cap_units = self.units.bs_cap_units(cap, self.cfg.tau);
            if let Some(plan) = &faults {
                bs_cap_units = plan.adjust_cap_units(slot, bs_cap_units);
            }
            rec.begin_slot(slot, bs_cap_units);
            if let Some(plan) = faults.as_ref().filter(|_| rec.enabled()) {
                fault_notes.clear();
                plan.notes_into(slot, &mut fault_notes);
                for note in &fault_notes {
                    rec.record_fault(note);
                }
            }
            self.receiver.ingest_slot(slot);

            // Client-side slot advance (Eq. 7/8) and ground-truth state.
            raw.clear();
            for (i, u) in self.users.iter_mut().enumerate() {
                if slot < self.arrival[i] {
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
                let mut signal = u.signal.sample(slot);
                u.sig_samples += 1;
                if let Some(plan) = &faults {
                    signal = plan.adjust_signal(slot, i, signal);
                }
                // Mirrors the hot loop's ABR rate substitution exactly.
                let abr_rate = self.abr.as_ref().map(|a| a.clients[i].rate_kbps);
                if slot >= self.departure[i] || faults.as_ref().is_some_and(|p| p.departed(slot, i))
                {
                    u.session.cancel_remaining();
                    u.playback.abandon();
                }
                let outcome = u.playback.begin_slot();
                if outcome.active {
                    u.active_slots += 1;
                }
                raw.push(RawUserState {
                    signal,
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
                lane.scheduler.allocate_into(&ctx, &mut alloc);
                rec.record_sched_latency_ns(t0.elapsed().as_nanos() as u64);
                rec.record_alloc(&alloc.0);
                if let Some(q) = lane.scheduler.queue_values() {
                    rec.record_queues(q);
                }
                let deg = lane.scheduler.degradations();
                if !deg.is_empty() {
                    rec.record_degradations(deg);
                }
            } else {
                lane.scheduler.allocate_into(&ctx, &mut alloc);
            }
            lane.transmitter
                .transmit_into(&ctx, &alloc, &mut self.receiver, &mut deliveries);

            // Device-side accounting (Eq. 3/4/5) and client delivery.
            let mut slot_energy_mj = 0.0;
            let mut in_system = 0u64;
            fairness_scratch.clear();
            for (u_idx, ((u, d), r)) in self.users.iter_mut().zip(&deliveries).zip(&raw).enumerate()
            {
                if slot < self.arrival[u_idx] {
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
                    let e = self.models.power.transmission_energy(r.signal, accepted);
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
                    &mut self.arrival,
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

        // The specification folds every row.
        let per_user = self.users.iter().map(UserSim::result).collect();
        let mut result = self.result(
            per_user,
            slots_run,
            fairness_series,
            fairness_window_series,
            power_series_j,
        );
        result.telemetry = rec.summary();
        result
    }

    /// The run's [`SimResult`] around its folded rows.
    fn result(
        &self,
        per_user: Vec<UserResult>,
        slots_run: u64,
        fairness_series: Vec<f64>,
        fairness_window_series: Vec<f64>,
        power_series_j: Vec<f64>,
    ) -> SimResult {
        SimResult {
            scheduler: self.lanes[0].scheduler.name().to_string(),
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

/// The resumable stepping form of the engine's slot pipeline: one slot
/// per [`SlotDriver::step`] call, checkpoint capture between any two
/// slots, and live mutation of the not-yet-executed schedule.
///
/// Built by [`Scenario::driver`](crate::scenario::Scenario::driver). A
/// slot is the four phase functions of the module docs, and
/// [`SlotDriver::step`], which runs them back to back, is the only slot
/// loop. So stepping the driver from a front-end (the live gateway
/// service) executes the exact slot code of a batch run, and a fully
/// stepped driver's result and telemetry are byte-identical to the batch
/// run of the same scenario.
///
/// The driver owns the engine (fault plan included) and every
/// loop-carried accumulator; the recorder stays external, passed into
/// each call, so one recorder can outlive crash/rebuild cycles of the
/// driver itself.
pub struct SlotDriver {
    /// The gateway pipeline, fault plan and the run's constants; its
    /// users and ABR clients live in `cols`, its lanes in `lanes`, until
    /// [`SlotDriver::finish`].
    engine: Engine,
    lp: LoopState,
    cols: Columns,
    live: LiveState,
    lanes: Vec<CellLane>,
    /// The run's constants; the recorder's two flags are filled in per
    /// call.
    mode: Mode,
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
    /// Rows of the grant vector the scheduler zeroed plus rows it wrote
    /// ([`Scheduler::grant_rows_touched`]); the whole pool for a policy
    /// that resets the vector.
    pub grant_rows_cleared: usize,
    /// Rows phase B rewrote for the collector: every row in the full
    /// pass of a collector that holds or perturbs reports, the live rows
    /// in its refresh, none for a pass-through collector — whose mirror
    /// is allocated by the first slot, which is not a pass over rows and
    /// is not counted.
    pub collector_rows: usize,
    /// Rows the windowed-fairness fold visited: the rows its window
    /// touched, on the slot that ends one.
    pub fairness_rows: usize,
    /// Arrivals the admission tick ruled on at the end of the slot:
    /// the planned arrivals that came due and the previous tick's
    /// deferrals.
    pub candidates_ruled: usize,
    /// Times the tick evaluated the admission rule: O(log n) per admit,
    /// plus O(log n) for the search that finds nobody else — however
    /// many it ruled on.
    pub admission_evaluations: usize,
}

impl SlotDriver {
    /// Work counts of the slot the latest [`SlotDriver::step`] executed.
    pub fn last_slot_work(&self) -> SlotWork {
        SlotWork {
            receiver_flows: self.engine.receiver.flows_visited_last_ingest(),
            scheduler_rows: match self.lanes.as_slice() {
                [lane] if lane.use_soa => lane.soa.live_rows().len(),
                _ => self.cols.users.len(),
            },
            grant_rows_cleared: (self.lanes.iter())
                .map(|lane| lane.scheduler.grant_rows_touched())
                .map(|touched| touched.unwrap_or(self.cols.users.len()))
                .sum(),
            collector_rows: self.lp.collector_rows,
            fairness_rows: self.lp.fairness_rows,
            candidates_ruled: (self.engine.admission.as_ref()).map_or(0, |adm| adm.ruled),
            admission_evaluations: (self.engine.admission.as_ref())
                .map_or(0, |adm| adm.evaluations),
        }
    }

    /// Rows the run folds, if [`SlotDriver::finish`] is called now: the
    /// admission rejects so far, and every user who entered a live list
    /// — or, on a resumed driver, every row.
    pub fn rows_to_fold(&self) -> usize {
        let rejected = (self.engine.admission.as_ref()).map_or(0, |adm| adm.ctl.summary().rejected);
        match self.lp.per_user {
            // Everyone who went live holds a window.
            Some(_) => rejected as usize + self.live.windows.len(),
            None => self.cols.users.len(),
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
        self.cols.users.len()
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
        self.lp.watching
    }

    /// Short name of the scheduling policy driving allocations.
    pub fn scheduler_name(&self) -> &'static str {
        self.lanes[0].scheduler.name()
    }

    /// Switch the scheduler into its degraded (cheaper, best-effort)
    /// operating mode, if it has one — the live `Degrade` overrun
    /// policy. Returns whether the scheduler supports degradation.
    /// Engaging is idempotent and takes effect from the next slot; the
    /// switch is observable through the scheduler's degradation events
    /// in the telemetry stream.
    pub fn engage_degraded(&mut self) -> bool {
        let mut supported = true;
        for lane in &mut self.lanes {
            supported &= lane.scheduler.engage_degraded();
        }
        supported
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
        self.cols.arrival.fill(u64::MAX);
        self.cols.departure.fill(u64::MAX);
        // Live mode starts with an empty system: every user enters
        // through a later `set_arrival` event.
        self.live.live.clear();
        self.live.arrival_queue.clear();
        Ok(())
    }

    /// Schedule user `user`'s session to start at `slot` — the live form
    /// of [`crate::arrivals::ArrivalSpec::Declared`]. The engine only
    /// ever reads the arrival slot as `slot < arrival`, so scheduling an
    /// arrival any time before its slot executes yields bytes identical
    /// to a batch run whose declared plan carries the same final
    /// schedule.
    pub fn set_arrival(&mut self, user: usize, slot: u64) -> Result<(), ScenarioError> {
        self.check_live_mutation("live.arrive", user, slot)?;
        let (arrival, departure) = (self.cols.arrival[user], self.cols.departure[user]);
        if arrival < self.next_slot {
            return Err(ScenarioError::new(
                "live.arrive",
                format!("user {user} already arrived at slot {arrival}"),
            ));
        }
        if departure != u64::MAX && slot >= departure {
            return Err(ScenarioError::new(
                "live.arrive",
                "arrival must precede the scheduled departure",
            ));
        }
        self.cols.arrival[user] = slot;
        // Duplicate entries for a rescheduled arrival are harmless: the
        // drain drops any entry that comes up before the user's current
        // arrival slot, or after they entered.
        self.live.arrival_queue.push(Reverse((slot, user)));
        Ok(())
    }

    /// Schedule user `user` to abandon their session at `slot` — live
    /// churn, the same idempotent state change the batch departure plan
    /// applies.
    pub fn set_departure(&mut self, user: usize, slot: u64) -> Result<(), ScenarioError> {
        self.check_live_mutation("live.depart", user, slot)?;
        let arrival = self.cols.arrival[user];
        if arrival != u64::MAX && slot <= arrival {
            return Err(ScenarioError::new(
                "live.depart",
                "departure must come after the arrival",
            ));
        }
        self.cols.departure[user] = slot;
        Ok(())
    }

    /// Install a gateway-side declared rate (e.g. DPI-extracted from the
    /// session's segment request) for user `user`: snapshots from the
    /// next slot on advertise it instead of the instantaneous session
    /// rate. Client-side playback still uses the true encoding rate.
    pub fn set_declared_rate(&mut self, user: usize, kbps: f64) -> Result<(), ScenarioError> {
        if user >= self.cols.users.len() {
            return Err(ScenarioError::new(
                "live.rate",
                format!("user {user} out of range"),
            ));
        }
        if kbps <= 0.0 || kbps.is_nan() {
            return Err(ScenarioError::new("live.rate", "rate must be positive"));
        }
        self.cols.users[user].declared_rate_kbps = Some(kbps);
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
        if user >= self.cols.users.len() {
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
        let built = Window::new(usize::MAX);
        // A user in the admission waiting room was deferred to the slot
        // after this one; the tick leaves that unwritten.
        let waiting = eng.admission.as_ref().map(|a| &a.waiting);
        let deferred_to = self.next_slot + 1;
        Ok(EngineCheckpoint {
            version: CKPT_VERSION,
            slot: self.next_slot,
            users: (c.users.iter().enumerate())
                .map(|(i, u)| {
                    let window = match u.window {
                        NO_WINDOW => &built,
                        w => &self.live.windows[w as usize],
                    };
                    UserCkpt {
                        session: u.session.clone(),
                        playback: u.playback.clone(),
                        rrc: u.rrc.clone(),
                        meter: u.meter.clone(),
                        cur_signal: window.cur_signal,
                        sig_block: window.sig.iter().map(|d| d.0).collect(),
                        active_slots: u.active_slots,
                        arrival_slot: match waiting {
                            Some(room) if room.contains(i) => deferred_to,
                            _ => c.arrival[i],
                        },
                        departure_slot: c.departure[i],
                        declared_rate_kbps: u.declared_rate_kbps,
                        sig_samples: u.sig_samples,
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
                n_active: Some(a.n_active),
                rate_sum: Some(a.rate_sum),
            }),
        })
    }

    /// The run's [`Mode`] under a recorder.
    fn mode_for<R: SlotRecorder>(&self, rec: &R) -> Mode {
        let rec_enabled = rec.enabled();
        Mode {
            rec_enabled,
            staged: rec_enabled || self.engine.cfg.record_series || self.engine.admission.is_some(),
            ..self.mode
        }
    }

    /// Execute exactly one slot of the §III pipeline. Returns the slot
    /// index it ran, or `None` once the run is finished.
    ///
    /// The four phases back to back, on the calling thread.
    pub fn step<R: SlotRecorder>(&mut self, rec: &mut R) -> Option<u64> {
        if self.finished {
            return None;
        }
        let slot = self.next_slot;
        let mode = self.mode_for(rec);
        let Self {
            engine: eng,
            lp,
            cols: c,
            live: lv,
            lanes,
            ..
        } = self;
        size_mirror(eng, lanes, c.users.len());
        phase_a(eng, mode, slot, lv, c, mirror(lanes));
        phase_b(eng, lp, mode, slot, lv, lanes, c, rec);
        phase_c(eng, mode, slot, &lp.deliveries, lv, c, mirror(lanes));
        self.finished = phase_d(eng, lp, mode, slot, lv, c, rec);
        self.next_slot = slot + 1;
        Some(slot)
    }

    /// Step to the end and finish: the cadence of every batch door.
    pub(crate) fn run<R: SlotRecorder>(mut self, rec: &mut R) -> (SimResult, Option<CellStats>) {
        while self.step(rec).is_some() {}
        self.finish_cells(rec)
    }

    /// Settle end-of-run accounting and fold the final [`SimResult`].
    /// Callable at any point; finishing early yields the result of the
    /// slots run so far.
    pub fn finish<R: SlotRecorder>(self, rec: &mut R) -> SimResult {
        self.finish_cells(rec).0
    }

    /// [`SlotDriver::finish`], and with more than one lane what the
    /// cells saw of their users.
    pub(crate) fn finish_cells<R: SlotRecorder>(
        self,
        rec: &mut R,
    ) -> (SimResult, Option<CellStats>) {
        rec.end_run();
        let Self {
            mut engine,
            mut lp,
            cols: mut c,
            live,
            lanes,
            ..
        } = self;
        let n_users = c.users.len();
        // Settle the idle slots a retired user sat out — each would have
        // recorded a zero-energy tail slot per remaining loop iteration —
        // before their row is folded. Every retired user went live.
        let mut settled = |i: usize| {
            let u = &mut c.users[i];
            if c.retired[i] {
                u.meter
                    .record_saturated_idle_slots(lp.slots_run - 1 - c.retired_at[i]);
            }
            u.result()
        };
        let per_user = match lp.per_user.take() {
            // The rows the run wrote in live lists, over what the build
            // or the admission tick laid down.
            Some(mut per_user) => {
                for w in &live.windows {
                    per_user[w.user] = settled(w.user);
                }
                per_user
            }
            None => (0..n_users).map(settled).collect(),
        };
        debug_assert!(
            per_user
                .iter()
                .cloned()
                .eq(c.users.iter().map(UserSim::result)),
            "a row the run wrote was left out of the fold"
        );
        engine.lanes = lanes;
        let cells = engine.roaming.take().map(|roam| CellStats {
            handovers: roam.handovers,
            mean_occupancy: roam
                .occupancy_sums
                .iter()
                .map(|sum| sum / lp.slots_run as f64)
                .collect(),
        });
        let mut result = engine.result(
            per_user,
            lp.slots_run,
            lp.fairness_series,
            lp.fairness_window_series,
            lp.power_series_j,
        );
        result.telemetry = rec.summary();
        (result, cells)
    }
}

/// What the cells of a run with more than one lane saw of its users.
pub(crate) struct CellStats {
    /// Total handovers executed.
    pub(crate) handovers: u64,
    /// Mean number of attached users per cell.
    pub(crate) mean_occupancy: Vec<f64>,
}

/// The refusal a run of more than one lane gives a checkpoint request:
/// the sidecar carries one scheduler's state and no attachment.
fn multi_lane_checkpoint() -> CheckpointError {
    CheckpointError::Unsupported {
        reason: "a run with more than one cell cannot be checkpointed".into(),
    }
}

/// Size a lone lane's mirror, if it keeps one and nothing has yet: every
/// row absent, as the build left the rows it mirrors, so that the first
/// phase A writes slot 0's live rows through it like any other slot's.
/// The first slot's job and not the build's: a driver that is built and
/// dropped, or restored with its rows, never pays for the allocation.
fn size_mirror(eng: &Engine, lanes: &mut [CellLane], n_users: usize) {
    if let [lane] = lanes {
        if lane.use_soa && lane.soa.len() != n_users {
            lane.soa = SnapshotSoA::absent(n_users, eng.collector.absent_link_cap());
        }
    }
}

/// The mirror phases A and C write through: a lone lane's, if its policy
/// keeps one.
fn mirror(lanes: &mut [CellLane]) -> Option<&mut SnapshotSoA> {
    match lanes {
        [lane] if lane.use_soa => Some(&mut lane.soa),
        _ => None,
    }
}

/// Phase A: the arrival gate, then for every live user the radio sample
/// (block-drawn into the user's window in the slab, with its per-block
/// Eq. (1) cap table), the Eq. (7)/(8) playback advance and the
/// ground-truth row — and, for a pass-through collector, the snapshot and
/// SoA rows the scheduler will read, from slot 0 on. Makes no recorder
/// call.
fn phase_a(
    eng: &Engine,
    mode: Mode,
    slot: u64,
    lv: &mut LiveState,
    c: &mut Columns,
    mut soa: Option<&mut SnapshotSoA>,
) {
    // Admit due arrivals: pop every entry due by this slot. An entry a
    // live reschedule left behind (the user entered already, or now
    // arrives later under a fresh entry) is dropped.
    while let Some(&Reverse((due, i))) = lv.arrival_queue.peek() {
        if due > slot {
            break;
        }
        lv.arrival_queue.pop();
        // Live membership never regresses — a user only leaves the live
        // list by retiring — so "entered" is "live or retired".
        let entered = c.retired[i] || lv.live.binary_search(&i).is_ok();
        if !entered && c.arrival[i] <= slot {
            merge_ascending(&mut lv.live, &[i]);
        }
    }
    // Under admission the previous slot's tick admitted these for this
    // slot — the gate's only input.
    if let Some(adm) = eng.admission.as_ref() {
        merge_ascending(&mut lv.live, &adm.admitted);
    }

    let cfg = eng.cfg;
    for &i in &lv.live {
        let u = &mut c.users[i];
        let arrival = c.arrival[i];
        debug_assert!(slot >= arrival, "live user must have arrived");
        if u.window == NO_WINDOW {
            // First entry into the live list: the user's window, from
            // here to the end of the run, is the next in the slab.
            u.window = lv.windows.len() as u32;
            lv.windows.push(Window::new(i));
        }
        let w = &mut lv.windows[u.window as usize];
        // Each user's signal block is anchored at their final arrival
        // slot, read off the dense column (it cannot move once they are
        // live): a user entering at slot `a` refills the window at `a`,
        // `a + 32`, …, so it is always current — its first slot is a
        // refill — and pre-arrival slots draw no samples at all.
        let block_off = ((slot - arrival) % SIG_BLOCK_SLOTS as u64) as usize;
        if block_off == 0 {
            u.signal.sample_into(slot, &mut w.sig);
            u.sig_samples += SIG_BLOCK_SLOTS as u64;
            if mode.tables {
                // One batch-kernel pass per block: the next
                // SIG_BLOCK_SLOTS slots read pure table entries.
                eng.collector
                    .link_caps_into(&w.sig, &mut lv.v_scratch, &mut w.cap);
            }
        }
        w.cur_signal = w.sig[block_off];
        if let Some(plan) = &eng.faults {
            // Faults perturb state, never RNG streams: the raw sample
            // above already advanced the generator.
            w.cur_signal = plan.adjust_signal(slot, i, w.cur_signal);
        }
        if slot >= c.departure[i] || eng.faults.as_ref().is_some_and(|p| p.departed(slot, i)) {
            // Mid-stream departure — workload churn or the fault
            // taxonomy's perturbation form: the client abandons playback
            // and the origin stops fetching for them. Both calls are
            // idempotent, so the latched window check is safe to
            // re-apply every slot, and a `u64::MAX` departure slot
            // leaves the run untouched.
            u.session.cancel_remaining();
            u.playback.abandon();
        }
        let outcome = u.playback.begin_slot();
        if outcome.active {
            u.active_slots += 1;
        }
        let r = RawUserState {
            signal: w.cur_signal,
            // Gateway-advertised demand: the ABR rung rate when clients
            // are installed (single-rung = the native rate, bitwise),
            // else the declared/session rate.
            rate_kbps: match c.abr.get(i) {
                Some(client) => client.rate_kbps,
                None => u
                    .declared_rate_kbps
                    .unwrap_or_else(|| u.session.rate_at(slot)),
            },
            buffer_s: outcome.occupancy_s,
            remaining_kb: u.session.remaining_kb(),
            active: outcome.active,
            idle_s: u.rrc.idle_seconds(),
            rrc_state: u.rrc.state(),
        };
        if mode.pass_through {
            // The collector's row verbatim: report = truth, Eq. (1) from
            // the table (or the scalar kernel the table batches).
            let link_cap = match mode.tables {
                true => w.cap[block_off],
                false => eng.collector.link_cap(r.signal),
            };
            let snap = r.as_reported(i, r.signal, link_cap);
            if let Some(soa) = soa.as_deref_mut() {
                soa.set_row(&snap, cfg.tau, cfg.delta_kb);
            }
            c.snaps[i] = snap;
        }
        c.raw[i] = r;
    }
}

/// Phase B, the slot's one coupling through Eq. (2): this slot's
/// mobility, every lane's budget (fault-adjusted), the slot announced to
/// the recorder, origin ingest, and the collector pass for a collector
/// that is not pass-through (for a pass-through one nothing here walks
/// rows: phase A has written the live ones, and the rest stand as built).
/// Then per lane, in cell order, its rows brought up to date (with more
/// than one lane), its scheduler's call over them and its transmitter
/// moving bytes out of the one receiver (a flow follows its user across
/// cells); and what the lanes decided, told to the recorder.
#[allow(clippy::too_many_arguments)]
fn phase_b<R: SlotRecorder>(
    eng: &mut Engine,
    lp: &mut LoopState,
    mode: Mode,
    slot: u64,
    lv: &LiveState,
    lanes: &mut [CellLane],
    c: &mut Columns,
    rec: &mut R,
) {
    let cfg = eng.cfg;
    lp.slots_run = slot + 1;
    if let Some(roam) = eng.roaming.as_mut() {
        roam.step(lanes, cfg);
    }
    lp.bs_cap_units = 0;
    for lane in lanes.iter_mut() {
        let cap = lane.capacity.capacity(slot);
        // The two hooks quantise in different orders — ⌊⌊S/δ⌋·f⌋ here,
        // ⌊S·f/δ⌋ per cell — and so differ by a unit when S is off the δ
        // grid. Each run kind keeps the one its committed outputs were
        // made with, which is the only reason there are two.
        lane.cap_units = match (&eng.faults, lane.cap_fault) {
            (None, _) => eng.units.bs_cap_units(cap, cfg.tau),
            (Some(plan), CapFault::Bs) => {
                plan.adjust_cap_units(slot, eng.units.bs_cap_units(cap, cfg.tau))
            }
            (Some(plan), CapFault::Cell(cell)) => eng
                .units
                .bs_cap_units(KbPerSec(plan.scale_cell_cap(slot, cell, cap.0)), cfg.tau),
        };
        lp.bs_cap_units += lane.cap_units;
    }
    rec.begin_slot(slot, lp.bs_cap_units);
    if let Some(plan) = eng.faults.as_ref().filter(|_| mode.rec_enabled) {
        lp.fault_notes.clear();
        plan.notes_into(slot, &mut lp.fault_notes);
        for note in &lp.fault_notes {
            rec.record_fault(note);
        }
    }
    eng.receiver.ingest_slot(slot);

    // A lone lane schedules off the columns' rows, so their mirror is
    // kept here; several lanes each mirror their own rows.
    let mut soa = mirror(lanes);
    lp.collector_rows = 0;
    if !lp.rows_primed || eng.collector.needs_full_pass() {
        // A collector that holds or perturbs reports rebuilds every row
        // on its first slot, which fills its report cache — and a noisy
        // one on every slot, whose RNG stream must stay per-user
        // aligned.
        eng.collector.snapshot_rows(slot, &c.raw, &mut c.snaps);
        if let Some(soa) = soa.as_deref_mut() {
            soa.fill_from(&c.snaps, cfg.tau, cfg.delta_kb);
        }
        lp.rows_primed = true;
        lp.collector_rows = c.snaps.len();
    } else if !mode.pass_through {
        // A collector that only holds reports refreshes the live rows.
        lp.collector_rows = lv.live.len();
        eng.collector
            .snapshot_refresh(slot, &c.raw, &lv.live, &mut c.snaps);
        if let Some(soa) = soa.as_deref_mut() {
            for &i in &lv.live {
                soa.set_row(&c.snaps[i], cfg.tau, cfg.delta_kb);
            }
        }
    }
    if let Some(soa) = soa {
        // The live list is the rows a sweep has to visit; every other
        // row has no demand left.
        soa.set_live_rows(lv.live.iter().copied());
    }

    let mut sched_ns = 0;
    for (cell, lane) in lanes.iter_mut().enumerate() {
        let members = eng.roaming.as_ref().map(|roam| &roam.members[cell]);
        let users = match eng.roaming.as_ref() {
            None => &c.snaps,
            Some(roam) => {
                if lane.rows.is_empty() {
                    lane.rows.extend(c.snaps.iter().map(|reported| {
                        let mut row = reported.clone();
                        if roam.attached[row.id] != cell {
                            row.remaining_kb = 0.0;
                            row.active = false;
                            row.link_cap_units = 0;
                        }
                        row
                    }));
                    if lane.use_soa {
                        lane.soa.fill_from(&lane.rows, cfg.tau, cfg.delta_kb);
                    }
                } else {
                    for &i in &roam.members[cell] {
                        // A retired member's reported row is frozen, with
                        // nothing left to fetch: once the lane's copy
                        // says it has stopped watching there is nothing
                        // to bring over.
                        if c.retired[i] && !lane.rows[i].active {
                            continue;
                        }
                        lane.rows[i].clone_from(&c.snaps[i]);
                        if lane.use_soa {
                            lane.soa.set_row(&c.snaps[i], cfg.tau, cfg.delta_kb);
                        }
                    }
                }
                if lane.use_soa {
                    // Only a member's row can hold demand.
                    lane.soa.set_live_rows(roam.members[cell].iter().copied());
                }
                &lane.rows
            }
        };
        let ctx = SlotContext {
            slot,
            tau: cfg.tau,
            delta_kb: cfg.delta_kb,
            bs_cap_units: lane.cap_units,
            users,
            soa: lane.use_soa.then_some(&lane.soa),
        };
        if mode.rec_enabled {
            let t0 = std::time::Instant::now();
            lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
            sched_ns += t0.elapsed().as_nanos() as u64;
        } else {
            lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
        }
        let out = match members {
            None => &mut lp.deliveries,
            Some(_) => &mut lane.deliveries,
        };
        lane.transmitter
            .transmit_into(&ctx, &lane.alloc, &mut eng.receiver, out);
        // A user is attached to exactly one cell, so the lanes' members
        // between them write every row once.
        for &i in members.into_iter().flatten() {
            lp.deliveries[i] = lane.deliveries[i];
            if mode.rec_enabled {
                lp.grants[i] = lane.alloc.0[i];
            }
        }
    }
    if mode.rec_enabled {
        rec.record_sched_latency_ns(sched_ns);
        match &*lanes {
            [lane] => {
                rec.record_alloc(&lane.alloc.0);
                if let Some(q) = lane.scheduler.queue_values() {
                    rec.record_queues(q);
                }
            }
            // Each cell has its own scheduler, so no single queue vector
            // describes the slot.
            _ => rec.record_alloc(&lp.grants),
        }
        for lane in lanes.iter() {
            let deg = lane.scheduler.degradations();
            if !deg.is_empty() {
                rec.record_degradations(deg);
            }
        }
    }
}

/// Phase C: client delivery and device accounting (Eq. 3/4/5) for the
/// live users, ABR decisions staged per user. Whatever phase D folds or
/// records is staged, not emitted: the slot's energy and running
/// rebuffering per user, RRC transitions, `done` flips.
fn phase_c(
    eng: &Engine,
    mode: Mode,
    slot: u64,
    deliveries: &[Delivery],
    lv: &mut LiveState,
    c: &mut Columns,
    mut soa: Option<&mut SnapshotSoA>,
) {
    let cfg = eng.cfg;
    lv.watching_dec = 0;
    lv.in_system = 0;
    lv.events.clear();
    lv.flips.clear();
    for &i in &lv.live {
        let u = &mut c.users[i];
        debug_assert!(slot >= c.arrival[i], "live user must have arrived");
        let d = &deliveries[i];
        let events = &mut lv.events;
        let slot_e = if d.kb > 0.0 {
            let accepted = u.session.deliver(d.kb);
            debug_assert!(
                (accepted - d.kb).abs() < 1e-6,
                "transmitter should never over-deliver"
            );
            // Client playback always advances by the *true* encoding
            // rate regardless of what the gateway thinks — under ABR
            // that is the rung rate (lower rungs stretch delivered KB
            // into more playback seconds).
            if let (Some(a), Some(client)) = (eng.abr.as_ref(), c.abr.get_mut(i)) {
                u.playback.deliver(accepted, client.rate_kbps);
                let inp = AbrInputs {
                    buffer_s: c.raw[i].buffer_s,
                    predicted_kbps: c.snaps[i].link_cap_units as f64 * cfg.delta_kb / cfg.tau,
                };
                client.on_delivery(
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
            // One-deep memo of the Eq. (3) kernel: `P(sig)` is a pure
            // function of the block-held RSSI, so this is the same
            // product `transmission_energy` would compute.
            let w = &mut lv.windows[u.window as usize];
            if w.epk_sig.value() != w.cur_signal.value() {
                w.epk_per_kb = eng.models.power.energy_per_kb(w.cur_signal);
                w.epk_sig = w.cur_signal;
            }
            let e = MilliJoules(w.epk_per_kb * accepted);
            if mode.rec_enabled {
                u.rrc.on_transmit_observed(|f, t| events.push((i, f, t)));
            } else {
                u.rrc.on_transmit();
            }
            u.meter.record_transmission(e);
            e.value()
        } else {
            let e = if mode.rec_enabled {
                u.rrc
                    .on_idle_observed(cfg.tau, |f, t| events.push((i, f, t)))
            } else {
                u.rrc.on_idle(cfg.tau)
            };
            u.meter.record_tail(e);
            e.value()
        };
        if mode.staged {
            c.staged[i] = (slot_e, u.playback.total_rebuffer_s());
        }
        if !c.done[i] && u.session.fully_fetched() && u.playback.playback_complete() {
            c.done[i] = true;
            lv.watching_dec += 1;
            if eng.admission.is_some() {
                lv.flips.push(i);
            }
        }
        // Live-population sample for open-system telemetry: arrived and
        // still watching after this slot's accounting.
        if mode.rec_enabled && !c.done[i] {
            lv.in_system += 1;
        }
        // Retire once nothing remains to account: playback is over and
        // the RRC tail has fully drained, so every further slot would
        // charge exactly 0 mJ of tail energy.
        if c.done[i] && u.rrc.state() == RrcState::Idle {
            c.retired[i] = true;
            c.retired_at[i] = slot;
            lv.any_retired = true;
            // The rows freeze here, in the slot playback completed —
            // which `begin_slot` still saw as watched. They must say
            // what a fresh row would from now on, or a policy that walks
            // every row (EMA's `PCᵢ += τ`) keeps charging a user who has
            // left; the ground-truth row too, for a collector that
            // rebuilds every snapshot from it.
            c.raw[i].active = false;
            c.snaps[i].active = false;
            if let Some(soa) = soa.as_deref_mut() {
                soa.set_row(&c.snaps[i], cfg.tau, cfg.delta_kb);
            }
        }
    }
}

/// Phase D: replay what phase C staged, user by user in ascending order,
/// so every recorder call, every floating-point fold (slot energy, E*,
/// `rate_sum`, the fairness series) and every admission ruling happens
/// in the reference loop's order. Then the ABR commits, live-list
/// compaction and the end-of-slot admission tick. Returns true once the
/// run is over.
fn phase_d<R: SlotRecorder>(
    eng: &mut Engine,
    lp: &mut LoopState,
    mode: Mode,
    slot: u64,
    lv: &mut LiveState,
    c: &mut Columns,
    rec: &mut R,
) -> bool {
    const FAIR_WINDOW: u64 = 10;
    let cfg = eng.cfg;
    if mode.staged {
        let mut slot_energy_mj = 0.0;
        lp.fairness_scratch.clear();
        // Phase C pushed events and flips in this same live order, so
        // one cursor each finds a user's entries.
        let (mut ev, mut fl) = (0usize, 0usize);
        for &i in &lv.live {
            // RRC transitions precede the user record.
            while let Some(&(_, f, t)) = lv.events.get(ev).filter(|e| e.0 == i) {
                rec.record_rrc_transition(i, f, t);
                ev += 1;
            }
            let (slot_e, rebuffer_s) = c.staged[i];
            slot_energy_mj += slot_e;
            if let Some(adm) = eng.admission.as_mut() {
                let flipped = lv.flips.get(fl) == Some(&i);
                // Running E* estimate for admission feasibility: energy
                // per arrived-and-watching user-slot, by the pre-flip
                // flag, so the finishing slot still counts.
                if !c.done[i] || flipped {
                    adm.energy_mj += slot_e;
                    adm.user_slots += 1;
                }
                // Membership event point: the user leaves the tick's
                // active population for good (`done` never un-flips).
                if flipped {
                    fl += 1;
                    adm.n_active -= 1;
                    adm.rate_sum -= adm.rates[i];
                }
            }
            rec.record_user(i, slot_e, rebuffer_s);
            // Fairness sample over users still fetching this slot.
            let r = &c.raw[i];
            if cfg.record_series && r.remaining_kb > 0.0 {
                let need_kb = (cfg.tau * r.rate_kbps).min(r.remaining_kb);
                if need_kb > 0.0 {
                    lp.fairness_scratch.push(lp.deliveries[i].kb / need_kb);
                    if lp.window_need[i] == 0.0 {
                        lp.window_rows.push(i);
                    }
                    lp.window_delivered[i] += lp.deliveries[i].kb;
                    lp.window_need[i] += need_kb;
                }
            }
        }
        if cfg.record_series {
            if !lp.fairness_scratch.is_empty() {
                lp.fairness_series.push(jain_index(&lp.fairness_scratch));
            }
            lp.power_series_j.push(slot_energy_mj / 1000.0);
            lp.fairness_rows = 0;
            if (slot + 1).is_multiple_of(FAIR_WINDOW) {
                // The rows the window touched, ascending — the order a
                // walk over every row's `need > 0` finds them in, so the
                // index sums the same sequence.
                lp.window_rows.sort_unstable();
                lp.fairness_scratch.clear();
                for &i in &lp.window_rows {
                    lp.fairness_scratch
                        .push(lp.window_delivered[i] / lp.window_need[i]);
                    lp.window_delivered[i] = 0.0;
                    lp.window_need[i] = 0.0;
                }
                if !lp.fairness_scratch.is_empty() {
                    lp.fairness_window_series
                        .push(jain_index(&lp.fairness_scratch));
                }
                lp.fairness_rows = lp.window_rows.len();
                lp.window_rows.clear();
            }
        }
    }
    // Folded before the admission tick so a rejection decrements an
    // up-to-date watch count.
    lp.watching -= lv.watching_dec;
    // Commit staged ABR switches in ascending user order: update the rung
    // rate, re-price the unfetched tail of the session, and keep the
    // receiver's origin-side volume bound in step. Only a delivery stages
    // a switch, so the live list (not yet compacted) covers every user
    // that can have one.
    if let Some(a) = eng.abr.as_ref() {
        for &i in &lv.live {
            if let Some(sw) = c.abr[i].apply_pending(&a.spec.ladder, a.native[i]) {
                let delta = c.users[i].session.rescale_remaining(sw.ratio);
                eng.receiver.adjust_source_volume_kb(i, delta);
                rec.record_abr_switch(i, sw.from, sw.to);
            }
        }
    }
    if std::mem::take(&mut lv.any_retired) {
        lv.live.retain(|&i| !c.retired[i]);
    }
    if mode.rec_enabled {
        rec.record_live(lv.in_system);
    }
    // Rule on arrivals planned for the next slot, now that this slot's
    // capacity and energy accounting are final.
    if let Some(adm) = eng.admission.as_mut() {
        admission_tick(
            adm,
            &mut c.arrival,
            &mut c.users,
            &mut c.done,
            &mut lp.watching,
            lp.per_user.as_deref_mut(),
            rec,
            slot,
            lp.bs_cap_units,
            cfg.tau,
            cfg.delta_kb,
        );
    }
    rec.end_slot();
    // Nothing left to schedule, watch or drain — or the horizon.
    lp.watching == 0 || slot + 1 >= cfg.slots
}

/// The planned arrivals due after `after`, as `(first_due, user)`
/// ascending — the order every tick has ruled in, and the order their
/// deferral caps run out in. A user's first due slot is their arrival
/// slot less the `deferred` slots they already waited (none before the
/// run; on restore, those of the users the checkpoint's tick deferred).
/// Users that never arrive (`u64::MAX`: past any horizon, or rejected)
/// are left out.
fn planned_arrivals(
    arrival: &[u64],
    after: u64,
    deferred: impl Fn(usize) -> u64,
) -> Vec<(u64, usize)> {
    let mut planned: Vec<(u64, usize)> = (arrival.iter().enumerate())
        .filter(|&(_, &a)| a > after && a != u64::MAX)
        .map(|(i, &a)| (a - deferred(i), i))
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

/// The bound estimates for one candidate given the active population
/// *with the candidate admitted* (`n_active` users whose rates sum to
/// `rate_sum`). This is the single decision expression both the tick and
/// the full-rescan reference evaluate, so the two paths can only diverge
/// through their population aggregates.
///
/// Between two admits of one tick only `rate_sum` varies with the
/// candidate, as `S + r`, and the verdict is monotone in `r`: every step
/// from `r` to it is a monotone IEEE operation — `S + r`, `/ n`, `n ·`,
/// `C / x` (x > 0), `− 1`, `τ ·` on the way to ε̂, then Ω̂'s division by
/// `n · ε̂` — and Φ̂ does not read `r` at all. So a rate that passes
/// makes every lower rate pass (`admissible_is_monotone_in_the_rate`),
/// which is what lets the tick's waiting room skip whom it refuses.
fn admission_context(
    v: f64,
    n_active: usize,
    rate_sum: f64,
    e_star_user: f64,
    c_kbps: f64,
    tau: f64,
) -> AdmissionContext {
    let n = n_active as f64;
    let r_bar = rate_sum / n;
    // Per-user service slack ε̂ = τ·(C/(n·r̄) − 1): seconds of
    // playback headroom per user-slot under an even capacity split.
    let eps_s = tau * (c_kbps / (n * r_bar) - 1.0);
    // Theorem 1 bound estimates with the candidate counted in; the
    // aggregate forms take Σ-quantities, so the per-user estimates
    // are scaled up by n going in and back down coming out.
    let b = drift_bound_b(n_active, tau, tau);
    let phi_hat = energy_upper_bound(e_star_user * n, b, v) / n;
    let omega_hat = if eps_s > 0.0 {
        rebuffer_upper_bound(b, v, e_star_user * n, n * eps_s) / n
    } else {
        // Non-positive slack: Theorem 1's bound does not exist.
        f64::INFINITY
    };
    AdmissionContext {
        eps_s,
        omega_hat_s: omega_hat,
        phi_hat_mj: phi_hat,
    }
}

/// Rule on candidate `j` and tally the ruling: [`admission_context`]
/// through [`AdmissionController::decide`].
fn admission_decide(
    adm: &mut AdmissionRuntime,
    j: usize,
    n_active: usize,
    rate_sum: f64,
    e_star_user: f64,
    c_kbps: f64,
    tau: f64,
) -> AdmissionDecision {
    let ctx = admission_context(adm.v, n_active, rate_sum, e_star_user, c_kbps, tau);
    adm.ctl.decide(j, &ctx)
}

/// Apply one admission ruling to the schedule: deferred users are pushed
/// back a slot, rejected users are cancelled before ever going live (the
/// radio stays cold and they stop counting toward the watch count).
/// Rejected users were never in the active population, so the aggregates
/// are untouched here; the admit arm (aggregates, gate) is each tick's
/// own business.
fn admission_apply(
    arrival: &mut [u64],
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    j: usize,
    next_slot: u64,
    decision: AdmissionDecision,
) {
    match decision {
        AdmissionDecision::Admit => {}
        AdmissionDecision::Defer => arrival[j] = next_slot + 1,
        AdmissionDecision::Reject => {
            arrival[j] = u64::MAX;
            users[j].session.cancel_remaining();
            users[j].playback.abandon();
            done_watching[j] = true;
            *watching -= 1;
        }
    }
}

/// One end-of-slot admission pass: rule on every arrival due at the next
/// slot — the planned arrivals that just came due and everyone still
/// waiting — in ascending user order, each against the Lyapunov bound
/// estimates *as they would be with the candidate admitted* (candidates
/// this pass already admitted count toward later candidates' load).
///
/// Runs at the end of phase D, right before `end_slot`, so the decision
/// uses the slot's final capacity and energy accounting and its records
/// land on the decision slot. The rulings are the reference's, one per
/// waiting user, but the tick never visits a user it defers:
///
/// * Between two admits the population aggregates are fixed and the
///   verdict is monotone in the candidate's rate ([`admission_context`]),
///   so the next admit is the leftmost waiting user whose rate passes —
///   the waiting room finds them with O(log n) evaluations — and every
///   user it skipped was refused.
/// * A refused user is deferred while their count, `next_slot −
///   first_due`, is under the cap, and rejected at it: the users the
///   `expire_next` cursor reaches this tick. A deferral writes nothing
///   (`AdmissionRuntime::waiting`).
///
/// So a tick costs its arrivals, rejects and admits, O(log n) each. The
/// rulings go to an enabled recorder in the reference's order, merged
/// from the admits, the rejects and the room; a disabled one gets no
/// call. The reference loop runs the naive form,
/// [`admission_tick_reference`], pinned equal by the admission property
/// pack.
#[allow(clippy::too_many_arguments)]
fn admission_tick<R: SlotRecorder>(
    adm: &mut AdmissionRuntime,
    arrival: &mut [u64],
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    mut per_user: Option<&mut [UserResult]>,
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
    adm.rejected.clear();
    while let Some(&(first_due, j)) = adm.planned.get(adm.planned_next) {
        if first_due > next_slot {
            break;
        }
        adm.ctl.start_wait(j, first_due);
        adm.waiting.insert(j, adm.rates[j]);
        adm.planned_next += 1;
    }
    adm.ruled = adm.waiting.len();
    adm.evaluations = 0;
    // Slot-s capacity in KB/s.
    let c_kbps = bs_cap_units as f64 * delta_kb / tau;
    let e_star_user = admission_e_star(adm);
    let mut from = 0;
    loop {
        // Population with the candidate admitted: the maintained active
        // population (which already includes the candidates this pass
        // admitted) plus the candidate — never a member yet, since its
        // arrival slot is the next slot.
        let (n_active, active_sum) = (adm.n_active + 1, adm.rate_sum);
        let (ctl, v) = (&adm.ctl, adm.v);
        let mut verdict = MonotoneVerdict::new(|rate| {
            ctl.admissible(&admission_context(
                v,
                n_active,
                active_sum + rate,
                e_star_user,
                c_kbps,
                tau,
            ))
        });
        let found = adm.waiting.leftmost(from, &adm.rates, &mut verdict);
        adm.evaluations += verdict.evaluations;
        let Some(j) = found else { break };
        // Arrival commit: the event point where `j` joins the active
        // population (and counts toward later candidates) and enters
        // the arrival gate.
        adm.waiting.remove(j, &adm.rates);
        adm.ctl.end_wait(j, next_slot, true);
        adm.n_active += 1;
        adm.rate_sum += adm.rates[j];
        adm.admitted.push(j);
        arrival[j] = next_slot;
        from = j + 1;
    }
    // Everyone still waiting was refused; those whose wait reached the
    // cap are rejected. A planned entry keeps its `first_due` order, and
    // the cursor passes one slot's worth a tick, so these come ascending.
    let cutoff = next_slot.checked_sub(adm.ctl.max_defer_slots());
    while let Some(&(first_due, j)) = adm.planned.get(adm.expire_next) {
        if cutoff.is_none_or(|cutoff| first_due > cutoff) {
            break;
        }
        adm.expire_next += 1;
        if !adm.waiting.contains(j) {
            continue;
        }
        adm.waiting.remove(j, &adm.rates);
        let decision = adm.ctl.end_wait(j, next_slot, false);
        admission_apply(
            arrival,
            users,
            done_watching,
            watching,
            j,
            next_slot,
            decision,
        );
        if let Some(per_user) = per_user.as_deref_mut() {
            // The row's last write: fold it while it is at hand.
            per_user[j] = users[j].result();
        }
        adm.rejected.push(j);
    }
    if rec.enabled() {
        debug_assert!(adm.rejected.is_sorted());
        emit_rulings(rec, &adm.admitted, &adm.rejected, adm.waiting.iter());
    }
}

/// Record one tick's rulings in ascending user order: the admits and the
/// rejects (each ascending) merged into the users left waiting, who were
/// deferred.
fn emit_rulings<R: SlotRecorder>(
    rec: &mut R,
    admitted: &[usize],
    rejected: &[usize],
    deferred: impl Iterator<Item = usize>,
) {
    let (mut a, mut r) = (0, 0);
    // `usize::MAX` ends the room and flushes the rest.
    for j in deferred.chain([usize::MAX]) {
        loop {
            let (next_admit, next_reject) = (
                admitted.get(a).copied().unwrap_or(usize::MAX),
                rejected.get(r).copied().unwrap_or(usize::MAX),
            );
            if next_admit.min(next_reject) >= j {
                break;
            }
            if next_admit < next_reject {
                rec.record_admission(next_admit, AdmissionDecision::Admit);
                a += 1;
            } else {
                rec.record_admission(next_reject, AdmissionDecision::Reject);
                r += 1;
            }
        }
        if j != usize::MAX {
            rec.record_admission(j, AdmissionDecision::Defer);
        }
    }
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
    arrival: &[u64],
    done_watching: &[bool],
    admitted: &[bool],
    j: usize,
    next_slot: u64,
) -> (usize, f64) {
    let mut n_active = 1usize;
    let mut rate_sum = adm.rates[j];
    for (i, &a) in arrival.iter().enumerate() {
        if i == j || done_watching[i] {
            continue;
        }
        if a < next_slot || admitted[i] {
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
    arrival: &mut [u64],
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
    let candidates: Vec<usize> = (0..arrival.len())
        .filter(|&j| arrival[j] == next_slot)
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
            admission_aggregates_reference(adm, arrival, done_watching, &admitted, j, next_slot);
        let decision = admission_decide(adm, j, n_active, rate_sum, e_star_user, c_kbps, tau);
        if decision == AdmissionDecision::Admit {
            admitted[j] = true;
        }
        admission_apply(
            arrival,
            users,
            done_watching,
            watching,
            j,
            next_slot,
            decision,
        );
        rec.record_admission(j, decision);
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::telemetry::{NullRecorder, TraceRecorder};
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
        Engine::with_churn(
            signals,
            sessions,
            vec![0; n],
            vec![u64::MAX; n],
            scheduler,
            Box::new(ConstantCapacity(KbPerSec(cap_kbps))),
            receiver,
            collector,
            models,
            cfg,
        )
    }

    impl Engine {
        /// A fresh driver stepped to the end.
        fn run(self) -> SimResult {
            let drv = self.build_driver(&mut NullRecorder, None);
            drv.expect("a fresh driver").run(&mut NullRecorder).0
        }
    }

    /// The premise the admission tick's waiting room rests on: between
    /// two admits the verdict is monotone in the candidate's rate — for
    /// any `r1 ≤ r2`, admitting at `r2` implies admitting at `r1`.
    /// Random populations, rate sums, energies, capacities, slot lengths
    /// and weights under each budget set (none, Ω alone, Φ alone, both),
    /// with `E* = 0` and `C = 0` among them, and rates on both sides of
    /// the ε̂ = 0 edge, where the active rates plus the candidate's reach
    /// the capacity.
    #[test]
    fn admissible_is_monotone_in_the_rate() {
        let mut rng = StdRng::seed_from_u64(29);
        let (mut on_edge, mut passed, mut failed) = (0, 0, 0);
        for case in 0..20_000u32 {
            let n_active = rng.random_range(1..500usize);
            let others = n_active as f64 * rng.random_range(0.0..1_000.0);
            let e_star = match case % 4 {
                0 => 0.0,
                _ => rng.random_range(0.0..3_000.0),
            };
            let c_kbps = match case % 16 {
                1 => 0.0,
                _ => rng.random_range(0.0..400_000.0),
            };
            let tau = rng.random_range(0.05..2.0);
            let v = rng.random_range(0.01..100.0);
            let omega_s = (case % 2 == 0).then(|| rng.random_range(1e-4..2.0));
            let phi_mj = (case / 2 % 2 == 0).then(|| rng.random_range(10.0..5_000.0));
            let ctl = AdmissionController::new(
                AdmissionSpec::Feasibility {
                    v,
                    omega_s,
                    phi_mj,
                    max_defer_slots: 30,
                },
                1,
            );
            let ctx = |r: f64| admission_context(v, n_active, others + r, e_star, c_kbps, tau);
            let edge = (c_kbps - others).max(0.0);
            let mut rates = vec![0.0, edge, edge.next_down().max(0.0), edge.next_up()];
            rates.extend((0..8).map(|_| rng.random_range(0.0..2_000.0)));
            rates.sort_by(f64::total_cmp);
            on_edge += usize::from(ctx(edge).eps_s == 0.0);
            let verdicts: Vec<bool> = rates.iter().map(|&r| ctl.admissible(&ctx(r))).collect();
            let first_fail = verdicts.iter().position(|&pass| !pass);
            if let Some(k) = first_fail {
                assert!(
                    verdicts[k..].iter().all(|&pass| !pass),
                    "case {case}: rates {rates:?} gave {verdicts:?}"
                );
            }
            passed += usize::from(verdicts[0]);
            failed += usize::from(first_fail.is_some());
        }
        // Not vacuous: both verdicts, and the exact edge, occur.
        assert!(
            passed > 1_000 && failed > 1_000,
            "{passed} passed, {failed} failed"
        );
        assert!(on_edge > 100, "ε̂ = 0 hit {on_edge} times");
    }

    /// The driver reproduces the reference loop bit for bit — results
    /// *and* full trace bytes — on one engine with series recording on
    /// (the integration suites widen this to churn, faults and ABR).
    #[test]
    fn driver_matches_reference_bitwise() {
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
        let drv = mk().build_driver(&mut rec, None).expect("fresh driver");
        let driven = scrub(drv.run(&mut rec).0);
        let driven_trace = rec.into_trace("DefaultMax").to_jsonl();
        let mut rec = TraceRecorder::new().with_live_counts();
        let reference = scrub(mk().run_reference(&mut rec));
        assert_eq!(driven, reference);
        assert_eq!(driven_trace, rec.into_trace("DefaultMax").to_jsonl());
    }

    /// `finish` is callable at any point: a driver finished after 50
    /// slots of a 200-slot horizon yields the result of a 50-slot run.
    #[test]
    fn finishing_early_yields_the_slots_run_so_far() {
        let mk = |slots| {
            small_engine(
                3,
                40_000.0,
                400.0,
                -80.0,
                900.0,
                slots,
                Box::new(DefaultMax::new()),
            )
        };
        let mut drv = mk(200)
            .build_driver(&mut NullRecorder, None)
            .expect("fresh driver");
        for _ in 0..50 {
            drv.step(&mut NullRecorder);
        }
        let early = drv.finish(&mut NullRecorder);
        let short = mk(50).run();
        assert_eq!(early.slots_run, 50);
        assert_eq!(early.per_user, short.per_user);
        assert_eq!(early.power_series_j, short.power_series_j);
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

    /// A pass-through collector's rows are in place from the build, but
    /// nothing has been reported before the first slot: a sidecar taken
    /// then carries no rows and the report cache as built, a driver
    /// resumed from it says the same, and one slot later both are there —
    /// the absent user's row at the bound of the placeholder signal.
    #[test]
    fn sidecar_before_the_first_slot_carries_no_rows() {
        let engine = || {
            small_engine(
                3,
                10_000.0,
                400.0,
                -80.0,
                700.0,
                50,
                Box::new(DefaultMax::new()),
            )
        };
        let mut drv = engine()
            .build_driver(&mut NullRecorder, None)
            .expect("fresh driver");
        drv.defer_all_arrivals().expect("before the first slot");
        drv.set_arrival(1, 0).expect("schedule");
        let before = drv.checkpoint(&NullRecorder).expect("checkpoint");
        assert!(before.loop_state.snapshots.is_empty());
        assert!(before.collector.cached_signal.iter().all(Option::is_none));

        let resumed = engine()
            .build_driver(&mut NullRecorder, Some(&before))
            .expect("resumed driver");
        let again = resumed.checkpoint(&NullRecorder).expect("checkpoint");
        assert_eq!(
            again.to_json().expect("serialize"),
            before.to_json().expect("serialize")
        );

        drv.step(&mut NullRecorder);
        let after = drv.checkpoint(&NullRecorder).expect("checkpoint");
        let rows = &after.loop_state.snapshots;
        assert_eq!(rows.len(), 3);
        assert!(rows[1].active && rows[1].signal == Dbm(-80.0));
        for absent in [&rows[0], &rows[2]] {
            let cap = drv.engine.collector.link_cap(Dbm(0.0));
            assert!(cap > 0, "0 dBm is a strong signal");
            let expect = RawUserState::ABSENT.as_reported(absent.id, Dbm(0.0), cap);
            assert_eq!(*absent, expect);
        }
        let cached = &after.collector.cached_signal;
        assert_eq!(
            cached[..],
            [Some(Dbm(0.0)), Some(Dbm(-80.0)), Some(Dbm(0.0))]
        );
    }

    /// A pool of 100 000 rows stays under glibc's 32 MiB mmap-threshold
    /// ceiling (see [`UserSim`]): a field added to the row belongs in
    /// the window slab or a column unless the pool can afford it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn pool_row_size() {
        let row = std::mem::size_of::<UserSim>();
        assert!(row <= 328, "UserSim is {row} bytes");
        assert!(100_000 * row < 32 << 20);
    }
}
