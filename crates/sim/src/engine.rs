//! The slotted multi-user simulation engine.
//!
//! Each slot `n` executes the paper's §III pipeline:
//!
//! 1. the BS capacity `S(n)` is sampled and origin arrivals are ingested
//!    into the Data Receiver;
//! 2. every client advances its playback buffer by Eq. (7) and accrues
//!    Eq. (8) rebuffering;
//! 3. the Information Collector snapshots cross-layer state (RSSI,
//!    `pᵢ(n)`, occupancy, RRC idle time) into a
//!    [`jmso_gateway::SlotContext`];
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
//! # One slot, three phases, a lane per cell
//!
//! Per slot the paper couples users through one constraint only, Eq. (2)
//! `Σφᵢ(n) ≤ C(n)`; everything else is per user. And it runs one
//! scheduler per base station, "managing the resources of each BS
//! independently" (§III-A): across cells nothing changes but *which*
//! budget `C_c(n)` a user's grant counts against. So the slot is written
//! once, as three phase functions over a [`SlotDriver`]'s state, and the
//! budget side is split per cell (a *lane* is one cell's scheduler,
//! capacity model, transmitter, budget and grants):
//!
//! | phase | does |
//! |---|---|
//! | A | arrival gate; for every live user the signal block + Eq. (1) cap table, the Eq. (7)/(8) playback advance and the ground-truth row; for a pass-through collector the snapshot rows |
//! | B | with more than one lane the slot's mobility (handovers drawn, member lists and the left cell's row updated); every lane's Eq. (2) budget (fault-adjusted), fault notes, origin ingest; the collector pass when it is not pass-through; per lane its rows (with more than one lane), `allocate_into` and `transmit_into` over the rows its context lists (the live list, or with more than one lane the cell's members) out of the one receiver; scheduler latency, grants, queues and degradations to the recorder in cell order |
//! | C | one walk of the live list: delivery, ABR staging, Eq. (3)–(5) accounting, and per user its RRC transitions and record, the E\* and series folds and its `done` flip; then ABR commits, live-list compaction and the admission tick — the arrivals that came due join a waiting room, the rule is evaluated O(log n) times per admit, the users whose deferral cap ran out are rejected, and nobody deferred is visited (their rulings go to an enabled recorder only) |
//!
//! A [`Scenario`](crate::scenario::Scenario) run has one lane, which
//! schedules straight off the columns' rows; a
//! [`MultiCellScenario`](crate::multicell::MultiCellScenario) run has
//! `n_cells`, and phases A and C do not know: queues, playback, radios
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
//! `Engine::run_reference` (`engine/reference.rs`) is the executable
//! specification: the plain all-users, sample-per-slot loop, which must
//! produce identical results and trace bytes.
//!
//! The child modules split the rest by concern: the phases
//! (`engine/phases.rs`), the admission tick (`engine/admission_tick.rs`),
//! the stepping API (`engine/driver.rs`) and the sidecar
//! (`engine/ckpt.rs`); this file keeps the run's types and their build.

use crate::error::{CheckpointError, SimError};
use crate::faults::FaultPlan;
use crate::results::{SimResult, UserResult};
use crate::telemetry::SlotRecorder;
use crate::waiting_room::WaitingRoom;
use admission_tick::planned_arrivals;
use jmso_gateway::bs::CapacityModel;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::{
    AdmissionController, AdmissionSpec, Allocation, DataReceiver, DataTransmitter, Delivery,
    InformationCollector, Scheduler, UnitParams, UserSnapshot,
};
use jmso_media::{AbrClient, AbrSpec, ClientPlayback, VideoSession};
use jmso_radio::signal::{SignalKind, SignalModel};
use jmso_radio::{Dbm, EnergyMeter, RrcMachine, SignalSpec};
use jmso_sched::CrossLayerModels;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

mod admission_tick;
mod ckpt;
mod driver;
mod phases;
mod reference;

pub use ckpt::{EngineCheckpoint, SidecarPrinter};
pub(crate) use driver::CellStats;
pub use driver::{SlotDriver, SlotWork};

/// Slots sampled per `SignalModel::sample_into` block in the hot loop.
const SIG_BLOCK_SLOTS: usize = 32;

/// [`UserSim::window`] of a user who has not entered a live list.
const NO_WINDOW: u32 = u32::MAX;

/// Per-user simulation state: the pool's row, built for every user id
/// and written only for the users a run serves. What only a live
/// session needs — the signal model and its RNG, the 32-slot windows
/// that signal is read from, the Eq. (3) memo — is in the driver's slab
/// ([`Window`]), built at the user's first entry, and the arrival and
/// departure slots, which the admission tick and phase A read for users
/// whose rows they do not otherwise touch, are dense columns
/// ([`Columns::arrival`] and [`Columns::departure`]). A row nothing
/// writes keeps the result the build folded it to
/// ([`LoopState::per_user`]).
///
/// The row is plain data — no field owns heap memory, so nothing has to
/// visit the rows when the pool is released — and 280 bytes, so a
/// 100 000-user pool is 28 MB: the assertion below pins the first,
/// `pool_row_size` the second.
struct UserSim {
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
}

const _: () = assert!(!std::mem::needs_drop::<UserSim>());

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
/// first entry into a live list to the end of the run: the signal model
/// the user sees and the windows it is read from.
struct Window {
    /// The user it belongs to: a slab lists who ever went live.
    user: usize,
    /// The user's signal model and its RNG, built at first entry. No
    /// sample is drawn before it, so this is the stream a model built
    /// with the pool would draw.
    signal: SignalKind,
    /// Samples drawn from `signal` so far. A restore rebuilds the model
    /// and fast-forwards its RNG by replaying exactly this many (the
    /// block-sampling contract makes replay order irrelevant).
    sig_samples: u64,
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
    /// `user`'s window before any sample is drawn from `signal`; its
    /// RSSI fields are what a user who never went live exports.
    fn new(user: usize, signal: SignalKind) -> Self {
        Self {
            user,
            signal,
            sig_samples: 0,
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

/// What the slot carries from phase to phase for the users in the cell:
/// the live list, the arrival queue and the radio windows.
struct LiveState {
    /// Users whose accounting can still move, ascending (in-order
    /// insertion, order-preserving compaction) — the reference loop's
    /// plain `0..n` order, so every floating-point fold over them sums in
    /// that order.
    live: Vec<usize>,
    /// Min-heap of `(arrival_slot, user)` for users not yet live, drained
    /// at the top of phase A. A live `set_arrival` reschedule pushes a
    /// fresh entry and leaves the old one behind to be dropped on pop
    /// (or by a rebuild, once there are more than two per user).
    /// Empty under feasibility admission, whose tick feeds the gate
    /// instead.
    arrival_queue: BinaryHeap<Reverse<(u64, usize)>>,
    /// The radio windows of the users who ever went live, in the order
    /// they first did ([`UserSim::window`] indexes it; a restore lays
    /// down its users' in id order). It grows as users go live, so its
    /// size is who went live, not who could have.
    windows: Vec<Window>,
    /// Batch-throughput scratch for the per-block cap-table refill.
    v_scratch: [f64; SIG_BLOCK_SLOTS],
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
    /// Session fully fetched *and* watched (monotone).
    done: Vec<bool>,
    /// Left the live list: playback over and the RRC tail drained, so
    /// every further slot would charge exactly 0 mJ. The idle slots a
    /// retired user sat out are settled on their meter at `finish`.
    retired: Vec<bool>,
    retired_at: Vec<u64>,
}

/// Loop-carried state of phases B and C: the series folds, the fairness
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
    /// phase B and read again by phase C's admission tick.
    bs_cap_units: u64,
    /// `snaps` holds what the collector reports. True from the start
    /// for a pass-through collector, whose report of a user who is not
    /// in the cell is the row the build writes; a collector that holds
    /// or perturbs reports makes it true with its first full pass.
    rows_primed: bool,
    /// Rows the latest phase B rewrote on the collector's behalf: its
    /// full pass or live-row refresh.
    collector_rows: usize,
    /// Rows the latest phase B's contexts listed, summed over the lanes.
    scheduler_rows: usize,
    /// Each user's result as the build folded their row. The admission
    /// tick re-folds a row it rejects — the only rows a run writes
    /// outside a live list, and nothing writes them again — and the
    /// finish the rows of the users who went live. `None` on a resumed
    /// driver, whose rows came from a sidecar and are all folded at the
    /// finish.
    per_user: Option<Vec<UserResult>>,
}

/// What shapes a slot without changing during the run; copied into
/// phases A and B.
#[derive(Clone, Copy)]
struct Mode {
    /// Reports equal ground truth on every slot, so phase A writes the
    /// snapshot rows itself; otherwise phase B runs the
    /// collector over the raw rows in user order.
    pass_through: bool,
    /// Eq. (1) is read off per-block cap tables: sound only when the
    /// reported signal is exactly the sampled one — a pass-through
    /// collector and no fault hook perturbing signals after sampling.
    /// The scalar kernel it replaces is bit-identical by construction.
    tables: bool,
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

/// Which of the two Eq. (2) fault hooks scales a lane's budget (see
/// [`phases::phase_b`]).
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
            scheduler,
            capacity,
            transmitter: DataTransmitter::new(),
            cap_fault,
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
    fn step(&mut self, lanes: &mut [CellLane]) {
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
                // the rest freeze harmlessly.
                if let Some(row) = lanes[from].rows.get_mut(i) {
                    row.remaining_kb = 0.0;
                    row.active = false;
                    row.link_cap_units = 0;
                }
            }
        }
        for (sum, m) in self.occupancy_sums.iter_mut().zip(&self.members) {
            *sum += m.len() as f64;
        }
    }
}

/// What builds each user's signal model, at their first entry into a
/// live list: the scenario's spec, per user id and seed.
pub(crate) struct UserSignals {
    pub(crate) spec: SignalSpec,
    /// The pool size the spec phases users by.
    pub(crate) n_users: usize,
    pub(crate) seed: u64,
}

impl UserSignals {
    /// A fresh window for user `i`, with their signal model.
    fn window(&self, i: usize) -> Window {
        Window::new(i, self.spec.build_kind(i, self.n_users, self.seed))
    }
}

/// The assembled simulator for one scenario, built by the scenario's
/// builder and driven through a [`SlotDriver`].
pub(crate) struct Engine {
    users: Vec<UserSim>,
    signals: UserSignals,
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
    /// Assemble an engine from its parts: one session, arrival slot and
    /// departure slot per user (sessions' volumes become each flow's
    /// origin source bound) and what builds their signals, for a pool of
    /// `signals.n_users`. Before their arrival slot users
    /// neither play, fetch, nor consume energy (their radio is cold); from
    /// their departure slot on (`u64::MAX` = watches to completion) they
    /// abandon playback and stop fetching — the same idempotent state
    /// change the `departure` fault applies. All-zero arrivals and
    /// all-`MAX` departures are the paper's closed, synchronized cell.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn with_churn(
        signals: UserSignals,
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
        assert_eq!(signals.n_users, sessions.len(), "one signal per session");
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
        let users: Vec<UserSim> = sessions
            .into_iter()
            .map(|session| {
                let playback = ClientPlayback::new(session.total_playback_s(), cfg.tau);
                UserSim {
                    session,
                    playback,
                    // Radios start cold (fully idle): the first slot's
                    // promotion is charged with its transmission.
                    rrc: RrcMachine::new_idle(models.rrc),
                    meter: EnergyMeter::new(),
                    window: NO_WINDOW,
                    active_slots: 0,
                    declared_rate_kbps: None,
                }
            })
            .collect();
        let n = users.len();
        Self {
            users,
            signals,
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
    /// slot (phase C, and the reference loop's own).
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

    /// Convert the engine into a [`SlotDriver`] — the set-up every run
    /// path shares. Every run path goes through the driver, so stepping
    /// it from a front-end — with checkpoints, live arrival scheduling,
    /// or degradation between slots — is bit-identical to a batch run by
    /// construction: there is no second slot implementation to drift.
    ///
    /// On resume the checkpoint is restored: component state imports,
    /// per-user RNG fast-forward, and derived state (link-cap tables)
    /// rebuilt. Ends with `begin_run` (a fresh run) or the
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
        let lanes = std::mem::take(&mut self.lanes);
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
            scheduler_rows: 0,
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
            done: vec![false; n_users],
            retired: vec![false; n_users],
            retired_at: vec![0; n_users],
        };
        let mode = Mode {
            pass_through,
            tables: pass_through && self.faults.is_none(),
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
            // makes it after the resume.
            if ls.snapshots.len() == n_users {
                c.snaps.clone_from(&ls.snapshots);
                lp.rows_primed = true;
            }
            // A restored live user whose arrival lies ahead — which only
            // a malformed sidecar carries — re-enters through the gate.
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
        // A restored user who went live gets their window back: the
        // signal model rebuilt and fast-forwarded by the samples it drew,
        // and the block and RSSI the sidecar carries; the caps are
        // derived state, rebuilt from the block, so a resumed run
        // re-enters a block mid-way with the values the straight run
        // would hold. Everyone else takes a window on first entry, and
        // the slab grows with who goes live.
        let mut windows = Vec::new();
        for (i, u) in resume.iter().flat_map(|ck| ck.users.iter().enumerate()) {
            if u.sig_samples == 0 {
                continue;
            }
            let mut w = self.signals.window(i);
            // The block-sampling contract (`sample_into` consumes the
            // stream in slot order) makes skipping the samples one at a
            // time equivalent to the original block cuts.
            w.signal.skip(u.sig_samples);
            w.sig_samples = u.sig_samples;
            w.cur_signal = u.cur_signal;
            for (dst, &v) in w.sig.iter_mut().zip(&u.sig_block) {
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
        let live = LiveState {
            live,
            arrival_queue,
            windows,
            v_scratch: [0.0; SIG_BLOCK_SLOTS],
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

#[cfg(test)]
mod tests {

    use super::admission_tick::admission_context;
    use super::*;
    use crate::telemetry::{NullRecorder, TraceRecorder};
    use jmso_gateway::bs::ConstantCapacity;
    use jmso_gateway::{CollectorSpec, OriginModel};
    use jmso_media::VideoSession;
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
        let signals = UserSignals {
            spec: SignalSpec::Constant { dbm: sig },
            n_users: n,
            seed: 0,
        };
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

    /// E* counts the slot a user finishes in: stepped slot by slot, an
    /// admission run's `user_slots` and `energy_mj` are each live user's
    /// slots and charges from their arrival through the slot their `done`
    /// flag flipped, inclusive — summed in the order the walk folds them.
    #[test]
    fn e_star_counts_the_finishing_slot() {
        /// The latest slot's `(user, mJ)` charges, in record order.
        struct Charges(Vec<(usize, f64)>);
        impl SlotRecorder for Charges {
            fn enabled(&self) -> bool {
                true
            }
            fn record_user(&mut self, id: usize, energy_mj: f64, _: f64) {
                self.0.push((id, energy_mj));
            }
        }
        let mut eng = small_engine(
            4,
            2_000.0,
            400.0,
            -80.0,
            1_100.0,
            100,
            Box::new(DefaultMax::new()),
        );
        eng.arrival = vec![0, 0, 3, 6];
        eng.set_admission(&AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 30,
        });
        let mut rec = Charges(Vec::new());
        let mut drv = eng.build_driver(&mut rec, None).expect("fresh driver");
        let (mut charges, mut flip) = (Vec::new(), vec![u64::MAX; drv.n_users()]);
        while let Some(slot) = drv.step(&mut rec) {
            charges.extend(rec.0.drain(..).map(|(i, e)| (slot, i, e)));
            for (i, &done) in drv.cols.done.iter().enumerate() {
                if done && flip[i] == u64::MAX {
                    flip[i] = slot;
                }
            }
        }
        let (mut user_slots, mut energy_mj) = (0, 0.0);
        for &(slot, i, e) in &charges {
            if slot <= flip[i] {
                user_slots += 1;
                energy_mj += e;
            }
        }
        // Not vacuous: every user went live and finished while live.
        for (i, &at) in flip.iter().enumerate() {
            let charged = |&(slot, j, _): &(u64, usize, f64)| (slot, j) == (at, i);
            assert!(charges.iter().any(charged), "user {i} finished at {at}");
        }
        let adm = drv.engine.admission.as_ref().expect("admission installed");
        assert_eq!(adm.user_slots, user_slots);
        assert_eq!(adm.energy_mj.to_bits(), energy_mj.to_bits());
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

    /// A live feed that reschedules every user 100 times keeps the
    /// arrival queue within two entries per user, and the run it ends
    /// with is the declared batch run of its final schedule, result and
    /// trace bytes alike.
    #[test]
    fn rescheduled_arrivals_keep_the_queue_small() {
        use crate::arrivals::ArrivalSpec;
        use crate::scenario::Scenario;
        let n = 12;
        let mut live = Scenario::paper_default(n).with_seed(5);
        live.slots = 240;
        // Every arrival, provisional or final, falls after the ten slots
        // the feed steps through half way.
        let arrivals: Vec<u64> = (0..n as u64).map(|i| 20 + i * 17 % 200).collect();
        let batch = Scenario {
            arrivals: ArrivalSpec::Declared {
                arrivals: arrivals.clone(),
                departures: vec![None; n],
            },
            ..live.clone()
        };
        let run = |s: &Scenario, drive: &dyn Fn(&mut SlotDriver, &mut TraceRecorder)| {
            let mut rec = s.trace_recorder(1);
            let mut drv = s.driver(&mut rec, None).expect("valid scenario");
            drive(&mut drv, &mut rec);
            while drv.step(&mut rec).is_some() {}
            let mut r = drv.finish(&mut rec);
            r.telemetry = None;
            let trace = rec.into_trace(&r.scheduler).to_jsonl();
            (serde_json::to_string(&r).expect("prints"), trace)
        };
        let fed = run(&batch, &|drv, rec| {
            drv.defer_all_arrivals().expect("before the first slot");
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for round in 0..100 {
                for (user, &a) in arrivals.iter().enumerate() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let slot = if round == 99 { a } else { 20 + x % 220 };
                    drv.set_arrival(user, slot).expect("a valid reschedule");
                    assert!(drv.live.arrival_queue.len() <= 2 * n, "round {round}");
                }
                if round == 50 {
                    for _ in 0..10 {
                        drv.step(rec);
                    }
                }
            }
        });
        assert_eq!(fed, run(&batch, &|_, _| {}));
    }

    /// The row's size (see [`UserSim`], whose lack of drop glue a
    /// compile-time assertion beside it pins), which keeps a pool of
    /// 100 000 rows under glibc's 32 MiB mmap-threshold ceiling: a field
    /// added to the row belongs in the window slab or a column unless
    /// the pool can afford it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn pool_row_size() {
        let row = std::mem::size_of::<UserSim>();
        assert!(row <= 280, "UserSim is {row} bytes");
        assert!(100_000 * row < 32 << 20);
    }
}
