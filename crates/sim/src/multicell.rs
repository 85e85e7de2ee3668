//! Multi-cell simulation with user mobility.
//!
//! The paper deploys its framework at the PDN gateway, "managing the
//! resources of each BS independently" — one Scheduler instance per base
//! station. This module exercises that claim: `n_cells` cells each run
//! their own scheduler and serving budget while users roam between them
//! (a memoryless handover process). A cell's slot context contains *all*
//! users — non-attached users appear with zero link capacity,
//! `remaining_kb == 0`, and `active = false`, so any policy naturally
//! allocates them nothing and per-user policy state (EMA queues,
//! watermark phases) survives handovers without resizing.
//!
//! Each cell keeps a persistent snapshot buffer and a sorted membership
//! list: per slot, only attached users' entries are refreshed (their
//! RSSI→throughput mapping and required rate are computed once, not once
//! per cell), and a handover demotes the user's entry in the old cell in
//! place. Non-attached entries therefore freeze at their
//! last-attached-slot fields — which the zero capacity makes invisible
//! to allocations — turning the per-slot context build from
//! O(n_cells·n_users) into O(n_users + Σ members).
//!
//! The information collector here is the perfect-pass-through variant
//! (per-cell staleness tracking across a changing membership is not
//! meaningful); scenario-level collector settings are ignored and
//! documented as such.
//!
//! A slot is three phase functions, written once: `mc_ground_truth`
//! (serial), `mc_cell_phase` (once per cell, independent of the other
//! cells) and `mc_accounting` (serial, and the only one that talks to
//! the recorder). `run` calls them back to back over every cell;
//! `run_parallel` calls the same three from one resident pool broadcast,
//! each participant taking a contiguous range of cells, a barrier after
//! each phase. A lane stages what its cell decided (grants, deliveries,
//! scheduler latency), and the accounting phase replays it in cell order,
//! so both callers produce the same bytes.

use crate::engine::SIG_BLOCK_SLOTS;
use crate::error::{ScenarioError, SimError};
use crate::faults::{FaultHook, FaultPlan, NoFaults};
use crate::pool::{PhaseCell, SharedSlice, SpinBarrier, WorkerPool};
use crate::results::{SimResult, UserResult};
use crate::scenario::Scenario;
use crate::telemetry::{NullRecorder, SlotRecorder, SlotTrace, TraceRecorder};
use jmso_gateway::bs::CapacityModel;
use jmso_gateway::{Allocation, Scheduler, SlotContext, SnapshotSoA, UnitParams, UserSnapshot};
use jmso_media::{
    generate_sessions, jain_index, AbrClient, AbrInputs, AbrSpec, ClientPlayback, VideoSession,
};
use jmso_radio::rrc::RrcState;
use jmso_radio::signal::{SignalKind, SignalModel};
use jmso_radio::{Dbm, EnergyMeter, KbPerSec, PowerModel, RrcMachine, ThroughputModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::slice::from_ref;
use std::sync::atomic::{AtomicBool, Ordering};

/// Configuration of a multi-cell run. Radio/media/scheduler parameters are
/// borrowed from an embedded single-cell [`Scenario`]; its `capacity` is
/// interpreted per cell.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct MultiCellScenario {
    /// The per-cell parameters (capacity = per-cell serving budget;
    /// `n_users` = total users across all cells; collector settings are
    /// ignored — see module docs).
    pub base: Scenario,
    /// Number of cells, each with its own scheduler instance.
    pub n_cells: usize,
    /// Per-slot probability that a user hands over to another
    /// (uniformly random) cell.
    pub handover_prob: f64,
}

/// Outcome of a multi-cell run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCellResult {
    /// The familiar per-user/aggregate view.
    pub result: SimResult,
    /// Total handovers executed.
    pub handovers: u64,
    /// Mean number of attached users per cell (load balance diagnostic).
    pub mean_cell_occupancy: Vec<f64>,
}

/// The immutable half of a multicell run's ABR state: spec, chunk length
/// in seconds, per-user native rates. The mutable per-user clients live
/// in [`MobileUsers`] (parallel path) or a local (serial path); every
/// ABR touch happens in a serial phase, mirroring the single-cell
/// engine's slot positions exactly.
type AbrMeta = (AbrSpec, f64, Vec<f64>);

/// Build the ABR state for a run, rescaling each session's remaining
/// volume to its starting rung (playback durations are taken before the
/// rescale, as in `Engine::set_abr`). `(None, empty)` without ABR.
fn mc_abr_setup(
    base: &Scenario,
    sessions: &mut [VideoSession],
) -> (Option<AbrMeta>, Vec<AbrClient>) {
    let Some(spec) = &base.abr else {
        return (None, Vec::new());
    };
    let chunk_s = spec.chunk_slots as f64 * base.tau;
    let start = spec.start_rung();
    let native: Vec<f64> = sessions.iter().map(|s| s.bitrate.mean_rate()).collect();
    let clients: Vec<AbrClient> = native
        .iter()
        .map(|&nat| AbrClient::new(&spec.ladder, start, nat, chunk_s))
        .collect();
    for (s, c) in sessions.iter_mut().zip(&clients) {
        let nat = s.bitrate.mean_rate();
        if c.rate_kbps != nat {
            s.rescale_remaining(c.rate_kbps / nat);
        }
    }
    (Some((spec.clone(), chunk_s, native)), clients)
}

/// One cell's private scheduling state: everything the cell phase
/// touches for that cell, and what it stages for the accounting phase.
struct Lane {
    scheduler: Box<dyn Scheduler>,
    capacity: Box<dyn CapacityModel>,
    /// Persistent all-users snapshot buffer (empty until the slot-0
    /// build).
    snaps: Vec<UserSnapshot>,
    soa: SnapshotSoA,
    /// Cached `scheduler.wants_soa()`: the mirror is maintained only for
    /// policies that read it.
    use_soa: bool,
    alloc: Allocation,
    /// The slot's Eq. (2) budget for this cell, units. Capacity models
    /// may be stateful, so each is sampled exactly once per slot.
    cap_units: u64,
    /// `(member, KB)` this cell delivers this slot, ascending by member;
    /// a user is attached to exactly one cell, so the lanes' lists never
    /// name the same user twice.
    delivered: Vec<(usize, f64)>,
    /// Wall-clock cost of this slot's scheduler call (traced runs only).
    sched_ns: u64,
}

/// The shared simulation state of a multicell run: per-user ground
/// truth, client/radio device state, mobility, and series accumulators.
/// Written by the two serial phases, read by every cell phase.
struct MobileUsers {
    signals: Vec<SignalKind>,
    sessions: Vec<VideoSession>,
    playback: Vec<ClientPlayback>,
    rrc: Vec<RrcMachine>,
    meters: Vec<EnergyMeter>,
    active_slots: Vec<u64>,
    attached: Vec<usize>,
    /// `members[c]` mirrors `attached` as a sorted index list, so
    /// per-cell work scales with cell population.
    members: Vec<Vec<usize>>,
    mobility: StdRng,
    handovers: u64,
    occupancy_sums: Vec<f64>,
    cur_sig: Vec<Dbm>,
    rates: Vec<f64>,
    caps: Vec<u64>,
    occupancy: Vec<f64>,
    active_now: Vec<bool>,
    /// Block-sampled RSSI plus (fault-free only) the per-block Eq. (1)
    /// cap tables, exactly as in the single-cell engine: the batch
    /// kernels share the scalar per-element `kernel`s, so table reads
    /// are bit-identical to the scalar calls they replace. The multicell
    /// collector is always pass-through, so the only gate is fault
    /// injection (faults perturb signals after the draw).
    sig_blocks: Vec<[Dbm; SIG_BLOCK_SLOTS]>,
    cap_blocks: Vec<[u64; SIG_BLOCK_SLOTS]>,
    tables_enabled: bool,
    v_scratch: [f64; SIG_BLOCK_SLOTS],
    moved: Vec<(usize, usize)>,
    /// KB delivered to each user this slot, scattered from the lanes.
    delivered_kb: Vec<f64>,
    /// Per-user grant across cells this slot, units (traced runs only).
    combined_units: Vec<u64>,
    fault_notes: Vec<String>,
    finished: Vec<bool>,
    unfinished: usize,
    /// Active set, mirroring the engine's retirement rule: once a user is
    /// finished *and* their RRC tail has drained to Idle, every further
    /// slot would charge exactly 0 mJ and win 0 grants (remaining bytes
    /// gate every ceiling to zero), so the per-slot loops skip them and
    /// the sat-out idle slots are settled on the meters after the run.
    /// Mobility still covers retired users — they keep roaming and keep
    /// counting toward occupancy.
    live: Vec<usize>,
    retired: Vec<bool>,
    retired_at: Vec<u64>,
    slots_run: u64,
    fairness_series: Vec<f64>,
    power_series: Vec<f64>,
    abr_clients: Vec<AbrClient>,
}

/// Phase 1, serial: mobility + handover demotion, then per live user the
/// shared ground truth (block-sampled RSSI, cap tables, playback
/// advance) — computed once per user, not once per cell.
fn mc_ground_truth<F: FaultHook>(
    mc: &MultiCellScenario,
    st: &mut MobileUsers,
    lanes: &mut [Lane],
    units: &UnitParams,
    faults: &F,
    slot: u64,
    abr: Option<&AbrMeta>,
) {
    let base = &mc.base;
    st.slots_run = slot + 1;

    if mc.n_cells > 1 && mc.handover_prob > 0.0 {
        st.moved.clear();
        for (i, cell) in st.attached.iter_mut().enumerate() {
            if st.mobility.random::<f64>() < mc.handover_prob {
                let mut next = st.mobility.random_range(0..mc.n_cells - 1);
                if next >= *cell {
                    next += 1;
                }
                st.moved.push((i, *cell));
                *cell = next;
                st.handovers += 1;
            }
        }
        for &(i, from) in &st.moved {
            let pos = st.members[from]
                .binary_search(&i)
                .expect("member list sync");
            st.members[from].remove(pos);
            let to = st.attached[i];
            let pos = match st.members[to].binary_search(&i) {
                Err(pos) => pos,
                Ok(_) => unreachable!("user cannot already be a member"),
            };
            st.members[to].insert(pos, i);
            // Leaving a cell zeroes the fields that gate allocations;
            // the rest freeze harmlessly. The SoA mirror re-derives its
            // columns from the demoted snapshot (ceiling collapses to 0
            // with the remaining bytes).
            let lane = &mut lanes[from];
            if !lane.snaps.is_empty() {
                lane.snaps[i].remaining_kb = 0.0;
                lane.snaps[i].active = false;
                lane.snaps[i].link_cap_units = 0;
                if lane.use_soa {
                    lane.soa.set_row(&lane.snaps[i], base.tau, base.delta_kb);
                }
            }
        }
    }
    for (sum, m) in st.occupancy_sums.iter_mut().zip(&st.members) {
        *sum += m.len() as f64;
    }

    // Every user is live at slot 0 and the live set only shrinks, so each
    // live user crosses every block boundary; per-user RNG streams keep
    // retired skips from perturbing anyone else's draws.
    let block_off = (slot % SIG_BLOCK_SLOTS as u64) as usize;
    for idx in 0..st.live.len() {
        let i = st.live[idx];
        if block_off == 0 {
            st.signals[i].sample_into(slot, &mut st.sig_blocks[i]);
            if st.tables_enabled {
                base.models
                    .throughput
                    .throughput_into(&st.sig_blocks[i], &mut st.v_scratch);
                for (c, &v) in st.cap_blocks[i].iter_mut().zip(&st.v_scratch) {
                    *c = units.link_cap_units(KbPerSec(v), base.tau);
                }
            }
        }
        st.cur_sig[i] = st.sig_blocks[i][block_off];
        if faults.enabled() {
            // Signal faults follow the user across cells; applied after
            // the RNG draw so streams stay aligned.
            st.cur_sig[i] = faults.adjust_signal(slot, i, st.cur_sig[i]);
            if faults.departed(slot, i) {
                st.sessions[i].cancel_remaining();
                st.playback[i].abandon();
            }
        }
        st.rates[i] = match abr {
            Some(_) => st.abr_clients[i].rate_kbps,
            None => st.sessions[i].rate_at(slot),
        };
        st.caps[i] = if st.tables_enabled {
            st.cap_blocks[i][block_off]
        } else {
            let v = base.models.throughput.throughput(st.cur_sig[i]);
            units.link_cap_units(v, base.tau)
        };
        let o = st.playback[i].begin_slot();
        if o.active {
            st.active_slots[i] += 1;
        }
        st.occupancy[i] = o.occupancy_s;
        st.active_now[i] = o.active;
    }
}

/// Phase 2, once per cell (any order, any thread): refresh the lane's
/// snapshot buffer and SoA mirror — the first slot builds every entry,
/// afterwards only members change — sample the cell budget, schedule,
/// and stage the members' deliveries. Reads the shared state, writes
/// only the lane.
#[allow(clippy::too_many_arguments)]
fn mc_cell_phase<F: FaultHook>(
    mc: &MultiCellScenario,
    st: &MobileUsers,
    lane: &mut Lane,
    units: &UnitParams,
    faults: &F,
    slot: u64,
    cell: usize,
    timed: bool,
) {
    let base = &mc.base;
    // A non-member's row holds the fields that gate allocations at zero.
    let row = |i: usize, member: bool| UserSnapshot {
        id: i,
        signal: st.cur_sig[i],
        rate_kbps: st.rates[i],
        buffer_s: st.occupancy[i],
        remaining_kb: if member {
            st.sessions[i].remaining_kb()
        } else {
            0.0
        },
        active: member && st.active_now[i],
        link_cap_units: if member { st.caps[i] } else { 0 },
        idle_s: st.rrc[i].idle_seconds(),
        rrc_state: st.rrc[i].state(),
    };
    if lane.snaps.is_empty() {
        lane.snaps = (0..base.n_users)
            .map(|i| row(i, st.attached[i] == cell))
            .collect();
        if lane.use_soa {
            lane.soa.fill_from(&lane.snaps, base.tau, base.delta_kb);
        }
    } else {
        for &i in &st.members[cell] {
            // Retired members freeze like non-members: their last
            // refresh already wrote `remaining_kb == 0` (retirement
            // implies fully fetched), which gates every policy's ceiling
            // to zero grants.
            if st.retired[i] {
                continue;
            }
            lane.snaps[i] = row(i, true);
            if lane.use_soa {
                lane.soa.set_row(&lane.snaps[i], base.tau, base.delta_kb);
            }
        }
    }

    let mut cap: KbPerSec = lane.capacity.capacity(slot);
    if faults.enabled() {
        cap = KbPerSec(faults.scale_cell_cap(slot, cell, cap.0));
    }
    lane.cap_units = units.bs_cap_units(cap, base.tau);
    // Every cell still sees an all-users context (stable ids), but only
    // its members carry capacity.
    let ctx = SlotContext {
        slot,
        tau: base.tau,
        delta_kb: base.delta_kb,
        bs_cap_units: lane.cap_units,
        users: &lane.snaps,
        soa: lane.use_soa.then_some(&lane.soa),
    };
    if timed {
        let t0 = std::time::Instant::now();
        lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
        lane.sched_ns = t0.elapsed().as_nanos() as u64;
    } else {
        lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
    }
    debug_assert!(lane.alloc.validate(&ctx).is_ok());
    // Non-members hold zero capacity, so only members can be granted
    // units (every policy clamps by the link bound).
    lane.delivered.clear();
    for &i in &st.members[cell] {
        let units_granted = lane.alloc.0[i];
        if units_granted > 0 {
            let kb = (units_granted as f64 * base.delta_kb).min(st.sessions[i].remaining_kb());
            lane.delivered.push((i, kb));
        }
    }
}

/// Phase 3, serial: everything the recorder hears about the slot, in
/// cell order then user order — the slot's summed budget, fault notes,
/// each cell's degradations, the summed scheduler latency and the
/// combined grants — then device accounting for the live users (a
/// retired user's slot would deliver nothing, charge 0 mJ and record a
/// zero trace row: all no-ops), the optional fairness/power series and
/// the ABR commits. Returns `true` when every session is fetched *and*
/// played out.
fn mc_accounting<R: SlotRecorder, F: FaultHook>(
    mc: &MultiCellScenario,
    st: &mut MobileUsers,
    lanes: &[Lane],
    faults: &F,
    slot: u64,
    abr: Option<&AbrMeta>,
    rec: &mut R,
) -> bool {
    let base = &mc.base;
    let n = base.n_users;
    rec.begin_slot(slot, lanes.iter().map(|l| l.cap_units).sum());
    if faults.enabled() && rec.enabled() {
        st.fault_notes.clear();
        faults.notes_into(slot, &mut st.fault_notes);
        for note in &st.fault_notes {
            rec.record_fault(note);
        }
    }
    st.delivered_kb.fill(0.0);
    for lane in lanes {
        for &(i, kb) in &lane.delivered {
            st.delivered_kb[i] = kb;
        }
    }
    if rec.enabled() {
        // Queue values are not recorded: each cell has its own
        // scheduler, so no single queue vector describes the slot.
        for (lane, members) in lanes.iter().zip(&st.members) {
            let deg = lane.scheduler.degradations();
            if !deg.is_empty() {
                rec.record_degradations(deg);
            }
            for &i in members {
                st.combined_units[i] = lane.alloc.0[i];
            }
        }
        rec.record_sched_latency_ns(lanes.iter().map(|l| l.sched_ns).sum());
        rec.record_alloc(&st.combined_units);
    }

    let mut slot_energy_mj = 0.0;
    let mut any_retired = false;
    for idx in 0..st.live.len() {
        let i = st.live[idx];
        let d = st.delivered_kb[i];
        let slot_e = if d > 0.0 {
            let accepted = st.sessions[i].deliver(d);
            st.playback[i].deliver(accepted, st.rates[i]);
            if let Some((spec, chunk_s, native)) = abr {
                st.abr_clients[i].on_delivery(
                    accepted,
                    st.sessions[i].fully_fetched(),
                    &spec.ladder,
                    &spec.policy,
                    native[i],
                    *chunk_s,
                    AbrInputs {
                        buffer_s: st.occupancy[i],
                        predicted_kbps: st.caps[i] as f64 * base.delta_kb / base.tau,
                    },
                );
            }
            // Transmission energy stays on the scalar kernel — see the
            // engine on why an eager P(sig) table costs more than it
            // saves.
            let e = base
                .models
                .power
                .transmission_energy(st.cur_sig[i], accepted);
            if rec.enabled() {
                st.rrc[i].on_transmit_observed(|f, t| rec.record_rrc_transition(i, f, t));
            } else {
                st.rrc[i].on_transmit();
            }
            st.meters[i].record_transmission(e);
            e.value()
        } else {
            let e = if rec.enabled() {
                st.rrc[i].on_idle_observed(base.tau, |f, t| rec.record_rrc_transition(i, f, t))
            } else {
                st.rrc[i].on_idle(base.tau)
            };
            st.meters[i].record_tail(e);
            e.value()
        };
        slot_energy_mj += slot_e;
        rec.record_user(i, slot_e, st.playback[i].total_rebuffer_s());
        if !st.finished[i] && st.sessions[i].fully_fetched() && st.playback[i].playback_complete() {
            st.finished[i] = true;
            st.unfinished -= 1;
        }
        if st.finished[i] && st.rrc[i].state() == RrcState::Idle {
            st.retired[i] = true;
            st.retired_at[i] = slot;
            any_retired = true;
        }
    }
    if any_retired {
        let retired = &st.retired;
        st.live.retain(|&i| !retired[i]);
    }
    if base.record_series {
        let shares: Vec<f64> = (0..n)
            .filter(|&i| st.sessions[i].remaining_kb() > 0.0 || st.delivered_kb[i] > 0.0)
            .map(|i| {
                let d = st.delivered_kb[i];
                let need = (base.tau * st.rates[i]).min(st.sessions[i].remaining_kb() + d);
                if need > 0.0 {
                    d / need
                } else {
                    1.0
                }
            })
            .collect();
        if !shares.is_empty() {
            st.fairness_series.push(jain_index(&shares));
        }
        st.power_series.push(slot_energy_mj / 1000.0);
    }
    // Commit rung switches staged this slot: after the series, before
    // the early-exit decision.
    if let Some((spec, _, native)) = abr {
        for (i, &nat) in native.iter().enumerate().take(n) {
            if let Some(sw) = st.abr_clients[i].apply_pending(&spec.ladder, nat) {
                st.sessions[i].rescale_remaining(sw.ratio);
                rec.record_abr_switch(i, sw.from, sw.to);
            }
        }
    }
    rec.end_slot();
    st.unfinished == 0
}

impl MultiCellScenario {
    /// Validate and run.
    pub fn run(&self) -> Result<MultiCellResult, SimError> {
        self.run_with(&mut NullRecorder)
    }

    /// The checks every run path starts with, then the base scenario's
    /// fault spec compiled against this many cells (`None` keeps the
    /// fault-free run monomorphized on [`NoFaults`]). Feasibility
    /// admission control reasons about one serving budget; with
    /// independent per-cell budgets and roaming there is no single
    /// capacity to bound against, so multicell runs only accept
    /// `AlwaysAdmit` (a no-op) or no admission spec at all.
    fn compiled_faults(&self) -> Result<Option<FaultPlan>, ScenarioError> {
        self.base.validate()?;
        if self
            .base
            .admission
            .as_ref()
            .is_some_and(|a| !a.is_always_admit())
        {
            return Err(ScenarioError::new(
                "admission",
                "feasibility admission control is single-cell only",
            ));
        }
        if self.n_cells == 0 {
            return Err(ScenarioError::new("n_cells", "must be positive"));
        }
        if !(0.0..=1.0).contains(&self.handover_prob) {
            return Err(ScenarioError::new("handover_prob", "must be in [0, 1]"));
        }
        if self.base.faults.is_none() {
            return Ok(None);
        }
        let (n, slots) = (self.base.n_users, self.base.slots);
        Ok(Some(self.base.faults.compile(n, slots, self.n_cells)?))
    }

    /// [`MultiCellScenario::run`] with each slot's cell phase spread over
    /// the shared [`WorkerPool`]: `threads` lockstep participants each
    /// own a contiguous range of cells, meeting at a [`SpinBarrier`]
    /// between the three per-slot phases — serial ground truth, per-cell
    /// scheduling, serial accounting. The phases are the functions
    /// [`MultiCellScenario::run`] calls back to back, each cell's
    /// scheduler and capacity model see exactly the serial call sequence
    /// and each user is delivered to by exactly one cell, so the outcome
    /// equals [`MultiCellScenario::run`] bit for bit (pinned by tests).
    ///
    /// `threads == 0` means one participant per available CPU. The
    /// effective width is clamped to `n_cells` and the pool size; at
    /// width 1 this is [`MultiCellScenario::run`].
    pub fn run_parallel(&self, threads: usize) -> Result<MultiCellResult, SimError> {
        let hw = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let requested = if threads == 0 { hw } else { threads };
        let width = requested
            .min(self.n_cells)
            .min(WorkerPool::global().n_workers() + 1);
        if width <= 1 {
            return self.run();
        }
        let rec = &mut NullRecorder;
        Ok(match self.compiled_faults()? {
            None => self.simulate_parallel(width, rec, &NoFaults),
            Some(plan) => self.simulate_parallel(width, rec, &plan),
        })
    }

    /// [`MultiCellScenario::run`] with a [`SlotRecorder`] observing every
    /// slot. Per-slot telemetry aggregates over cells: the capacity is
    /// the sum of per-cell budgets, the allocation is the combined
    /// per-user grant, and the scheduler latency covers all cells'
    /// decisions.
    ///
    /// The base scenario's `faults` apply here with per-cell semantics:
    /// `CellOutage`/`CellDegradation` hit their own cell's budget, deep
    /// fades and link outages follow the user across cells, and
    /// departures abandon the session. Late-arrival churn is a
    /// single-cell feature (all multicell users attach at slot 0) and is
    /// ignored.
    pub fn run_with<R: SlotRecorder>(&self, rec: &mut R) -> Result<MultiCellResult, SimError> {
        Ok(match self.compiled_faults()? {
            None => self.simulate(rec, &NoFaults),
            Some(plan) => self.simulate(rec, &plan),
        })
    }

    /// Run with a capturing [`TraceRecorder`] (one record per `every`
    /// slots); returns the result plus the trace.
    pub fn run_traced(&self, every: u64) -> Result<(MultiCellResult, SlotTrace), SimError> {
        let mut rec = TraceRecorder::new().with_every(every);
        let result = self.run_with(&mut rec)?;
        let trace = rec.into_trace(&result.result.scheduler);
        Ok((result, trace))
    }

    /// The state a run starts from — every user attached round-robin and
    /// live, one lane per cell — and the recorder told the run begins.
    fn setup<R: SlotRecorder>(
        &self,
        tables_enabled: bool,
        rec: &mut R,
    ) -> (MobileUsers, Vec<Lane>, Option<AbrMeta>) {
        let base = &self.base;
        let n = base.n_users;

        let mut sessions = generate_sessions(&base.workload, n, base.seed);
        let playback: Vec<ClientPlayback> = sessions
            .iter()
            .map(|s| ClientPlayback::new(s.total_playback_s(), base.tau))
            .collect();
        let (abr_meta, abr_clients) = mc_abr_setup(base, &mut sessions);
        // Initial attachment spreads users round-robin; mobility is a
        // seeded memoryless process.
        let attached: Vec<usize> = (0..n).map(|i| i % self.n_cells).collect();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.n_cells];
        for (i, &c) in attached.iter().enumerate() {
            members[c].push(i);
        }
        let st = MobileUsers {
            signals: (0..n)
                .map(|i| base.signal.build_kind(i, n, base.seed))
                .collect(),
            sessions,
            playback,
            rrc: (0..n)
                .map(|_| RrcMachine::new_idle(base.models.rrc))
                .collect(),
            meters: (0..n).map(|_| EnergyMeter::new()).collect(),
            active_slots: vec![0; n],
            attached,
            members,
            mobility: StdRng::seed_from_u64(base.seed ^ 0x0B17_E0CE_1100),
            handovers: 0,
            occupancy_sums: vec![0.0; self.n_cells],
            cur_sig: vec![Dbm(0.0); n],
            rates: vec![0.0; n],
            caps: vec![0; n],
            occupancy: vec![0.0; n],
            active_now: vec![false; n],
            sig_blocks: vec![[Dbm(0.0); SIG_BLOCK_SLOTS]; n],
            cap_blocks: vec![[0; SIG_BLOCK_SLOTS]; if tables_enabled { n } else { 0 }],
            tables_enabled,
            v_scratch: [0.0; SIG_BLOCK_SLOTS],
            moved: Vec::new(),
            delivered_kb: vec![0.0; n],
            combined_units: vec![0; if rec.enabled() { n } else { 0 }],
            fault_notes: Vec::new(),
            finished: vec![false; n],
            unfinished: n,
            live: (0..n).collect(),
            retired: vec![false; n],
            retired_at: vec![0; n],
            slots_run: 0,
            fairness_series: Vec::new(),
            power_series: Vec::new(),
            abr_clients,
        };
        let lanes = (0..self.n_cells)
            .map(|_| {
                let scheduler = base.scheduler.build(base.tau, &base.models);
                let use_soa = scheduler.wants_soa();
                Lane {
                    scheduler,
                    capacity: base.capacity.build(),
                    snaps: Vec::new(),
                    soa: SnapshotSoA::new(),
                    use_soa,
                    alloc: Allocation::zeros(n),
                    cap_units: 0,
                    delivered: Vec::new(),
                    sched_ns: 0,
                }
            })
            .collect();
        rec.begin_run(n, base.tau);
        (st, lanes, abr_meta)
    }

    /// The three phases back to back, every cell in turn: safe code only.
    fn simulate<R: SlotRecorder, F: FaultHook>(&self, rec: &mut R, faults: &F) -> MultiCellResult {
        let base = &self.base;
        let units = UnitParams::new(base.delta_kb);
        let timed = rec.enabled();
        let (mut st, mut lanes, abr) = self.setup(!faults.enabled(), rec);
        let abr = abr.as_ref();
        for slot in 0..base.slots {
            mc_ground_truth(self, &mut st, &mut lanes, &units, faults, slot, abr);
            for (cell, lane) in lanes.iter_mut().enumerate() {
                mc_cell_phase(self, &st, lane, &units, faults, slot, cell, timed);
            }
            if mc_accounting(self, &mut st, &lanes, faults, slot, abr, rec) {
                break;
            }
        }
        self.finish(st, &lanes, rec)
    }

    /// The same three phases in lockstep: participant `p` runs the cell
    /// phase of a contiguous range of cells, participant 0 the two
    /// serial phases. One broadcast for the whole run: participants stay
    /// resident and pay three barrier crossings per slot, not a dispatch.
    fn simulate_parallel<R: SlotRecorder + Send, F: FaultHook + Sync>(
        &self,
        width: usize,
        rec: &mut R,
        faults: &F,
    ) -> MultiCellResult {
        let base = &self.base;
        let units = UnitParams::new(base.delta_kb);
        let timed = rec.enabled();
        let (mut st, mut lanes, abr) = self.setup(!faults.enabled(), rec);
        let abr = abr.as_ref();
        let ranges: Vec<Range<usize>> = (0..width)
            .map(|p| p * self.n_cells / width..(p + 1) * self.n_cells / width)
            .collect();
        let every_lane = 0..self.n_cells;
        let shared_lanes = SharedSlice::new(&mut lanes);
        let serial = PhaseCell::new((&mut st, &mut *rec));
        let barrier = SpinBarrier::new(width);
        let quit = AtomicBool::new(false);
        WorkerPool::global().broadcast(width, &|p| {
            for slot in 0..base.slots {
                if p == 0 {
                    // SAFETY: serial phase — every other participant is
                    // parked at the barrier below.
                    let ((st, _), lanes) = unsafe {
                        (
                            serial.get_mut(),
                            shared_lanes.shard_mut(from_ref(&every_lane), 0),
                        )
                    };
                    mc_ground_truth(self, st, lanes, &units, faults, slot, abr);
                }
                barrier.wait();
                {
                    // SAFETY: cell phase — nobody writes the shared
                    // state, and lanes `ranges[p]` are this participant's
                    // until the barrier below.
                    let ((st, _), mine) =
                        unsafe { (serial.get(), shared_lanes.shard_mut(&ranges, p)) };
                    for (lane, cell) in mine.iter_mut().zip(ranges[p].clone()) {
                        mc_cell_phase(self, st, lane, &units, faults, slot, cell, timed);
                    }
                }
                barrier.wait();
                if p == 0 {
                    // SAFETY: serial phase, as above.
                    let ((st, rec), lanes) = unsafe {
                        (
                            serial.get_mut(),
                            shared_lanes.shard_mut(from_ref(&every_lane), 0),
                        )
                    };
                    if mc_accounting(self, st, lanes, faults, slot, abr, &mut **rec) {
                        quit.store(true, Ordering::Relaxed);
                    }
                }
                barrier.wait();
                if quit.load(Ordering::Relaxed) {
                    break;
                }
            }
        });
        self.finish(st, &lanes, rec)
    }

    /// Settle end-of-run accounting and fold the result.
    fn finish<R: SlotRecorder>(
        &self,
        mut st: MobileUsers,
        lanes: &[Lane],
        rec: &mut R,
    ) -> MultiCellResult {
        let base = &self.base;
        let n = base.n_users;
        rec.end_run();

        // Settle the idle slots the retired users sat out: each would have
        // recorded one zero-energy tail slot per remaining loop iteration.
        for i in 0..n {
            if st.retired[i] {
                st.meters[i].record_saturated_idle_slots(st.slots_run - 1 - st.retired_at[i]);
            }
        }
        let per_user = (0..n)
            .map(|i| UserResult {
                rebuffer_s: st.playback[i].total_rebuffer_s(),
                stall_slots: st.playback[i].stall_slots(),
                startup_slots: st.playback[i].startup_slots(),
                watched_s: st.playback[i].played_s(),
                playback_complete: st.playback[i].playback_complete(),
                fetched_kb: st.sessions[i].received_kb(),
                energy: st.meters[i].breakdown(),
                active_slots: st.active_slots[i],
                tx_slots: st.meters[i].slots_transmitting(),
                idle_slots: st.meters[i].slots_idle(),
                rate_kbps: st.sessions[i].bitrate.mean_rate(),
                video_kb: st.sessions[i].total_kb,
            })
            .collect();

        MultiCellResult {
            result: SimResult {
                scheduler: lanes[0].scheduler.name().to_string(),
                per_user,
                slots_run: st.slots_run,
                slots_configured: base.slots,
                tau_s: base.tau,
                fairness_series: st.fairness_series,
                fairness_window_series: vec![],
                power_series_j: st.power_series,
                telemetry: rec.summary(),
                warnings: vec![],
            },
            handovers: st.handovers,
            mean_cell_occupancy: st
                .occupancy_sums
                .into_iter()
                .map(|s| s / st.slots_run as f64)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultEvent, FaultSpec};
    use jmso_gateway::bs::CapacitySpec;
    use jmso_media::WorkloadSpec;
    use jmso_sched::SchedulerSpec;

    fn base(n_users: usize) -> Scenario {
        let mut s = Scenario::paper_default(n_users);
        s.slots = 600;
        s.capacity = CapacitySpec::Constant { kbps: 2_000.0 };
        s.workload = WorkloadSpec {
            size_range_kb: (5_000.0, 10_000.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        };
        s
    }

    fn multi(n_users: usize, n_cells: usize, p: f64) -> MultiCellScenario {
        MultiCellScenario {
            base: base(n_users),
            n_cells,
            handover_prob: p,
        }
    }

    #[test]
    fn single_cell_degenerate_matches_shape() {
        // One cell, no mobility: same machinery as the single-cell engine.
        let m = multi(4, 1, 0.0).run().expect("runs");
        assert_eq!(m.handovers, 0);
        assert_eq!(m.result.n_users(), 4);
        assert_eq!(m.result.completion_rate(), 1.0);
        assert!((m.mean_cell_occupancy[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mobility_moves_users() {
        let m = multi(8, 4, 0.05).run().expect("runs");
        assert!(m.handovers > 0, "mobility must trigger handovers");
        let total_occ: f64 = m.mean_cell_occupancy.iter().sum();
        assert!(
            (total_occ - 8.0).abs() < 1e-6,
            "users conserved across cells"
        );
    }

    #[test]
    fn sessions_complete_under_roaming() {
        for spec in [
            SchedulerSpec::Default,
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema_fast(0.05),
        ] {
            let mut mc = multi(6, 3, 0.02);
            mc.base.scheduler = spec.clone();
            let m = mc.run().expect("runs");
            assert_eq!(
                m.result.completion_rate(),
                1.0,
                "{spec:?} must complete under roaming"
            );
            for u in &m.result.per_user {
                assert!((u.fetched_kb - u.video_kb).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn more_cells_add_capacity() {
        // Same users, same per-cell budget: 3 cells should rebuffer less
        // than 1 (aggregate capacity triples).
        let one = multi(9, 1, 0.0).run().expect("runs");
        let three = multi(9, 3, 0.01).run().expect("runs");
        assert!(
            three.result.total_rebuffer_s() < one.result.total_rebuffer_s(),
            "3 cells {} s vs 1 cell {} s",
            three.result.total_rebuffer_s(),
            one.result.total_rebuffer_s()
        );
    }

    #[test]
    fn deterministic() {
        let a = multi(6, 3, 0.05).run().expect("runs");
        let b = multi(6, 3, 0.05).run().expect("runs");
        assert_eq!(a, b);
    }

    fn run_err(mc: &MultiCellScenario) -> String {
        match mc.run() {
            Err(e) => e.to_string(),
            Ok(_) => unreachable!("scenario must be rejected"),
        }
    }

    #[test]
    fn validation_errors() {
        let mut mc = multi(4, 2, 0.01);
        mc.n_cells = 0;
        assert!(run_err(&mc).contains("n_cells"));
        let mut mc = multi(4, 2, 0.01);
        mc.handover_prob = 1.5;
        assert!(run_err(&mc).contains("handover_prob"));
    }

    #[test]
    fn cell_fault_must_name_a_real_cell() {
        let mut mc = multi(4, 2, 0.0);
        mc.base.faults = FaultSpec::Declared {
            events: vec![FaultEvent::CellOutage {
                cell: 2,
                from_slot: 0,
                until_slot: 50,
            }],
        };
        let msg = run_err(&mc);
        assert!(msg.contains("cell") && msg.contains("n_cells (2)"), "{msg}");
    }

    #[test]
    fn cell_outage_slows_the_affected_cell() {
        // No mobility: users 0/2 sit in cell 0, users 1/3 in cell 1. An
        // outage on cell 1 must add rebuffering there and leave cell 0
        // untouched.
        let clean = multi(4, 2, 0.0);
        let mut faulted = clean.clone();
        faulted.base.faults = FaultSpec::Declared {
            events: vec![FaultEvent::CellOutage {
                cell: 1,
                from_slot: 0,
                until_slot: 100,
            }],
        };
        let a = clean.run().expect("clean run");
        let b = faulted.run().expect("faulted run");
        assert!(
            b.result.per_user[1].rebuffer_s > a.result.per_user[1].rebuffer_s,
            "cell-1 user must stall during the outage"
        );
        assert_eq!(
            a.result.per_user[0].rebuffer_s, b.result.per_user[0].rebuffer_s,
            "cell-0 user unaffected without mobility"
        );
    }

    #[test]
    fn multicell_faults_are_deterministic() {
        let mut mc = multi(6, 3, 0.05);
        mc.base.faults = FaultSpec::Generated {
            seed: 11,
            n_events: 5,
        };
        let a = mc.run().expect("run a");
        let b = mc.run().expect("run b");
        assert_eq!(a, b);
    }

    /// The lockstep parallel stepper must be indistinguishable from the
    /// serial loop — same RNG draws, same FP summation order, same
    /// per-cell scheduler state sequences — across every policy family.
    #[test]
    fn parallel_matches_serial_across_schedulers() {
        for spec in [
            SchedulerSpec::Default,
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema_fast(0.05),
        ] {
            let mut mc = multi(8, 4, 0.05);
            mc.base.scheduler = spec.clone();
            let serial = mc.run().expect("serial run");
            for threads in [2, 4, 0] {
                let par = mc.run_parallel(threads).expect("parallel run");
                assert_eq!(par, serial, "{spec:?} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_under_faults() {
        let mut mc = multi(6, 3, 0.05);
        mc.base.faults = FaultSpec::Declared {
            events: vec![
                FaultEvent::CellOutage {
                    cell: 1,
                    from_slot: 10,
                    until_slot: 60,
                },
                FaultEvent::Departure { user: 2, slot: 40 },
            ],
        };
        let serial = mc.run().expect("serial run");
        let par = mc.run_parallel(3).expect("parallel run");
        assert_eq!(par, serial);
    }

    #[test]
    fn parallel_is_deterministic_across_repeats_and_widths() {
        let mc = multi(6, 3, 0.05);
        let a = mc.run_parallel(2).expect("run a");
        let b = mc.run_parallel(2).expect("run b");
        let c = mc.run_parallel(3).expect("run c");
        assert_eq!(a, b, "same width must repeat exactly");
        assert_eq!(a, c, "width must not affect the outcome");
    }

    #[test]
    fn parallel_single_width_falls_back_to_serial() {
        // One cell clamps the width to 1 regardless of the request.
        let mc = multi(4, 1, 0.0);
        let par = mc.run_parallel(8).expect("runs");
        let serial = mc.run().expect("runs");
        assert_eq!(par, serial);
    }

    #[test]
    fn parallel_validates_like_serial() {
        let mut mc = multi(4, 2, 0.01);
        mc.handover_prob = 1.5;
        assert!(mc.run_parallel(2).is_err());
    }

    #[test]
    fn serde_roundtrip() {
        let mc = multi(4, 2, 0.1);
        let j = serde_json::to_string(&mc).expect("serializes");
        assert_eq!(
            serde_json::from_str::<MultiCellScenario>(&j).expect("parses"),
            mc
        );
    }
}
