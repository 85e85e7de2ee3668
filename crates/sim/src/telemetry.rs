//! Slot-level telemetry: recorders the engine drives once per slot.
//!
//! The paper's evaluation (§VI) is built on per-slot accounting — energy
//! per slot against the bound `Φ`, virtual rebuffering queues `PCᵢ(n)`,
//! RRC dwell — but [`crate::results::SimResult`] only surfaces end-of-run
//! aggregates. A [`SlotRecorder`] threads through the engine's slot loop
//! and observes, per slot: the allocation vector, per-user energy, RRC
//! state transitions, rebuffering deltas, the scheduler's virtual-queue
//! values, and the scheduler's decision latency.
//!
//! Two implementations are provided:
//!
//! * [`NullRecorder`] — every hook is an empty default, `enabled()` is a
//!   compile-time `false`. Every run path is generic over the
//!   recorder, so the `NullRecorder` instantiation monomorphizes every
//!   hook away and the hot path stays identical to the un-instrumented
//!   loop (the benchmark pins it: `sim.allocs_per_slot`, `trace.overhead_ratio`).
//! * [`TraceRecorder`] — accumulates [`SlotRecord`]s (optionally
//!   downsampled; see [`TraceRecorder::with_every`]) and a
//!   [`TelemetrySummary`].
//!
//! **Determinism contract:** everything that enters a [`SlotRecord`] —
//! and therefore the JSONL export the golden-trace tests diff byte for
//! byte — is derived from simulation state only. Wall-clock scheduler
//! latency goes exclusively into the [`TelemetrySummary`] histogram,
//! which is *not* part of the trace.
//!
//! **Downsampling** keeps the accounting exact: with `every = N`, the
//! per-user energy and rebuffering fields of an emitted record are sums
//! over the whole N-slot window (so window sums still add up to the run
//! totals), while the allocation, capacity, and queue fields are sampled
//! at the emitted slot. A final partial window is flushed by `end_run`.

use crate::error::{atomic_write, TraceError};
use jmso_gateway::{AdmissionDecision, DegradationEvent};
use jmso_radio::rrc::RrcState;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Observer of the engine's per-slot pipeline.
///
/// Hook order per slot: `begin_slot` → `record_sched_latency_ns` +
/// `record_alloc` + `record_queues` (gateway stage) → any number of
/// `record_rrc_transition` / `record_user` calls (device accounting) →
/// `record_live` (open-system population) → `end_slot`. `begin_run`
/// opens a run and resets any prior state; `end_run` closes it (flushing
/// partial windows).
///
/// `record_user` fires at most once per user per slot, indexed by the
/// stable user id; users the engine skips (pre-arrival, or retired by the
/// active-set loop) simply contribute nothing that slot, which is
/// indistinguishable from an explicit zero-energy, zero-delta call — so
/// the hot path and the reference loop produce identical traces.
pub trait SlotRecorder {
    /// Whether the expensive instrumentation (wall-clock timing, virtual
    /// dispatch into the scheduler's queue accessor) should run. Constant
    /// per implementation so the branch folds away under monomorphization.
    fn enabled(&self) -> bool {
        false
    }

    /// A run over `n_users` users with slot length `tau` starts. Radios
    /// are assumed cold (RRC `Idle`), matching the engine's construction.
    fn begin_run(&mut self, n_users: usize, tau: f64) {
        let _ = (n_users, tau);
    }

    /// Slot `slot` starts with an Eq. (2) budget of `bs_cap_units` units.
    fn begin_slot(&mut self, slot: u64, bs_cap_units: u64) {
        let _ = (slot, bs_cap_units);
    }

    /// The scheduler decided this slot's allocation (`φᵢ(n)`, units).
    fn record_alloc(&mut self, alloc: &[u64]) {
        let _ = alloc;
    }

    /// The scheduler's internal per-user queue values after allocating
    /// (EMA's `PCᵢ(n+1)`, RTMA's outstanding need), when it exposes them.
    fn record_queues(&mut self, queues: &[f64]) {
        let _ = queues;
    }

    /// Wall-clock nanoseconds the scheduler spent deciding this slot.
    fn record_sched_latency_ns(&mut self, ns: u64) {
        let _ = ns;
    }

    /// User `id` was charged `energy_mj` this slot (transmission or tail
    /// per the Eq. (5) dichotomy) and has accrued `total_rebuffer_s` of
    /// Eq. (8) rebuffering so far.
    fn record_user(&mut self, id: usize, energy_mj: f64, total_rebuffer_s: f64) {
        let _ = (id, energy_mj, total_rebuffer_s);
    }

    /// User `id`'s radio changed protocol state this slot.
    fn record_rrc_transition(&mut self, id: usize, from: RrcState, to: RrcState) {
        let _ = (id, from, to);
    }

    /// The scheduler degraded gracefully this slot (RTMA best-effort
    /// fallback, EMA virtual-queue clamp, ...).
    fn record_degradations(&mut self, events: &[DegradationEvent]) {
        let _ = events;
    }

    /// A fault window opened or closed (or a departure fired) this slot.
    /// `note` is byte-deterministic, derived from the fault plan alone.
    fn record_fault(&mut self, note: &str) {
        let _ = note;
    }

    /// The slot's live population: users who have arrived and are still
    /// watching after this slot's accounting (pre-arrival, departed, and
    /// finished users excluded). Fired once per slot, just before
    /// `end_slot`, for open-system workloads; derived from simulation
    /// state only, so it is trace-safe.
    fn record_live(&mut self, in_system: u64) {
        let _ = in_system;
    }

    /// User `id`'s ABR client committed a rung switch this slot (applied
    /// in the serial phase, after delivery accounting). Derived from
    /// simulation state only, so it is trace-safe.
    fn record_abr_switch(&mut self, id: usize, from: usize, to: usize) {
        let _ = (id, from, to);
    }

    /// The admission controller ruled on user `id`'s pending arrival this
    /// slot. Decisions are computed from simulation state only, so they
    /// are trace-safe. Called for an [`enabled`](SlotRecorder::enabled)
    /// recorder only — every ruling, deferrals included, in ascending
    /// user order within the slot; the tick never visits the users it
    /// defers unless a recorder asks for them.
    fn record_admission(&mut self, id: usize, decision: AdmissionDecision) {
        let _ = (id, decision);
    }

    /// Slot ends (all per-user accounting for it has been reported).
    fn end_slot(&mut self) {}

    /// The run ends; flush any buffered state.
    fn end_run(&mut self) {}

    /// The run's summary, if this recorder produces one.
    fn summary(&mut self) -> Option<TelemetrySummary> {
        None
    }

    /// Serialize this recorder's full state for a checkpoint. Stateless
    /// recorders return an empty string; `None` means the recorder cannot
    /// be checkpointed.
    fn export_state(&self) -> Option<String> {
        Some(String::new())
    }

    /// Restore state exported by [`SlotRecorder::export_state`]. The
    /// default accepts only the stateless (empty) form.
    fn import_state(&mut self, state: &str) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err("this recorder carries no state to import".to_string())
        }
    }
}

/// The no-op recorder: every hook is an empty inlined default, so
/// `Scenario::run_with::<NullRecorder>` compiles to the un-instrumented
/// slot loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl SlotRecorder for NullRecorder {}

/// One RRC protocol-state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RrcTransition {
    /// User id.
    pub user: usize,
    /// State left.
    pub from: RrcState,
    /// State entered.
    pub to: RrcState,
}

/// One committed ABR rung switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbrSwitchRecord {
    /// User id.
    pub user: usize,
    /// Rung left.
    pub from: usize,
    /// Rung entered.
    pub to: usize,
}

/// One admission-controller ruling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// User id of the candidate arrival.
    pub user: usize,
    /// The ruling.
    pub decision: AdmissionDecision,
}

/// One emitted trace record — one slot, or one `every`-slot window.
///
/// `slot`/`cap`/`alloc`/`q` are sampled at the emitted slot (the window's
/// last); `e_mj`/`reb_s` are per-user sums over the window; `rrc` lists
/// every transition inside the window in occurrence order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRecord {
    /// Slot index of the emitted (window-closing) slot.
    pub slot: u64,
    /// Eq. (2) BS budget at that slot, units.
    pub cap: u64,
    /// Per-user allocation `φᵢ(n)` at that slot, units.
    pub alloc: Vec<u64>,
    /// Per-user energy charged over the window, mJ.
    pub e_mj: Vec<f64>,
    /// Per-user rebuffering accrued over the window, seconds.
    pub reb_s: Vec<f64>,
    /// Scheduler queue values at that slot (empty when not exposed).
    #[serde(default)]
    pub q: Vec<f64>,
    /// RRC transitions inside the window.
    #[serde(default)]
    pub rrc: Vec<RrcTransition>,
    /// Scheduler degradation events inside the window (RTMA best-effort
    /// fallback, EMA queue clamps). Omitted from the JSONL form when
    /// empty, so fault-free traces are byte-identical to older ones.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub deg: Vec<DegradationEvent>,
    /// Fault-window transitions inside the window (deterministic notes
    /// from the fault plan). Omitted when empty.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<String>,
    /// Live population at the emitted slot (arrived ∧ still watching).
    /// Only recorders that opted in via
    /// [`TraceRecorder::with_live_counts`] carry it; omitted otherwise,
    /// so closed-population traces are byte-identical to older ones.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub live: Option<u64>,
    /// ABR rung switches committed inside the window. Omitted when empty,
    /// so fixed-bitrate traces are byte-identical to older ones.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub abr: Vec<AbrSwitchRecord>,
    /// Admission rulings inside the window. Omitted when empty.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub adm: Vec<AdmissionRecord>,
}

/// Header line of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Trace format version.
    pub version: u32,
    /// Scheduler label of the run.
    pub scheduler: String,
    /// Number of users.
    pub n_users: usize,
    /// Slot length τ, seconds.
    pub tau_s: f64,
    /// Downsampling window (1 = every slot).
    pub every: u64,
    /// Slots observed (equals the run's `slots_run`).
    pub slots: u64,
}

/// A complete trace: header plus records.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotTrace {
    /// Run-level header.
    pub meta: TraceMeta,
    /// Emitted records in slot order.
    pub records: Vec<SlotRecord>,
}

impl SlotTrace {
    /// Serialize as JSONL: the meta line, then one line per record. The
    /// output is byte-deterministic for a deterministic run (floats use
    /// the shortest round-tripping form), which is what the golden-trace
    /// tests rely on.
    pub fn to_jsonl(&self) -> String {
        match self.try_to_jsonl() {
            Ok(s) => s,
            // Trace records hold only finite numbers, strings, and maps
            // with string keys, all of which serialize infallibly.
            Err(e) => unreachable!("trace serialization cannot fail: {e}"),
        }
    }

    /// [`SlotTrace::to_jsonl`] with the serialization error surfaced.
    pub fn try_to_jsonl(&self) -> Result<String, TraceError> {
        let ser = |line: usize, v: String| TraceError::Parse { line, reason: v };
        let mut out =
            serde_json::to_string(&self.meta).map_err(|e| ser(0, format!("meta: {e:?}")))?;
        out.push('\n');
        for (i, r) in self.records.iter().enumerate() {
            serde_json::to_string_into(&mut out, r)
                .map_err(|e| ser(i + 1, format!("record: {e:?}")))?;
            out.push('\n');
        }
        Ok(out)
    }

    /// Write the JSONL form to `path` durably: serialize, write a `.tmp`
    /// sibling, fsync, and atomically rename it over the target.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), TraceError> {
        let text = self.try_to_jsonl()?;
        atomic_write(path, text.as_bytes()).map_err(|source| TraceError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Read and parse a JSONL trace file.
    pub fn read_jsonl(path: &Path) -> Result<Self, TraceError> {
        let text = std::fs::read_to_string(path).map_err(|source| TraceError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Self::from_jsonl(&text)
    }

    /// Parse a JSONL trace produced by [`SlotTrace::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Self, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let meta_line = lines.next().ok_or(TraceError::Parse {
            line: 0,
            reason: "empty trace".to_string(),
        })?;
        let meta: TraceMeta = serde_json::from_str(meta_line).map_err(|e| TraceError::Parse {
            line: 0,
            reason: format!("bad meta line: {e:?}"),
        })?;
        let mut records = Vec::new();
        for (i, line) in lines.enumerate() {
            records.push(serde_json::from_str(line).map_err(|e| TraceError::Parse {
                line: i + 1,
                reason: format!("bad record: {e:?}"),
            })?);
        }
        Ok(Self { meta, records })
    }

    /// Per-user energy summed over all records, mJ.
    pub fn energy_by_user_mj(&self) -> Vec<f64> {
        let n = self.meta.n_users;
        let mut out = vec![0.0; n];
        for r in &self.records {
            for (acc, e) in out.iter_mut().zip(&r.e_mj) {
                *acc += e;
            }
        }
        out
    }

    /// Per-user rebuffering summed over all records, seconds.
    pub fn rebuffer_by_user_s(&self) -> Vec<f64> {
        let n = self.meta.n_users;
        let mut out = vec![0.0; n];
        for r in &self.records {
            for (acc, c) in out.iter_mut().zip(&r.reb_s) {
                *acc += c;
            }
        }
        out
    }
}

/// Fixed-bin log₂ latency histogram (ns). Bin `k` holds samples in
/// `[2^(k−1), 2^k)`; 64 bins cover the whole `u64` range, so recording
/// never reallocates or saturates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: [u64; 64],
    n: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; 64],
            n: 0,
            max_ns: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        let bin = (u64::BITS - ns.leading_zeros()) as usize;
        self.counts[bin.min(63)] += 1;
        self.n += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Largest sample, exact.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `p`-quantile (`p ∈ [0, 1]`), resolved to the containing bin's
    /// upper bound (clamped to the exact max). 0 when empty.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bin, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if bin == 0 { 0 } else { (1u64 << bin) - 1 };
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Reset to empty.
    pub fn clear(&mut self) {
        self.counts = [0; 64];
        self.n = 0;
        self.max_ns = 0;
    }
}

/// Run-level telemetry digest, attached to
/// [`crate::results::SimResult::telemetry`] by traced runs.
///
/// The latency quantiles come from wall-clock timing and are therefore
/// *not* deterministic across runs; everything else is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Slots observed.
    pub slots: u64,
    /// Downsampling window used.
    pub every: u64,
    /// Records emitted.
    pub records: u64,
    /// Median scheduler decision latency, ns (bin upper bound).
    pub sched_ns_p50: u64,
    /// 95th-percentile scheduler latency, ns (bin upper bound).
    pub sched_ns_p95: u64,
    /// 99th-percentile scheduler latency, ns (bin upper bound).
    pub sched_ns_p99: u64,
    /// Worst scheduler latency, ns (exact).
    pub sched_ns_max: u64,
    /// Total user-seconds dwelt in `CELL_DCH` (slot attributed to the
    /// state the radio is in *after* the slot's accounting).
    pub dwell_dch_s: f64,
    /// Total user-seconds dwelt in `CELL_FACH`.
    pub dwell_fach_s: f64,
    /// Total user-seconds dwelt in `IDLE` (pre-arrival users count as
    /// idle: their radio is cold).
    pub dwell_idle_s: f64,
    /// RRC transitions observed.
    pub rrc_transitions: u64,
    /// Total energy observed, mJ (equals the result's energy total).
    pub energy_mj_total: f64,
    /// Total rebuffering observed, seconds (equals the result's total).
    pub rebuffer_s_total: f64,
    /// Cumulative energy after each emitted record, mJ.
    pub cum_energy_mj: Vec<f64>,
    /// Cumulative rebuffering after each emitted record, seconds.
    pub cum_rebuffer_s: Vec<f64>,
}

/// The capturing recorder.
///
/// Reusable across runs: `begin_run` fully resets per-run state, so
/// interleaving runs through one recorder cannot bleed state between them
/// (regression-tested in `engine_state_bleed.rs`). Its serde form is its
/// checkpoint state: the sidecar's `recorder` string. The defaulted
/// fields postdate the oldest sidecars this build still reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceRecorder {
    every: u64,
    n_users: usize,
    tau: f64,
    slots_seen: u64,
    // Emitted-slot samples.
    cur_slot: u64,
    cur_cap: u64,
    cur_alloc: Vec<u64>,
    cur_q: Vec<f64>,
    // Window accumulators.
    win_e: Vec<f64>,
    win_reb: Vec<f64>,
    win_rrc: Vec<RrcTransition>,
    win_deg: Vec<DegradationEvent>,
    win_faults: Vec<String>,
    #[serde(default)]
    win_abr: Vec<AbrSwitchRecord>,
    #[serde(default)]
    win_adm: Vec<AdmissionRecord>,
    win_slots: u64,
    // Live-population sampling (off unless `with_live_counts`).
    #[serde(default)]
    track_live: bool,
    #[serde(default)]
    cur_live: u64,
    // Per-user caches.
    prev_reb: Vec<f64>,
    cur_state: Vec<RrcState>,
    // Run aggregates.
    dwell_s: [f64; 3],
    rrc_transitions: u64,
    total_e_mj: f64,
    total_reb_s: f64,
    cum_e: Vec<f64>,
    cum_reb: Vec<f64>,
    hist: LatencyHistogram,
    records: Vec<SlotRecord>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder that emits one record per slot.
    pub fn new() -> Self {
        Self {
            every: 1,
            n_users: 0,
            tau: 0.0,
            slots_seen: 0,
            cur_slot: 0,
            cur_cap: 0,
            cur_alloc: Vec::new(),
            cur_q: Vec::new(),
            win_e: Vec::new(),
            win_reb: Vec::new(),
            win_rrc: Vec::new(),
            win_deg: Vec::new(),
            win_faults: Vec::new(),
            win_abr: Vec::new(),
            win_adm: Vec::new(),
            win_slots: 0,
            track_live: false,
            cur_live: 0,
            prev_reb: Vec::new(),
            cur_state: Vec::new(),
            dwell_s: [0.0; 3],
            rrc_transitions: 0,
            total_e_mj: 0.0,
            total_reb_s: 0.0,
            cum_e: Vec::new(),
            cum_reb: Vec::new(),
            hist: LatencyHistogram::new(),
            records: Vec::new(),
        }
    }

    /// Downsample: emit one record per `every` slots (window-summed
    /// energy/rebuffering, last-slot alloc/cap/queues). `every = 1` is
    /// the full trace; 0 is clamped to 1.
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    /// Carry the per-slot live-population count (from
    /// [`SlotRecorder::record_live`]) in emitted records, sampled at the
    /// emitted slot like `alloc`/`cap`. Off by default so
    /// closed-population traces keep their exact byte form.
    pub fn with_live_counts(mut self) -> Self {
        self.track_live = true;
        self
    }

    fn state_idx(s: RrcState) -> usize {
        match s {
            RrcState::Dch => 0,
            RrcState::Fach => 1,
            RrcState::Idle => 2,
        }
    }

    fn emit(&mut self) {
        self.records.push(SlotRecord {
            slot: self.cur_slot,
            cap: self.cur_cap,
            alloc: self.cur_alloc.clone(),
            e_mj: self.win_e.clone(),
            reb_s: self.win_reb.clone(),
            q: self.cur_q.clone(),
            rrc: std::mem::take(&mut self.win_rrc),
            deg: std::mem::take(&mut self.win_deg),
            faults: std::mem::take(&mut self.win_faults),
            live: self.track_live.then_some(self.cur_live),
            abr: std::mem::take(&mut self.win_abr),
            adm: std::mem::take(&mut self.win_adm),
        });
        self.win_e.fill(0.0);
        self.win_reb.fill(0.0);
        self.win_slots = 0;
        self.cum_e.push(self.total_e_mj);
        self.cum_reb.push(self.total_reb_s);
    }

    /// Consume the recorder into a [`SlotTrace`] labeled with the run's
    /// scheduler name.
    pub fn into_trace(self, scheduler: &str) -> SlotTrace {
        SlotTrace {
            meta: TraceMeta {
                version: 1,
                scheduler: scheduler.to_string(),
                n_users: self.n_users,
                tau_s: self.tau,
                every: self.every,
                slots: self.slots_seen,
            },
            records: self.records,
        }
    }

    /// Records captured so far and still held (borrow;
    /// [`TraceRecorder::into_trace`] consumes).
    pub fn records(&self) -> &[SlotRecord] {
        &self.records
    }

    /// Hand over the held records, leaving the recorder with none. A
    /// consumer that logs each record as it is emitted (the live
    /// service's trace spool) drains after every slot, so the recorder —
    /// and any checkpoint of it — stays O(users) instead of growing with
    /// the run. Window accumulators, run aggregates and the summary are
    /// untouched: draining changes where records live, not what the run
    /// reports.
    pub fn take_records(&mut self) -> Vec<SlotRecord> {
        std::mem::take(&mut self.records)
    }

    /// Records emitted since `begin_run`, drained or not.
    pub fn emitted(&self) -> u64 {
        // One cumulative-curve point is pushed per emitted record.
        self.cum_e.len() as u64
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.hist
    }
}

impl SlotRecorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn begin_run(&mut self, n_users: usize, tau: f64) {
        self.n_users = n_users;
        self.tau = tau;
        self.slots_seen = 0;
        self.cur_slot = 0;
        self.cur_cap = 0;
        self.cur_alloc.clear();
        self.cur_q.clear();
        self.win_e.clear();
        self.win_e.resize(n_users, 0.0);
        self.win_reb.clear();
        self.win_reb.resize(n_users, 0.0);
        self.win_rrc.clear();
        self.win_deg.clear();
        self.win_faults.clear();
        self.win_abr.clear();
        self.win_adm.clear();
        self.win_slots = 0;
        self.cur_live = 0;
        self.prev_reb.clear();
        self.prev_reb.resize(n_users, 0.0);
        self.cur_state.clear();
        self.cur_state.resize(n_users, RrcState::Idle);
        self.dwell_s = [0.0; 3];
        self.rrc_transitions = 0;
        self.total_e_mj = 0.0;
        self.total_reb_s = 0.0;
        self.cum_e.clear();
        self.cum_reb.clear();
        self.hist.clear();
        self.records.clear();
    }

    fn begin_slot(&mut self, slot: u64, bs_cap_units: u64) {
        self.cur_slot = slot;
        self.cur_cap = bs_cap_units;
        self.cur_alloc.clear();
        self.cur_q.clear();
    }

    fn record_alloc(&mut self, alloc: &[u64]) {
        self.cur_alloc.extend_from_slice(alloc);
    }

    fn record_queues(&mut self, queues: &[f64]) {
        self.cur_q.extend_from_slice(queues);
    }

    fn record_sched_latency_ns(&mut self, ns: u64) {
        self.hist.record(ns);
    }

    fn record_user(&mut self, id: usize, energy_mj: f64, total_rebuffer_s: f64) {
        self.win_e[id] += energy_mj;
        self.total_e_mj += energy_mj;
        let delta = total_rebuffer_s - self.prev_reb[id];
        self.prev_reb[id] = total_rebuffer_s;
        self.win_reb[id] += delta;
        self.total_reb_s += delta;
    }

    fn record_rrc_transition(&mut self, id: usize, from: RrcState, to: RrcState) {
        self.win_rrc.push(RrcTransition { user: id, from, to });
        self.cur_state[id] = to;
        self.rrc_transitions += 1;
    }

    fn record_degradations(&mut self, events: &[DegradationEvent]) {
        self.win_deg.extend_from_slice(events);
    }

    fn record_fault(&mut self, note: &str) {
        self.win_faults.push(note.to_string());
    }

    fn record_live(&mut self, in_system: u64) {
        self.cur_live = in_system;
    }

    fn record_abr_switch(&mut self, id: usize, from: usize, to: usize) {
        self.win_abr.push(AbrSwitchRecord { user: id, from, to });
    }

    fn record_admission(&mut self, id: usize, decision: AdmissionDecision) {
        self.win_adm.push(AdmissionRecord { user: id, decision });
    }

    fn end_slot(&mut self) {
        self.slots_seen += 1;
        self.win_slots += 1;
        for &s in &self.cur_state {
            self.dwell_s[Self::state_idx(s)] += self.tau;
        }
        if self.win_slots == self.every {
            self.emit();
        }
    }

    fn end_run(&mut self) {
        if self.win_slots > 0 {
            self.emit();
        }
    }

    /// Full state export: a resumed run continues the trace (records,
    /// window accumulators, run aggregates) exactly where it left off.
    fn export_state(&self) -> Option<String> {
        serde_json::to_string(self).ok()
    }

    fn import_state(&mut self, state: &str) -> Result<(), String> {
        *self = serde_json::from_str(state).map_err(|e| format!("bad recorder state: {e}"))?;
        Ok(())
    }

    fn summary(&mut self) -> Option<TelemetrySummary> {
        Some(TelemetrySummary {
            slots: self.slots_seen,
            every: self.every,
            records: self.emitted(),
            sched_ns_p50: self.hist.quantile_ns(0.50),
            sched_ns_p95: self.hist.quantile_ns(0.95),
            sched_ns_p99: self.hist.quantile_ns(0.99),
            sched_ns_max: self.hist.max_ns(),
            dwell_dch_s: self.dwell_s[0],
            dwell_fach_s: self.dwell_s[1],
            dwell_idle_s: self.dwell_s[2],
            rrc_transitions: self.rrc_transitions,
            energy_mj_total: self.total_e_mj,
            rebuffer_s_total: self.total_reb_s,
            cum_energy_mj: self.cum_e.clone(),
            cum_rebuffer_s: self.cum_reb.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a recorder by hand through 3 slots of a 2-user "run".
    fn drive(rec: &mut TraceRecorder) {
        drive_with(rec, |_| {});
    }

    /// [`drive`], calling `after_slot` between slots.
    fn drive_with(rec: &mut TraceRecorder, mut after_slot: impl FnMut(&mut TraceRecorder)) {
        rec.begin_run(2, 1.0);
        for slot in 0..3u64 {
            rec.begin_slot(slot, 10);
            rec.record_sched_latency_ns(1000 + slot);
            rec.record_alloc(&[slot, 2 * slot]);
            rec.record_queues(&[0.5, 1.5]);
            if slot == 0 {
                rec.record_rrc_transition(0, RrcState::Idle, RrcState::Dch);
            }
            rec.record_user(0, 10.0, slot as f64); // +1 s rebuffer per slot
            rec.record_user(1, 5.0, 0.0);
            rec.end_slot();
            after_slot(rec);
        }
        rec.end_run();
    }

    /// A consumer that drains after every slot (the live service's trace
    /// spool) sees every record exactly once, and the recorder reports
    /// the same summary, header and checkpointable state as one that
    /// kept them — minus the records.
    #[test]
    fn draining_moves_records_without_changing_the_summary() {
        let mut whole = TraceRecorder::new().with_every(2);
        drive(&mut whole);

        let mut drained = TraceRecorder::new().with_every(2);
        let mut taken = Vec::new();
        let mut last_ckpt = String::new();
        drive_with(&mut drained, |rec| {
            taken.extend(rec.take_records());
            assert!(rec.records().is_empty());
            last_ckpt = rec.export_state().unwrap();
        });
        assert_eq!(taken.len(), 1, "one full window closed inside the run");
        assert_eq!(drained.emitted(), 2);
        assert_eq!(drained.emitted(), whole.emitted());
        assert_eq!(drained.summary(), whole.summary());

        // A checkpoint of the drained recorder carries no record, yet
        // restores knowing how many were emitted.
        assert!(last_ckpt.contains("\"records\":[]"));
        let mut restored = TraceRecorder::new();
        restored.import_state(&last_ckpt).unwrap();
        assert!(restored.records().is_empty());
        assert_eq!(restored.emitted(), 1);

        // What is left is `end_run`'s partial window; with what was
        // taken it is the undrained trace.
        let tail = drained.into_trace("t");
        let whole = whole.into_trace("t");
        assert_eq!(tail.meta, whole.meta);
        taken.extend(tail.records);
        assert_eq!(taken, whole.records);
    }

    #[test]
    fn full_trace_shape() {
        let mut rec = TraceRecorder::new();
        drive(&mut rec);
        let s = rec.summary().unwrap();
        assert_eq!(s.slots, 3);
        assert_eq!(s.records, 3);
        assert!((s.energy_mj_total - 45.0).abs() < 1e-12);
        assert!((s.rebuffer_s_total - 2.0).abs() < 1e-12);
        assert_eq!(s.rrc_transitions, 1);
        // User 0 promotes in slot 0 ⇒ 3 Dch slots; user 1 never
        // transitions ⇒ 3 Idle slots.
        assert!((s.dwell_dch_s - 3.0).abs() < 1e-12);
        assert!((s.dwell_idle_s - 3.0).abs() < 1e-12);
        assert_eq!(s.dwell_fach_s, 0.0);
        let trace = rec.into_trace("test");
        assert_eq!(trace.records.len(), 3);
        assert_eq!(trace.records[1].alloc, vec![1, 2]);
        assert_eq!(trace.records[0].rrc.len(), 1);
        assert_eq!(trace.energy_by_user_mj(), vec![30.0, 15.0]);
        assert_eq!(trace.rebuffer_by_user_s(), vec![2.0, 0.0]);
    }

    #[test]
    fn downsampling_sums_windows_and_flushes_partial() {
        let mut rec = TraceRecorder::new().with_every(2);
        drive(&mut rec);
        let s = rec.summary().unwrap();
        assert_eq!(s.records, 2, "2-slot window + 1-slot flush");
        // Totals are preserved exactly under downsampling.
        assert!((s.energy_mj_total - 45.0).abs() < 1e-12);
        assert!((s.rebuffer_s_total - 2.0).abs() < 1e-12);
        let trace = rec.into_trace("test");
        // First record closes at slot 1 with window-summed energy.
        assert_eq!(trace.records[0].slot, 1);
        assert_eq!(trace.records[0].e_mj, vec![20.0, 10.0]);
        // Alloc is sampled at the emitted slot, not summed.
        assert_eq!(trace.records[0].alloc, vec![1, 2]);
        // The partial flush carries the last slot alone.
        assert_eq!(trace.records[1].slot, 2);
        assert_eq!(trace.records[1].e_mj, vec![10.0, 5.0]);
        assert_eq!(
            trace.energy_by_user_mj(),
            vec![30.0, 15.0],
            "window sums preserve per-user totals"
        );
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let mut rec = TraceRecorder::new();
        drive(&mut rec);
        let trace = rec.into_trace("EMA");
        let text = trace.to_jsonl();
        let back = SlotTrace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // Re-serializing is byte-identical (golden-trace precondition).
        assert_eq!(back.to_jsonl(), text);
        assert_eq!(text.lines().count(), 1 + trace.records.len());
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(SlotTrace::from_jsonl("").is_err());
        assert!(SlotTrace::from_jsonl("not json\n").is_err());
        let mut rec = TraceRecorder::new();
        drive(&mut rec);
        let mut text = rec.into_trace("x").to_jsonl();
        text.push_str("{\"broken\":\n");
        assert!(SlotTrace::from_jsonl(&text).is_err());
    }

    #[test]
    fn begin_run_resets_everything() {
        let mut rec = TraceRecorder::new();
        drive(&mut rec);
        let first = rec.clone().into_trace("t");
        let first_summary = rec.summary().unwrap();
        // Re-driving the same recorder must match a fresh one exactly.
        drive(&mut rec);
        let again_summary = rec.summary().unwrap();
        assert_eq!(rec.into_trace("t"), first);
        assert_eq!(again_summary, first_summary);
    }

    #[test]
    fn live_counts_are_opt_in_and_sampled_at_emit() {
        // Default recorder: record_live calls leave traces byte-identical
        // (the field is absent, not null).
        let mut plain = TraceRecorder::new();
        plain.begin_run(1, 1.0);
        plain.begin_slot(0, 10);
        plain.record_user(0, 1.0, 0.0);
        plain.record_live(7);
        plain.end_slot();
        plain.end_run();
        let text = plain.into_trace("t").to_jsonl();
        assert!(!text.contains("live"), "opt-out trace must omit the field");

        // Opted-in recorder with downsampling: the emitted value is the
        // window's last slot's count.
        let mut rec = TraceRecorder::new().with_every(2).with_live_counts();
        rec.begin_run(1, 1.0);
        for (slot, live) in [(0u64, 3u64), (1, 5), (2, 4)] {
            rec.begin_slot(slot, 10);
            rec.record_user(0, 1.0, 0.0);
            rec.record_live(live);
            rec.end_slot();
        }
        rec.end_run();
        let trace = rec.into_trace("t");
        assert_eq!(trace.records[0].live, Some(5));
        assert_eq!(trace.records[1].live, Some(4));
        // And the field round-trips through JSONL.
        let back = SlotTrace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 100_000);
        // p50 (the 3rd of 5 samples, 300) lands in the [256, 512) bin ⇒
        // upper bound 511.
        assert_eq!(h.quantile_ns(0.5), 511);
        // p100 is clamped to the exact max.
        assert_eq!(h.quantile_ns(1.0), 100_000);
        assert!(h.quantile_ns(0.99) <= 131_071);
        h.clear();
        assert_eq!(h.count(), 0);
        // Zero-valued samples land in bin 0 with upper bound 0.
        h.record(0);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut rec = NullRecorder;
        assert!(!rec.enabled());
        rec.begin_run(3, 1.0);
        rec.begin_slot(0, 10);
        rec.record_user(0, 1.0, 0.0);
        rec.end_slot();
        rec.end_run();
        assert!(rec.summary().is_none());
    }
}
