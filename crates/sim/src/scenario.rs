//! Scenario configuration: a single serializable description of one
//! experiment, and the one way into the slot.
//!
//! A private builder validates the scenario, compiles its fault spec and
//! assembles the engine, once; every public run method is that builder
//! plus a cadence over the [`SlotDriver`] it returns — step to the end,
//! pause at a slot, or write a sidecar every k slots. The reference loop
//! is the one run that does not step a driver: it is what the others are
//! tested against.

use crate::engine::{Engine, EngineCheckpoint, EngineConfig, RunOutcome, SlotDriver, UserSignals};
use crate::error::{ScenarioError, SimError};
use crate::faults::{FaultPlan, FaultSpec};
use crate::pool::WorkerPool;
use crate::results::SimResult;
use crate::telemetry::{NullRecorder, SlotRecorder, SlotTrace, TraceRecorder};
use jmso_gateway::bs::CapacitySpec;
use jmso_gateway::{
    format_segment_request, AdmissionSpec, CollectorSpec, DataReceiver, DpiClassifier,
    InformationCollector, OriginModel, UnitParams,
};
use jmso_media::{generate_sessions, AbrSpec, RateList, WorkloadSpec};
use jmso_radio::SignalSpec;
use jmso_sched::{CrossLayerModels, SchedulerSpec};
use serde::{Deserialize, Serialize};
use std::path::Path;

// The arrival process grew into a module of its own (Poisson churn,
// diurnal rate curves, session truncation); the spec is re-exported here
// so `jmso_sim::scenario::ArrivalSpec` call sites keep compiling.
pub use crate::arrivals::{ArrivalSpec, ChurnPlan, Diurnal, SessionLength, NEVER_DEPARTS};

/// Everything needed to reproduce one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Scenario {
    /// Number of users N.
    pub n_users: usize,
    /// Horizon Γ in slots (paper: 10 000).
    pub slots: u64,
    /// Slot length τ in seconds (paper: 1).
    pub tau: f64,
    /// Frame length δ in KB (see DESIGN.md §6).
    pub delta_kb: f64,
    /// BS serving capacity model (paper: constant 20 MB/s).
    pub capacity: CapacitySpec,
    /// Per-user RSSI process (paper: sine + noise with phase shifts).
    pub signal: SignalSpec,
    /// Video workload distribution (paper: 250–500 MB, 300–600 KB/s).
    pub workload: WorkloadSpec,
    /// Cross-layer models (throughput/power fits, RRC timers).
    pub models: CrossLayerModels,
    /// Information-collector fidelity.
    pub collector: CollectorSpec,
    /// Origin-server behaviour for video flows.
    pub origin: OriginModel,
    /// The policy under test.
    pub scheduler: SchedulerSpec,
    /// Master seed (workload, signals, collector noise all derive from it).
    pub seed: u64,
    /// Record per-slot series (needed for the CDF figures).
    pub record_series: bool,
    /// Session arrival process (paper: simultaneous).
    #[serde(default)]
    pub arrivals: ArrivalSpec,
    /// When true, the gateway learns each flow's rate by DPI-inspecting a
    /// synthesized segment request (the paper's §III-A collection path)
    /// instead of reading ground truth: schedulers then see the
    /// manifest-declared mean rate, which for VBR sessions differs from
    /// the instantaneous one.
    #[serde(default)]
    pub rate_via_dpi: bool,
    /// Timed fault injection (deep fades, outages, capacity loss, churn).
    /// The default [`FaultSpec::None`] keeps every run bit-identical to a
    /// scenario without this field.
    #[serde(default)]
    pub faults: FaultSpec,
    /// DASH-style adaptive-bitrate clients: a bitrate ladder plus a
    /// per-chunk rung policy (see DESIGN.md §12). `None` — and, by the
    /// single-rung identity, `Some` with a one-rung ladder — keeps every
    /// run bit-identical to the constant-bitrate path.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub abr: Option<AbrSpec>,
    /// Gateway admission control for open-system arrivals: each compiled
    /// arrival is admitted, deferred or rejected against a running
    /// feasibility estimate of the Theorem 1 energy/rebuffering bounds.
    /// `None` and [`AdmissionSpec::AlwaysAdmit`] are both bit-identical
    /// to the unconditional-arrival path.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub admission: Option<AdmissionSpec>,
}

impl Scenario {
    /// The paper's §VI setup with `n_users` users and the Default
    /// scheduler; override fields as needed.
    pub fn paper_default(n_users: usize) -> Self {
        Self {
            n_users,
            slots: 10_000,
            tau: 1.0,
            delta_kb: 50.0,
            capacity: CapacitySpec::paper_default(),
            signal: SignalSpec::paper_default(),
            workload: WorkloadSpec::paper_default(),
            models: CrossLayerModels::paper(),
            collector: CollectorSpec::perfect(),
            origin: OriginModel::Infinite,
            scheduler: SchedulerSpec::Default,
            seed: 42,
            record_series: false,
            arrivals: ArrivalSpec::Simultaneous,
            rate_via_dpi: false,
            faults: FaultSpec::None,
            abr: None,
            admission: None,
        }
    }

    /// Same scenario with a different scheduler (workload/signals/seed
    /// unchanged, which is how the paper compares policies).
    pub fn with_scheduler(&self, scheduler: SchedulerSpec) -> Self {
        Self {
            scheduler,
            ..self.clone()
        }
    }

    /// Same scenario with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        Self {
            seed,
            ..self.clone()
        }
    }

    /// The builder behind every door: validate, compile the fault spec
    /// against the one cell (no plan when the scenario declares no
    /// faults), and assemble the engine.
    pub(crate) fn engine(&self) -> Result<Engine, SimError> {
        self.validate()?;
        let plan = match self.faults.is_none() {
            true => None,
            false => Some(self.faults.compile(self.n_users, self.slots, 1)?),
        };
        Ok(self.build_engine(plan)?)
    }

    /// Build a resumable [`SlotDriver`] over this scenario: one slot per
    /// `step` call, checkpoint capture between any two slots, live
    /// schedule mutation. Every other door except the reference loop is
    /// a cadence over this driver, so stepping it to completion and
    /// calling `finish` yields a result (and recorder state)
    /// byte-identical to the batch run.
    ///
    /// `resume` restores a checkpoint captured on this same scenario.
    pub fn driver<R: SlotRecorder>(
        &self,
        rec: &mut R,
        resume: Option<&EngineCheckpoint>,
    ) -> Result<SlotDriver, SimError> {
        self.engine()?.build_driver(rec, resume)
    }

    /// Validate parameters, assemble the engine, run it.
    pub fn run(&self) -> Result<SimResult, SimError> {
        self.run_with(&mut NullRecorder)
    }

    /// [`Scenario::run`] with a caller-supplied [`SlotRecorder`].
    pub fn run_with<R: SlotRecorder>(&self, rec: &mut R) -> Result<SimResult, SimError> {
        Ok(self.driver(rec, None)?.run(rec).0)
    }

    /// Validate parameters, then run the reference (non-active-set) slot
    /// loop, which samples its signals through trait objects — the
    /// executable specification every other door is differentially
    /// tested against. Must return a result identical to
    /// [`Scenario::run`].
    pub fn run_reference(&self) -> Result<SimResult, SimError> {
        self.run_reference_with(&mut NullRecorder)
    }

    /// [`Scenario::run_reference`] with a caller-supplied
    /// [`SlotRecorder`]; its trace equals [`Scenario::run_with`]'s.
    pub fn run_reference_with<R: SlotRecorder>(&self, rec: &mut R) -> Result<SimResult, SimError> {
        Ok(self.engine()?.run_reference(rec))
    }

    /// The [`TraceRecorder`] this scenario's traces are written with: one
    /// record per `every` slots, and for an open system the
    /// live-population column (closed scenarios keep their exact pre-PR 7
    /// trace bytes).
    pub fn trace_recorder(&self, every: u64) -> TraceRecorder {
        let rec = TraceRecorder::new().with_every(every);
        match self.arrivals.is_open() {
            true => rec.with_live_counts(),
            false => rec,
        }
    }

    /// Run under [`Scenario::trace_recorder`] (see the downsampling
    /// contract in [`crate::telemetry`]); returns the result (telemetry
    /// summary attached) together with the trace.
    pub fn run_traced(&self, every: u64) -> Result<(SimResult, SlotTrace), SimError> {
        let mut rec = self.trace_recorder(every);
        let result = self.run_with(&mut rec)?;
        let trace = rec.into_trace(&result.scheduler);
        Ok((result, trace))
    }

    /// [`Scenario::run_with`]: `pool` and `width` are ignored, since a run
    /// is sequential (DESIGN.md §11). Kept only because the benchmark
    /// harness's `open-sharded` workload calls it; the
    /// `benchmark`-labelled change that switches that workload to
    /// [`Scenario::run_with`] deletes it.
    #[doc(hidden)]
    pub fn run_sharded_on<R: SlotRecorder>(
        &self,
        _pool: &WorkerPool,
        _width: usize,
        rec: &mut R,
    ) -> Result<SimResult, SimError> {
        self.run_with(rec)
    }

    /// Run, atomically (re)writing a resumable [`EngineCheckpoint`]
    /// sidecar to `path` every `every` slots (0 disables). A checkpoint
    /// is captured at the *top* of a slot, before any of its state
    /// changes.
    pub fn run_checkpointed_with<R: SlotRecorder>(
        &self,
        rec: &mut R,
        every: u64,
        path: &Path,
    ) -> Result<SimResult, SimError> {
        let mut drv = self.driver(rec, None)?;
        while !drv.is_finished() {
            let slot = drv.next_slot();
            if every > 0 && slot > 0 && slot.is_multiple_of(every) {
                drv.checkpoint(rec)?.write_file(path)?;
            }
            drv.step(rec);
        }
        Ok(drv.finish(rec))
    }

    /// Run up to the top of `slot` and return the captured checkpoint
    /// ([`RunOutcome::Done`] if the run finishes first).
    pub fn run_until<R: SlotRecorder>(
        &self,
        rec: &mut R,
        slot: u64,
    ) -> Result<RunOutcome, SimError> {
        let mut drv = self.driver(rec, None)?;
        while !drv.is_finished() {
            if drv.next_slot() == slot {
                return Ok(RunOutcome::Paused(Box::new(drv.checkpoint(rec)?)));
            }
            drv.step(rec);
        }
        Ok(RunOutcome::Done(drv.finish(rec)))
    }

    /// Resume a run from a checkpoint captured on this same scenario
    /// (same seed, users, scheduler kind and recorder kind).
    pub fn resume_from<R: SlotRecorder>(
        &self,
        rec: &mut R,
        ckpt: &EngineCheckpoint,
    ) -> Result<SimResult, SimError> {
        Ok(self.driver(rec, Some(ckpt))?.run(rec).0)
    }

    /// Parameter sanity checks with actionable, field-named messages.
    /// Fault events are validated separately, against the actual cell
    /// count, when the run path compiles them into a [`FaultPlan`].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.n_users == 0 {
            return Err(ScenarioError::new("n_users", "must be positive"));
        }
        if self.slots == 0 {
            return Err(ScenarioError::new("slots", "must be positive"));
        }
        if self.tau <= 0.0 || self.tau.is_nan() {
            return Err(ScenarioError::new("tau", "must be positive"));
        }
        if self.delta_kb <= 0.0 || self.delta_kb.is_nan() {
            return Err(ScenarioError::new("delta_kb", "must be positive"));
        }
        self.scheduler
            .validate()
            .map_err(|e| ScenarioError::new("scheduler", e))?;
        let ranges = [
            ("workload.rate_range_kbps", self.workload.rate_range_kbps),
            ("workload.size_range_kb", self.workload.size_range_kb),
        ];
        for (field, (lo, hi)) in ranges {
            // Written so that NaN fails it too.
            if !(lo > 0.0 && lo <= hi && hi.is_finite()) {
                return Err(ScenarioError::new(
                    field,
                    format!("must be finite with 0 < lo <= hi, got ({lo}, {hi})"),
                ));
            }
        }
        if let Some(levels) = &self.workload.vbr_levels {
            if levels.is_empty() || !levels.iter().all(|l| *l > 0.0 && l.is_finite()) {
                return Err(ScenarioError::new(
                    "workload.vbr_levels",
                    "must be non-empty, every level finite and > 0",
                ));
            }
            if levels.len() > RateList::CAPACITY {
                return Err(ScenarioError::new(
                    "workload.vbr_levels",
                    format!(
                        "{} levels, at most {} fit a session's rate list",
                        levels.len(),
                        RateList::CAPACITY
                    ),
                ));
            }
        }
        self.arrivals.validate(self.n_users, "arrivals")?;
        if let Some(abr) = &self.abr {
            abr.validate().map_err(|e| ScenarioError::new("abr", e))?;
            if self.workload.vbr_levels.is_some() {
                return Err(ScenarioError::new(
                    "abr",
                    "ABR ladders assume constant-bitrate sessions; \
                     clear workload.vbr_levels",
                ));
            }
            if self.rate_via_dpi {
                return Err(ScenarioError::new(
                    "abr",
                    "rate_via_dpi pins the scheduler to the manifest-declared \
                     rate, which ABR rung switches would contradict",
                ));
            }
        }
        if let Some(adm) = &self.admission {
            adm.validate()
                .map_err(|e| ScenarioError::new("admission", e))?;
            if !adm.is_always_admit() && !self.arrivals.is_open() {
                return Err(ScenarioError::new(
                    "admission",
                    "feasibility admission control needs an open-system \
                     arrival process (arrivals) to rule on",
                ));
            }
        }
        Ok(())
    }

    /// Assemble the (validated) scenario's engine carrying `faults`.
    pub(crate) fn build_engine(&self, faults: Option<FaultPlan>) -> Result<Engine, ScenarioError> {
        let sessions = generate_sessions(&self.workload, self.n_users, self.seed);
        let signals = UserSignals {
            spec: self.signal.clone(),
            n_users: self.n_users,
            seed: self.seed,
        };
        let receiver = DataReceiver::new(self.n_users, self.origin.clone(), self.tau);
        let collector = InformationCollector::new(
            self.collector,
            self.models.throughput,
            UnitParams::new(self.delta_kb),
            self.tau,
            self.n_users,
            self.seed,
        );
        let declared_rates: Option<Vec<f64>> = if self.rate_via_dpi {
            // Synthesize each client's first segment request and let the
            // DPI middlebox extract the declared bitrate from the wire.
            let mut dpi = DpiClassifier::new();
            let mut rates = Vec::with_capacity(sessions.len());
            for (i, sess) in sessions.iter().enumerate() {
                let wire =
                    format_segment_request(&format!("user{i}"), 0, sess.bitrate.mean_rate(), None);
                let info = dpi.inspect(&wire).map_err(|e| {
                    ScenarioError::new("rate_via_dpi", format!("synthesized request rejected: {e}"))
                })?;
                let rate = info.bitrate_kbps.ok_or_else(|| {
                    ScenarioError::new("rate_via_dpi", "synthesized request declared no rate")
                })?;
                rates.push(rate);
            }
            Some(rates)
        } else {
            None
        };
        let mut churn = self.arrivals.compile(self.n_users, self.seed);
        if let Some(plan) = &faults {
            // Late-arrival churn: push the affected users' session starts
            // back by the declared delay. Fault events stay perturbations
            // layered on top of the workload plan.
            for (i, slot) in churn.arrivals.iter_mut().enumerate() {
                *slot = slot.saturating_add(plan.arrival_delay(i));
            }
        }
        let mut engine = Engine::with_churn(
            signals,
            sessions,
            churn.arrivals,
            churn.departures,
            self.scheduler.build(self.tau, &self.models),
            self.capacity.build(),
            receiver,
            collector,
            self.models,
            EngineConfig {
                tau: self.tau,
                delta_kb: self.delta_kb,
                slots: self.slots,
                record_series: self.record_series,
            },
        );
        if let Some(rates) = declared_rates {
            engine.set_declared_rates(&rates);
        }
        if let Some(abr) = &self.abr {
            engine.set_abr(abr);
        }
        if let Some(adm) = &self.admission {
            engine.set_admission(adm);
        }
        engine.faults = faults;
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

    fn quick(n: usize) -> Scenario {
        let mut s = Scenario::paper_default(n);
        s.slots = 300;
        s.workload = WorkloadSpec {
            size_range_kb: (500.0, 1500.0),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: None,
            vbr_segment_slots: 30,
        };
        s
    }

    #[test]
    fn paper_default_matches_section_vi() {
        let s = Scenario::paper_default(40);
        assert_eq!(s.n_users, 40);
        assert_eq!(s.slots, 10_000);
        assert_eq!(s.tau, 1.0);
        assert_eq!(s.capacity, CapacitySpec::Constant { kbps: 20_000.0 });
        assert_eq!(s.workload.size_range_kb, (250_000.0, 500_000.0));
        assert_eq!(s.workload.rate_range_kbps, (300.0, 600.0));
        assert!((s.models.rrc.t1 - 3.29).abs() < 1e-12);
        assert!((s.models.rrc.t2 - 4.02).abs() < 1e-12);
    }

    #[test]
    fn runs_and_is_deterministic() {
        let s = quick(4);
        let a = s.run().expect("runs");
        let b = s.run().expect("runs");
        assert_eq!(a, b, "same seed ⇒ identical result");
        let c = s.with_seed(7).run().expect("runs");
        assert_ne!(a, c, "different seed ⇒ different result");
        assert_eq!(a.n_users(), 4);
    }

    #[test]
    fn with_scheduler_keeps_workload() {
        let s = quick(3);
        let a = s.run().expect("runs");
        let b = s
            .with_scheduler(SchedulerSpec::RtmaUnbounded)
            .run()
            .expect("reference runs");
        // Same videos (same sizes) under both policies.
        for (ua, ub) in a.per_user.iter().zip(&b.per_user) {
            assert_eq!(ua.video_kb, ub.video_kb);
            assert_eq!(ua.rate_kbps, ub.rate_kbps);
        }
        assert_ne!(a.scheduler, b.scheduler);
    }

    fn run_err(s: &Scenario) -> String {
        match s.run() {
            Err(e) => e.to_string(),
            Ok(_) => unreachable!("scenario must be rejected"),
        }
    }

    #[test]
    fn validation_messages() {
        let mut s = quick(2);
        s.n_users = 0;
        assert!(run_err(&s).contains("n_users"));
        let mut s = quick(2);
        s.slots = 0;
        assert!(run_err(&s).contains("slots"));
        let mut s = quick(2);
        s.tau = 0.0;
        assert!(run_err(&s).contains("tau"));
        let mut s = quick(2);
        s.delta_kb = -1.0;
        assert!(run_err(&s).contains("delta_kb"));
        let mut s = quick(2);
        s.workload.rate_range_kbps = (0.0, 0.0);
        assert!(run_err(&s).contains("rate_range_kbps"));
        let mut s = quick(2);
        s.workload.size_range_kb = (-5.0, 10.0);
        assert!(run_err(&s).contains("size_range_kb"));
    }

    /// Three workloads that used to get past validation and panic the
    /// build (or, reversed in a release build, quietly give everyone the
    /// lower bound) are typed errors naming the field.
    #[test]
    fn empty_vbr_levels_name_the_field() {
        let mut s = quick(2);
        s.workload.vbr_levels = Some(Vec::new());
        assert!(run_err(&s).contains("workload.vbr_levels"));
        // A session holds at most `RateList::CAPACITY` rates inline.
        s.workload.vbr_levels = Some(vec![1.0; RateList::CAPACITY + 1]);
        assert!(run_err(&s).contains("workload.vbr_levels"));
        s.workload.vbr_levels = Some(vec![1.0; RateList::CAPACITY]);
        s.slots = 2;
        assert!(s.run().is_ok());
    }

    #[test]
    fn nan_lower_bound_names_the_field() {
        let mut s = quick(2);
        s.workload.rate_range_kbps = (f64::NAN, 600.0);
        assert!(run_err(&s).contains("workload.rate_range_kbps"));
    }

    #[test]
    fn reversed_range_names_the_field() {
        let mut s = quick(2);
        s.workload.size_range_kb = (1_500.0, 500.0);
        assert!(run_err(&s).contains("workload.size_range_kb"));
        // Equal bounds stay valid.
        s.workload.size_range_kb = (800.0, 800.0);
        s.run().expect("a point range runs");
    }

    /// A session big enough to be mid-run at slot 17 in a tight cell.
    fn long(n: usize) -> Scenario {
        let mut s = quick(n);
        s.capacity = CapacitySpec::Constant { kbps: 700.0 };
        s.workload.size_range_kb = (10_000.0, 12_000.0);
        s.record_series = true;
        s
    }

    /// Pause-and-resume at a mid-run slot, through the sidecar's JSON
    /// form, reproduces the straight run exactly.
    #[test]
    fn pause_resume_matches_straight_run() {
        let s = long(2);
        let straight = s.run().expect("straight run");
        let ck = match s.run_until(&mut NullRecorder, 17).expect("pause run") {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => unreachable!("must pause before the early exit"),
        };
        assert_eq!(ck.slot(), 17);
        let ck = EngineCheckpoint::from_json(&ck.to_json().expect("serialize")).expect("parse");
        let resumed = s.resume_from(&mut NullRecorder, &ck).expect("resume run");
        assert_eq!(straight, resumed);
    }

    /// A user whose every sample reads 0 dBm went live all the same:
    /// their window comes back on resume, with its Eq. (1) cap table,
    /// rather than a fresh one mid-block whose caps are zeros.
    #[test]
    fn resume_under_a_0_dbm_signal_matches_straight_run() {
        let mut s = Scenario::paper_default(4);
        s.slots = 300;
        s.signal = SignalSpec::Constant { dbm: 0.0 };
        let straight = s.run().expect("straight run");
        for pause in [1, 10, 33, 50] {
            let ck = match s.run_until(&mut NullRecorder, pause).expect("pause run") {
                RunOutcome::Paused(ck) => ck,
                RunOutcome::Done(_) => unreachable!("must pause before the horizon"),
            };
            let resumed = s.resume_from(&mut NullRecorder, &ck).expect("resume run");
            assert_eq!(straight, resumed, "resumed at slot {pause}");
        }
    }

    /// An infinite origin ships each flow's volume when the build sets
    /// it, so a sidecar taken before slot 0 shows the flows drained. One
    /// written by a build that left that to slot 0's ingest — every
    /// volume still at the origin, nothing queued — restores to the
    /// straight run all the same: the ingest drains what the sidecar
    /// says the origin still owes.
    #[test]
    fn undrained_slot_0_sidecar_resumes_like_the_straight_run() {
        let s = long(3);
        let straight = s.run().expect("straight run");
        let ck = match s.run_until(&mut NullRecorder, 0).expect("pause run") {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => unreachable!("must pause before the first slot"),
        };
        let json = ck.to_json().expect("serialize");
        let mut sidecar: serde::Value = serde_json::from_str(&json).expect("parse");
        let serde::Value::Map(fields) = &mut sidecar else {
            unreachable!("a sidecar is an object")
        };
        let Some((_, serde::Value::Seq(flows))) = fields.iter_mut().find(|(k, _)| k == "receiver")
        else {
            unreachable!("a sidecar carries the receiver's flows")
        };
        for flow in flows {
            let serde::Value::Map(queue) = flow else {
                unreachable!("a flow is an object")
            };
            // `[backlog_kb, remaining_source_kb]`: the volume moves back
            // from the queue to the origin.
            let volume = std::mem::replace(&mut queue[0].1, serde::Value::F64(0.0));
            assert_eq!(queue[1].1, serde::Value::F64(0.0), "drained at the build");
            queue[1].1 = volume;
        }
        let undrained = serde_json::to_string(&sidecar).expect("serialize");
        assert_ne!(undrained, json);
        let ck = EngineCheckpoint::from_json(&undrained).expect("parse");
        let resumed = s.resume_from(&mut NullRecorder, &ck).expect("resume run");
        assert_eq!(straight, resumed);
    }

    /// The benchmark's hidden alias is `run_with`: whatever pool and
    /// width it is handed, the result and the trace bytes are the same,
    /// and it refuses what `run_with` refuses.
    #[test]
    fn run_sharded_on_is_run_with() {
        let s = long(3);
        let (want, want_trace) = s.run_traced(1).expect("runs");
        let pool = WorkerPool::new(1);
        for width in [0, 1, 2, 8] {
            let mut rec = s.trace_recorder(1);
            let got = s.run_sharded_on(&pool, width, &mut rec).expect("runs");
            let got_trace = rec.into_trace(&got.scheduler);
            assert_eq!(got_trace.to_jsonl(), want_trace.to_jsonl(), "width {width}");
            assert_eq!(got.per_user, want.per_user, "width {width}");
            assert_eq!(got.fairness_series, want.fairness_series, "width {width}");
            assert_eq!(got.warnings, want.warnings, "width {width}");
        }
        let mut bad = s;
        bad.slots = 0;
        assert!(bad
            .run_sharded_on(&pool, 2, &mut NullRecorder)
            .is_err_and(|e| e.to_string().contains("slots")));
    }

    /// A rejected checkpoint (wrong user count) surfaces a typed restore
    /// error instead of panicking.
    #[test]
    fn resume_rejects_wrong_shape() {
        let ck = match long(2).run_until(&mut NullRecorder, 5).expect("pause run") {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => unreachable!("must pause"),
        };
        let err = long(3)
            .resume_from(&mut NullRecorder, &ck)
            .expect_err("shape mismatch must be rejected");
        assert!(err.to_string().contains("restore"));
    }

    #[test]
    fn invalid_fault_events_name_the_field() {
        // User index out of range.
        let mut s = quick(2);
        s.faults = FaultSpec::Declared {
            events: vec![FaultEvent::LinkOutage {
                user: 5,
                from_slot: 10,
                until_slot: 20,
            }],
        };
        let msg = run_err(&s);
        assert!(msg.contains("faults.events[0].user"), "{msg}");

        // Empty window.
        let mut s = quick(2);
        s.faults = FaultSpec::Declared {
            events: vec![FaultEvent::DeepFade {
                user: 0,
                from_slot: 20,
                until_slot: 20,
                depth_db: 10.0,
            }],
        };
        let msg = run_err(&s);
        assert!(msg.contains("faults.events[0]"), "{msg}");

        // Degradation factor outside (0, 1].
        let mut s = quick(2);
        s.faults = FaultSpec::Declared {
            events: vec![FaultEvent::CapDegradation {
                from_slot: 0,
                until_slot: 50,
                factor: 1.5,
            }],
        };
        let msg = run_err(&s);
        assert!(msg.contains("factor"), "{msg}");

        // Cell index out of range for a single-cell run.
        let mut s = quick(2);
        s.faults = FaultSpec::Declared {
            events: vec![FaultEvent::CellOutage {
                cell: 3,
                from_slot: 0,
                until_slot: 50,
            }],
        };
        let msg = run_err(&s);
        assert!(msg.contains("cell"), "{msg}");

        // Departure past the horizon.
        let mut s = quick(2);
        s.faults = FaultSpec::Declared {
            events: vec![FaultEvent::Departure {
                user: 0,
                slot: 10_000,
            }],
        };
        let msg = run_err(&s);
        assert!(msg.contains("slot"), "{msg}");
    }

    #[test]
    fn declared_faults_change_the_outcome() {
        let clean = quick(3);
        let mut faulted = clean.clone();
        faulted.faults = FaultSpec::Declared {
            events: vec![FaultEvent::LinkOutage {
                user: 0,
                from_slot: 0,
                until_slot: 60,
            }],
        };
        let a = clean.run().expect("clean run");
        let b = faulted.run().expect("faulted run");
        assert!(
            b.per_user[0].rebuffer_s > a.per_user[0].rebuffer_s,
            "an early link outage must add rebuffering for the victim"
        );
    }

    #[test]
    fn generated_faults_are_deterministic() {
        let mut s = quick(3);
        s.faults = FaultSpec::Generated {
            seed: 7,
            n_events: 4,
        };
        let a = s.run().expect("run a");
        let b = s.run().expect("run b");
        assert_eq!(a, b, "same fault seed ⇒ identical result");
    }

    #[test]
    fn departure_fault_truncates_watch_time() {
        let clean = quick(2);
        let mut faulted = clean.clone();
        faulted.faults = FaultSpec::Declared {
            events: vec![FaultEvent::Departure { user: 1, slot: 3 }],
        };
        let a = clean.run().expect("clean run");
        let b = faulted.run().expect("faulted run");
        assert!(
            b.per_user[1].watched_s < a.per_user[1].watched_s,
            "a departing user stops watching"
        );
        assert!(
            b.per_user[1].fetched_kb <= a.per_user[1].fetched_kb,
            "a departing user stops fetching"
        );
    }

    #[test]
    fn late_arrival_fault_delays_session_start() {
        let clean = quick(2);
        let mut faulted = clean.clone();
        faulted.faults = FaultSpec::Declared {
            events: vec![FaultEvent::LateArrival {
                user: 0,
                delay_slots: 40,
            }],
        };
        let a = clean.run().expect("clean run");
        let b = faulted.run().expect("faulted run");
        // The late user is unmetered for the delay window.
        assert!(
            b.per_user[0].tx_slots + b.per_user[0].idle_slots
                < a.per_user[0].tx_slots + a.per_user[0].idle_slots,
            "delayed arrival shortens the metered span"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let s = quick(5);
        let j = serde_json::to_string_pretty(&s).expect("serializes");
        let back: Scenario = serde_json::from_str(&j).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    fn simultaneous_arrivals_are_all_zero() {
        assert_eq!(
            ArrivalSpec::Simultaneous.arrival_slots(5, 9),
            vec![0, 0, 0, 0, 0]
        );
    }

    #[test]
    fn staggered_arrivals_are_sorted_and_seeded() {
        let spec = ArrivalSpec::Staggered {
            mean_interval_slots: 20.0,
        };
        let a = spec.arrival_slots(10, 3);
        let b = spec.arrival_slots(10, 3);
        assert_eq!(a, b, "seeded");
        assert_eq!(a[0], 0, "first user arrives immediately");
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "non-decreasing arrivals");
        }
        assert!(
            a.last().is_some_and(|&l| l > 0),
            "stagger actually spreads users"
        );
        let c = spec.arrival_slots(10, 4);
        assert_ne!(a, c, "different seed, different arrivals");
    }

    #[test]
    fn staggered_scenario_runs_and_late_users_start_late() {
        let mut s = quick(4);
        s.arrivals = ArrivalSpec::Staggered {
            mean_interval_slots: 30.0,
        };
        let r = s.run().expect("runs");
        // Late arrivals are unmetered before their slot.
        let slots = r.slots_run;
        assert!(r.per_user.iter().any(|u| u.tx_slots + u.idle_slots < slots));
        assert_eq!(r.completion_rate(), 1.0);
    }

    #[test]
    fn dpi_rates_match_ground_truth_for_cbr() {
        // CBR: the DPI-declared mean rate equals the instantaneous rate,
        // so scheduling decisions are identical bit-for-bit.
        let plain = quick(4);
        let mut dpi = quick(4);
        dpi.rate_via_dpi = true;
        assert_eq!(plain.run().expect("runs"), dpi.run().expect("runs"));
    }

    #[test]
    fn dpi_rates_diverge_for_vbr() {
        // VBR + a rate-sensitive policy (Throttling paces at κ·pᵢ): the
        // gateway schedules on the declared mean while clients play at
        // the instantaneous rate — behaviour must change. (The Default
        // policy is rate-oblivious, so it would not show the difference.)
        let mut plain = quick(4).with_scheduler(SchedulerSpec::throttling_default());
        plain.workload.vbr_levels = Some(vec![0.6, 1.4]);
        plain.workload.vbr_segment_slots = 5;
        plain.slots = 400;
        let mut dpi = plain.clone();
        dpi.rate_via_dpi = true;
        let a = plain.run().expect("runs");
        let b = dpi.run().expect("runs");
        assert_ne!(a, b, "declared-rate scheduling must differ under VBR");
        // Clients still finish their videos either way.
        assert_eq!(a.completion_rate(), 1.0);
        assert_eq!(b.completion_rate(), 1.0);
    }

    #[test]
    fn every_scheduler_spec_runs() {
        for spec in [
            SchedulerSpec::Default,
            SchedulerSpec::rtma(900.0),
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema(1.0),
            SchedulerSpec::throttling_default(),
            SchedulerSpec::onoff_default(),
            SchedulerSpec::salsa_default(),
            SchedulerSpec::estreamer_default(),
        ] {
            let mut s = quick(3).with_scheduler(spec.clone());
            s.slots = 120;
            let r = match s.run() {
                Ok(r) => r,
                Err(e) => unreachable!("{spec:?}: {e}"),
            };
            assert_eq!(r.n_users(), 3, "{spec:?}");
        }
    }
}
