//! Multi-cell scenarios with user mobility.
//!
//! The paper deploys its framework at the PDN gateway, "managing the
//! resources of each BS independently" — one Scheduler instance per base
//! station. A [`MultiCellScenario`] exercises that claim: `n_cells` cells
//! each run their own scheduler against their own serving budget while
//! users roam between them (a memoryless handover process).
//!
//! There is no second simulator behind it. A multicell run is the
//! engine's one slot pipeline with a lane per cell (see
//! [`crate::engine`]): this file validates, builds the base scenario's
//! engine with `n_cells` lanes and the fault plan compiled against them,
//! steps the ordinary driver to the end, and adds what the cells saw to
//! the ordinary [`SimResult`]. It stays a type of its own only because
//! the repository benchmark builds it.
//!
//! A multicell run reads the base scenario's radio, media, scheduler,
//! capacity (per cell), fault, ABR and series settings. It ignores four:
//! the information collector is always the perfect pass-through (report
//! staleness across a changing membership is not meaningful), every user
//! attaches at slot 0 (`arrivals` and late-arrival fault events are
//! single-cell features), the origin never runs dry, and rates are read
//! from ground truth rather than by DPI. Feasibility admission control
//! is rejected, and the run cannot be checkpointed.

use crate::engine::{CellStats, SlotDriver};
use crate::error::{ScenarioError, SimError};
use crate::results::SimResult;
use crate::scenario::{ArrivalSpec, Scenario};
use crate::telemetry::{NullRecorder, SlotRecorder, SlotTrace, TraceRecorder};
use jmso_gateway::{CollectorSpec, OriginModel};
use serde::{Deserialize, Serialize};

/// Configuration of a multi-cell run. Radio/media/scheduler parameters are
/// borrowed from an embedded single-cell [`Scenario`]; its `capacity` is
/// interpreted per cell.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct MultiCellScenario {
    /// The per-cell parameters (capacity = per-cell serving budget;
    /// `n_users` = total users across all cells; the collector,
    /// arrival, origin and DPI settings are ignored — see module docs).
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

impl MultiCellScenario {
    /// Validate and run.
    pub fn run(&self) -> Result<MultiCellResult, SimError> {
        self.run_with(&mut NullRecorder)
    }

    /// The checks every run path starts with, then a driver over the
    /// engine — the base scenario's, with the settings a multicell run
    /// ignores at their pass-through defaults, a lane per cell, and the
    /// base scenario's fault spec compiled against this many cells. Feasibility admission control reasons about one
    /// serving budget; with independent per-cell budgets and roaming
    /// there is no single capacity to bound against, so multicell runs
    /// only accept `AlwaysAdmit` (a no-op) or no admission spec at all.
    fn driver<R: SlotRecorder>(&self, rec: &mut R) -> Result<SlotDriver, SimError> {
        let base = &self.base;
        base.validate()?;
        if base
            .admission
            .as_ref()
            .is_some_and(|a| !a.is_always_admit())
        {
            let only_one = "feasibility admission control is single-cell only";
            return Err(ScenarioError::new("admission", only_one).into());
        }
        if self.n_cells == 0 {
            return Err(ScenarioError::new("n_cells", "must be positive").into());
        }
        if !(0.0..=1.0).contains(&self.handover_prob) {
            return Err(ScenarioError::new("handover_prob", "must be in [0, 1]").into());
        }
        let plan = match base.faults.is_none() {
            true => None,
            false => Some(
                base.faults
                    .compile(base.n_users, base.slots, self.n_cells)?,
            ),
        };
        let cell = Scenario {
            collector: CollectorSpec::perfect(),
            arrivals: ArrivalSpec::Simultaneous,
            origin: OriginModel::Infinite,
            rate_via_dpi: false,
            ..base.clone()
        };
        // Built without the plan, which is installed after: its late
        // arrivals are the one fault the build applies.
        let mut engine = cell.build_engine(None)?.into_cells(
            self.n_cells,
            self.handover_prob,
            base.seed,
            || {
                (
                    base.scheduler.build(base.tau, &base.models),
                    base.capacity.build(),
                )
            },
        );
        engine.faults = plan;
        engine.build_driver(rec, None)
    }

    /// The driver's result with what the cells saw. One cell keeps every
    /// user for the whole run.
    fn fold(&self, (result, cells): (SimResult, Option<CellStats>)) -> MultiCellResult {
        let (handovers, mean_cell_occupancy) = match cells {
            Some(cells) => (cells.handovers, cells.mean_occupancy),
            None => (0, vec![self.base.n_users as f64]),
        };
        MultiCellResult {
            result,
            handovers,
            mean_cell_occupancy,
        }
    }

    /// [`MultiCellScenario::run`] with a [`SlotRecorder`] observing every
    /// slot. Per-slot telemetry aggregates over cells: the capacity is
    /// the sum of per-cell budgets, the allocation is the combined
    /// per-user grant, and the scheduler latency covers all cells'
    /// decisions. With more than one cell no queue values are recorded:
    /// each cell has its own scheduler, so no single queue vector
    /// describes the slot.
    ///
    /// The base scenario's `faults` apply here with per-cell semantics:
    /// `CellOutage`/`CellDegradation` hit their own cell's budget, deep
    /// fades and link outages follow the user across cells, and
    /// departures abandon the session.
    pub fn run_with<R: SlotRecorder>(&self, rec: &mut R) -> Result<MultiCellResult, SimError> {
        Ok(self.fold(self.driver(rec)?.run(rec)))
    }

    /// Run with a capturing [`TraceRecorder`] (one record per `every`
    /// slots); returns the result plus the trace.
    pub fn run_traced(&self, every: u64) -> Result<(MultiCellResult, SlotTrace), SimError> {
        let mut rec = TraceRecorder::new().with_every(every);
        let result = self.run_with(&mut rec)?;
        let trace = rec.into_trace(&result.result.scheduler);
        Ok((result, trace))
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
            SchedulerSpec::ema(0.05),
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

    /// Recording is observation only: in every policy family the traced
    /// run equals the untraced one, one record per slot, and both repeat
    /// exactly.
    #[test]
    fn traced_run_equals_untraced_across_schedulers() {
        for spec in [
            SchedulerSpec::Default,
            SchedulerSpec::RtmaUnbounded,
            SchedulerSpec::ema(0.05),
        ] {
            let mut mc = multi(8, 4, 0.05);
            mc.base.scheduler = spec.clone();
            let plain = mc.run().expect("runs");
            assert_eq!(mc.run().expect("runs"), plain, "{spec:?} must repeat");
            let (traced, trace) = mc.run_traced(1).expect("runs");
            assert_eq!(traced.result.per_user, plain.result.per_user, "{spec:?}");
            assert_eq!(traced.handovers, plain.handovers, "{spec:?}");
            assert_eq!(traced.mean_cell_occupancy, plain.mean_cell_occupancy);
            assert_eq!(trace.records.len() as u64, plain.result.slots_run);
        }
    }

    /// A departure abandons the session of a user who roams, while
    /// another cell is out; the faulted run repeats exactly.
    #[test]
    fn departure_abandons_the_session_under_roaming() {
        let clean = multi(6, 3, 0.05);
        let mut faulted = clean.clone();
        faulted.base.faults = FaultSpec::Declared {
            events: vec![
                FaultEvent::CellOutage {
                    cell: 1,
                    from_slot: 10,
                    until_slot: 60,
                },
                FaultEvent::Departure { user: 2, slot: 3 },
            ],
        };
        let a = clean.run().expect("clean run");
        let b = faulted.run().expect("faulted run");
        let (a2, b2) = (&a.result.per_user[2], &b.result.per_user[2]);
        assert!(
            b2.watched_s < a2.watched_s,
            "a departing user stops watching"
        );
        assert!(
            b2.fetched_kb < a2.fetched_kb,
            "a departing user stops fetching"
        );
        assert!(b.handovers > 0, "users must still roam");
        assert_eq!(faulted.run().expect("faulted rerun"), b);
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

    /// Every door validates alike: the traced run and a run under any
    /// recorder refuse what `run` refuses.
    #[test]
    fn traced_run_validates_like_run() {
        let mut mc = multi(4, 2, 0.01);
        mc.handover_prob = 1.5;
        assert!(mc.run_traced(1).is_err());
        assert!(mc.run_with(&mut NullRecorder).is_err());
        let mut mc = multi(4, 2, 0.01);
        mc.n_cells = 0;
        assert!(mc.run_traced(1).is_err());
        assert!(mc.run_with(&mut NullRecorder).is_err());
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

    /// The settings a multicell run has always ignored stay ignored:
    /// none of them starts to matter because the engine behind the run
    /// would honour it.
    #[test]
    fn ignored_base_settings_stay_ignored() {
        let mut plain = multi(6, 3, 0.05);
        plain.base.workload.vbr_levels = Some(vec![0.6, 1.4]);
        plain.base.workload.vbr_segment_slots = 5;
        plain.base.faults = FaultSpec::Declared {
            events: vec![FaultEvent::Departure { user: 2, slot: 40 }],
        };
        let mut loaded = plain.clone();
        loaded.base.collector = CollectorSpec {
            staleness_slots: 4,
            signal_noise_std_db: 3.0,
        };
        loaded.base.arrivals = ArrivalSpec::Staggered {
            mean_interval_slots: 12.0,
        };
        loaded.base.origin = OriginModel::RateLimited { kbps: 150.0 };
        loaded.base.rate_via_dpi = true;
        if let FaultSpec::Declared { events } = &mut loaded.base.faults {
            events.push(FaultEvent::LateArrival {
                user: 1,
                delay_slots: 60,
            });
        }
        let run = |mc: &MultiCellScenario| mc.run().expect("runs");
        assert_eq!(run(&loaded), run(&plain));
        // Each of them does matter to the single-cell run of the base.
        assert_ne!(
            loaded.base.run().expect("runs"),
            plain.base.run().expect("runs")
        );
    }

    #[test]
    fn a_multicell_run_refuses_a_checkpoint() {
        let mut rec = TraceRecorder::new();
        let mut drv = multi(4, 2, 0.05).driver(&mut rec).expect("a fresh driver");
        drv.step(&mut rec);
        assert!(matches!(
            drv.checkpoint(&rec),
            Err(crate::error::CheckpointError::Unsupported { .. })
        ));
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
