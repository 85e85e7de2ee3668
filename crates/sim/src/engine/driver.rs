//! The stepping API over a built run: [`SlotDriver`], its work counts and its finish.

use super::phases::{phase_a, phase_b, phase_c};
use super::{CellLane, Columns, Engine, LiveState, LoopState, Mode, UserSim};
use crate::error::ScenarioError;
use crate::results::SimResult;
use crate::telemetry::SlotRecorder;
use std::cmp::Reverse;

/// The resumable stepping form of the engine's slot pipeline: one slot
/// per [`SlotDriver::step`] call, checkpoint capture between any two
/// slots, and live mutation of the not-yet-executed schedule.
///
/// Built by [`Scenario::driver`](crate::scenario::Scenario::driver). A
/// slot is the three phase functions of the module docs, and
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
    pub(super) engine: Engine,
    pub(super) lp: LoopState,
    pub(super) cols: Columns,
    pub(super) live: LiveState,
    pub(super) lanes: Vec<CellLane>,
    /// The run's constants.
    pub(super) mode: Mode,
    pub(super) start_slot: u64,
    pub(super) next_slot: u64,
    pub(super) finished: bool,
}

/// What the latest slot cost in rows visited rather than in time: counts
/// that repeat exactly from run to run, so a test can pin that a slot
/// costs the sessions in the cell and not the pool they came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotWork {
    /// Flows the Data Receiver's ingest visited.
    pub receiver_flows: usize,
    /// Rows the schedulers' contexts listed as possibly holding demand,
    /// summed over the lanes: the live users of a lone lane, every
    /// cell's members with more than one. What a live-list sweep such
    /// as Default's visits, whatever the policy.
    pub scheduler_rows: usize,
    /// Rows of the grant vector the scheduler zeroed plus rows it wrote
    /// ([`jmso_gateway::Scheduler::grant_rows_touched`]); the whole pool
    /// for a policy that resets the vector.
    pub grant_rows_cleared: usize,
    /// Rows phase B rewrote for the collector: every row in the full
    /// pass of a collector that holds or perturbs reports, the live rows
    /// in its refresh, none for a pass-through collector.
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
            scheduler_rows: self.lp.scheduler_rows,
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
        let queue = &mut self.live.arrival_queue;
        queue.push(Reverse((slot, user)));
        // But a feed that reschedules each user many times would leave
        // one per call for the slot loop to pop. Past two per user, the
        // queue is rebuilt from the arrival column: one entry for each
        // user still to arrive — exactly those whose arrival is at or
        // after the next slot — which is the set the drain would keep.
        let arrival = &self.cols.arrival;
        if queue.len() > 2 * arrival.len() {
            let next = self.next_slot;
            queue.clear();
            queue.extend(
                (0..arrival.len())
                    .filter(|&i| arrival[i] != u64::MAX && arrival[i] >= next)
                    .map(|i| Reverse((arrival[i], i))),
            );
        }
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
        if kbps.is_infinite() {
            return Err(ScenarioError::new("live.rate", "rate must be finite"));
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

    /// Execute exactly one slot of the §III pipeline. Returns the slot
    /// index it ran, or `None` once the run is finished.
    ///
    /// The three phases back to back, on the calling thread.
    pub fn step<R: SlotRecorder>(&mut self, rec: &mut R) -> Option<u64> {
        if self.finished {
            return None;
        }
        let slot = self.next_slot;
        let mode = self.mode;
        let Self {
            engine: eng,
            lp,
            cols: c,
            live: lv,
            lanes,
            ..
        } = self;
        phase_a(eng, mode, slot, lv, c);
        phase_b(eng, lp, mode, slot, lv, lanes, c, rec);
        self.finished = phase_c(eng, lp, slot, lv, c, rec);
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
