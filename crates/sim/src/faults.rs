//! Fault injection: timed degradation events layered over a scenario.
//!
//! A [`FaultSpec`] — declared event-by-event in the scenario JSON, or
//! generated from a seed — compiles into a [`FaultPlan`], a validated,
//! query-efficient schedule of:
//!
//! * per-user RSSI faults: deep-fade windows (a dB penalty on top of any
//!   [`jmso_radio::SignalKind`]) and full link outages (RSSI floored at
//!   [`OUTAGE_SIGNAL_DBM`], so the Eq. (1) link capacity clamps to zero);
//! * BS capacity faults: whole-BS degradation windows in single-cell
//!   runs, per-cell degradation and full cell outages in multicell;
//! * user churn: mid-stream departures (the client abandons playback and
//!   the session stops fetching) and late arrivals (an extra delay on the
//!   scenario's arrival process).
//!
//! The plan is the engine's one fault type. A scenario that declares no
//! faults carries no plan, and each hook point below checks whether
//! there is one: a fault-free run pays that branch, not a second copy of
//! the slot (the golden traces, which must not change when faults are
//! absent, pin the bytes; DESIGN.md §10 the cost).
//!
//! **Determinism contract:** faults perturb *state*, never RNG streams.
//! Signal faults are applied to the sampled value after the per-user RNG
//! has advanced, so a faulted run and its fault-free twin draw identical
//! random sequences and differ only where the plan says they should. The
//! telemetry notes emitted for fault windows are derived from the plan
//! alone and are byte-deterministic.

use crate::error::ScenarioError;
use jmso_radio::Dbm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// RSSI reported during a full link outage: far below any threshold the
/// throughput fits cover, so per-user link capacity (Eq. (1)) is zero.
pub const OUTAGE_SIGNAL_DBM: f64 = -200.0;

/// One timed fault. Windows are half-open slot ranges `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultEvent {
    /// User `user`'s RSSI drops by `depth_db` dB during the window.
    DeepFade {
        /// Target user index.
        user: usize,
        /// First faulted slot.
        from_slot: u64,
        /// First slot past the window.
        until_slot: u64,
        /// Fade depth, dB (positive).
        depth_db: f64,
    },
    /// User `user`'s link is fully out during the window.
    LinkOutage {
        /// Target user index.
        user: usize,
        /// First faulted slot.
        from_slot: u64,
        /// First slot past the window.
        until_slot: u64,
    },
    /// BS serving capacity is scaled by `factor` during the window
    /// (single-cell: the one BS; multicell: every cell).
    CapDegradation {
        /// First faulted slot.
        from_slot: u64,
        /// First slot past the window.
        until_slot: u64,
        /// Remaining capacity fraction in `[0, 1]`.
        factor: f64,
    },
    /// One cell of a multicell deployment is fully out (capacity zero)
    /// during the window. In single-cell runs `cell` must be 0 and the
    /// event degrades the whole BS.
    CellOutage {
        /// Target cell index.
        cell: usize,
        /// First faulted slot.
        from_slot: u64,
        /// First slot past the window.
        until_slot: u64,
    },
    /// One cell's capacity is scaled by `factor` during the window.
    CellDegradation {
        /// Target cell index.
        cell: usize,
        /// First faulted slot.
        from_slot: u64,
        /// First slot past the window.
        until_slot: u64,
        /// Remaining capacity fraction in `[0, 1]`.
        factor: f64,
    },
    /// User `user` departs mid-stream at `slot`: playback is abandoned
    /// and nothing further is fetched for them.
    Departure {
        /// Target user index.
        user: usize,
        /// Departure slot.
        slot: u64,
    },
    /// User `user` arrives `delay_slots` later than the scenario's
    /// arrival process dictates.
    LateArrival {
        /// Target user index.
        user: usize,
        /// Extra delay, slots.
        delay_slots: u64,
    },
}

/// Scenario-level fault configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum FaultSpec {
    /// No faults (the default; runs are bit-identical to a scenario with
    /// no `faults` field at all).
    #[default]
    None,
    /// An explicit event list.
    Declared {
        /// The events, validated at compile time.
        events: Vec<FaultEvent>,
    },
    /// `n_events` events drawn deterministically from `seed`: a mix of
    /// deep fades, link outages, capacity degradations, and departures
    /// spread over the horizon.
    Generated {
        /// Generator seed (independent of the scenario seed).
        seed: u64,
        /// How many events to draw.
        n_events: usize,
    },
}

impl FaultSpec {
    /// True when no faults are configured.
    pub fn is_none(&self) -> bool {
        matches!(self, FaultSpec::None)
    }

    /// Materialize the event list (generated specs draw it here).
    pub fn events(&self, n_users: usize, slots: u64) -> Vec<FaultEvent> {
        match self {
            FaultSpec::None => Vec::new(),
            FaultSpec::Declared { events } => events.clone(),
            FaultSpec::Generated { seed, n_events } => {
                generate_events(*seed, *n_events, n_users, slots)
            }
        }
    }

    /// Validate against a scenario of `n_users` users, `slots` slots and
    /// `n_cells` cells, and compile into a query-efficient [`FaultPlan`].
    pub fn compile(
        &self,
        n_users: usize,
        slots: u64,
        n_cells: usize,
    ) -> Result<FaultPlan, ScenarioError> {
        FaultPlan::new(self.events(n_users, slots), n_users, slots, n_cells)
    }
}

/// Draw a deterministic mix of events. Windows are 5–15% of the horizon;
/// departures land in the middle half so sessions have started.
fn generate_events(seed: u64, n_events: usize, n_users: usize, slots: u64) -> Vec<FaultEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_0000_0000_0001);
    let slots_f = slots.max(1) as f64;
    (0..n_events)
        .map(|_| {
            let user = (rng.random_range(0.0..1.0) * n_users as f64) as usize % n_users.max(1);
            let from = (rng.random_range(0.0..0.8) * slots_f) as u64;
            let len = ((rng.random_range(0.05..0.15) * slots_f) as u64).max(1);
            let until = (from + len).min(slots);
            match (rng.random_range(0.0..4.0)) as u64 {
                0 => FaultEvent::DeepFade {
                    user,
                    from_slot: from,
                    until_slot: until,
                    depth_db: rng.random_range(5.0..25.0),
                },
                1 => FaultEvent::LinkOutage {
                    user,
                    from_slot: from,
                    until_slot: until,
                },
                2 => FaultEvent::CapDegradation {
                    from_slot: from,
                    until_slot: until,
                    factor: rng.random_range(0.1..0.8),
                },
                _ => FaultEvent::Departure {
                    user,
                    slot: (rng.random_range(0.25..0.75) * slots_f) as u64,
                },
            }
        })
        .collect()
}

/// What a signal-fault window does to the sampled RSSI.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SignalEffect {
    Fade(f64),
    Outage,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct SignalWindow {
    from: u64,
    until: u64,
    effect: SignalEffect,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct CapWindow {
    from: u64,
    until: u64,
    factor: f64,
}

/// A validated, compiled fault schedule, queried by the engine at every
/// hook point; build one via [`FaultSpec::compile`] or [`FaultPlan::new`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Per-user signal windows.
    signal: Vec<Vec<SignalWindow>>,
    /// BS-wide capacity windows (single-cell events; in multicell these
    /// apply to every cell).
    cap: Vec<CapWindow>,
    /// Per-cell capacity windows (outage = factor 0).
    cell: Vec<Vec<CapWindow>>,
    /// Per-user departure slot.
    departure: Vec<Option<u64>>,
    /// Per-user extra arrival delay.
    arrival_delay: Vec<u64>,
}

impl FaultPlan {
    /// Validate `events` against the scenario dimensions and compile.
    pub fn new(
        events: Vec<FaultEvent>,
        n_users: usize,
        slots: u64,
        n_cells: usize,
    ) -> Result<Self, ScenarioError> {
        let mut plan = FaultPlan {
            events: Vec::new(),
            signal: vec![Vec::new(); n_users],
            cap: Vec::new(),
            cell: vec![Vec::new(); n_cells],
            departure: vec![None; n_users],
            arrival_delay: vec![0; n_users],
        };
        let field = |i: usize, leaf: &str| format!("faults.events[{i}].{leaf}");
        let check_user = |i: usize, user: usize| {
            if user >= n_users {
                Err(ScenarioError::new(
                    field(i, "user"),
                    format!("must be < n_users ({n_users}), got {user}"),
                ))
            } else {
                Ok(())
            }
        };
        let check_window = |i: usize, from: u64, until: u64| {
            if until <= from {
                Err(ScenarioError::new(
                    field(i, "until_slot"),
                    format!("must exceed from_slot ({from}), got {until}"),
                ))
            } else if from >= slots {
                Err(ScenarioError::new(
                    field(i, "from_slot"),
                    format!("must be < slots ({slots}), got {from}"),
                ))
            } else {
                Ok(())
            }
        };
        let check_factor = |i: usize, factor: f64| {
            if !(0.0..=1.0).contains(&factor) {
                Err(ScenarioError::new(
                    field(i, "factor"),
                    format!("must be in [0, 1], got {factor}"),
                ))
            } else {
                Ok(())
            }
        };
        for (i, ev) in events.iter().enumerate() {
            match *ev {
                FaultEvent::DeepFade {
                    user,
                    from_slot,
                    until_slot,
                    depth_db,
                } => {
                    check_user(i, user)?;
                    check_window(i, from_slot, until_slot)?;
                    // NaN must be rejected too, hence the explicit check.
                    if depth_db.is_nan() || depth_db <= 0.0 {
                        return Err(ScenarioError::new(
                            field(i, "depth_db"),
                            format!("must be positive, got {depth_db}"),
                        ));
                    }
                    plan.signal[user].push(SignalWindow {
                        from: from_slot,
                        until: until_slot,
                        effect: SignalEffect::Fade(depth_db),
                    });
                }
                FaultEvent::LinkOutage {
                    user,
                    from_slot,
                    until_slot,
                } => {
                    check_user(i, user)?;
                    check_window(i, from_slot, until_slot)?;
                    plan.signal[user].push(SignalWindow {
                        from: from_slot,
                        until: until_slot,
                        effect: SignalEffect::Outage,
                    });
                }
                FaultEvent::CapDegradation {
                    from_slot,
                    until_slot,
                    factor,
                } => {
                    check_window(i, from_slot, until_slot)?;
                    check_factor(i, factor)?;
                    plan.cap.push(CapWindow {
                        from: from_slot,
                        until: until_slot,
                        factor,
                    });
                }
                FaultEvent::CellOutage {
                    cell,
                    from_slot,
                    until_slot,
                } => {
                    check_window(i, from_slot, until_slot)?;
                    plan.push_cell_window(i, cell, from_slot, until_slot, 0.0, n_cells)?;
                }
                FaultEvent::CellDegradation {
                    cell,
                    from_slot,
                    until_slot,
                    factor,
                } => {
                    check_window(i, from_slot, until_slot)?;
                    check_factor(i, factor)?;
                    plan.push_cell_window(i, cell, from_slot, until_slot, factor, n_cells)?;
                }
                FaultEvent::Departure { user, slot } => {
                    check_user(i, user)?;
                    if slot >= slots {
                        return Err(ScenarioError::new(
                            field(i, "slot"),
                            format!("must be < slots ({slots}), got {slot}"),
                        ));
                    }
                    // Earliest departure wins if several target one user.
                    plan.departure[user] = Some(match plan.departure[user] {
                        Some(prev) => prev.min(slot),
                        None => slot,
                    });
                }
                FaultEvent::LateArrival { user, delay_slots } => {
                    check_user(i, user)?;
                    plan.arrival_delay[user] += delay_slots;
                }
            }
        }
        plan.events = events;
        Ok(plan)
    }

    /// Cell events fold into the whole-BS schedule in single-cell runs
    /// (cell 0 *is* the BS); otherwise they land on their cell.
    fn push_cell_window(
        &mut self,
        i: usize,
        cell: usize,
        from: u64,
        until: u64,
        factor: f64,
        n_cells: usize,
    ) -> Result<(), ScenarioError> {
        if cell >= n_cells {
            return Err(ScenarioError::new(
                format!("faults.events[{i}].cell"),
                format!("must be < n_cells ({n_cells}), got {cell}"),
            ));
        }
        let w = CapWindow {
            from,
            until,
            factor,
        };
        if n_cells == 1 {
            self.cap.push(w);
        } else {
            self.cell[cell].push(w);
        }
        Ok(())
    }

    /// The validated event list.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Extra arrival delay for `user` (late-arrival churn).
    pub fn arrival_delay(&self, user: usize) -> u64 {
        self.arrival_delay[user]
    }

    /// Users this plan touches with signal faults or churn.
    pub fn n_users(&self) -> usize {
        self.signal.len()
    }

    fn cap_factor(&self, slot: u64) -> f64 {
        let mut f = 1.0;
        for w in &self.cap {
            if (w.from..w.until).contains(&slot) {
                f *= w.factor;
            }
        }
        f
    }

    /// Perturb user `user`'s sampled RSSI at `slot`. Called *after* the
    /// signal model's RNG has advanced, so fault-free and faulted runs
    /// share random streams.
    pub fn adjust_signal(&self, slot: u64, user: usize, sig: Dbm) -> Dbm {
        let mut out = sig;
        for w in &self.signal[user] {
            if (w.from..w.until).contains(&slot) {
                match w.effect {
                    SignalEffect::Fade(db) => out = Dbm(out.value() - db),
                    SignalEffect::Outage => return Dbm(OUTAGE_SIGNAL_DBM),
                }
            }
        }
        out
    }

    /// Scale the BS slot budget (Eq. (2), units) at `slot`.
    pub fn adjust_cap_units(&self, slot: u64, cap_units: u64) -> u64 {
        let f = self.cap_factor(slot);
        if f >= 1.0 {
            cap_units
        } else {
            (cap_units as f64 * f).floor() as u64
        }
    }

    /// Scale cell `cell`'s serving capacity (KB/s) at `slot` (multicell).
    pub fn scale_cell_cap(&self, slot: u64, cell: usize, cap_kbps: f64) -> f64 {
        let mut f = self.cap_factor(slot);
        if let Some(windows) = self.cell.get(cell) {
            for w in windows {
                if (w.from..w.until).contains(&slot) {
                    f *= w.factor;
                }
            }
        }
        cap_kbps * f
    }

    /// True once user `user` has departed (at or after their departure
    /// slot). The engine's churn handling is idempotent, so this may keep
    /// returning true after the departure has been applied.
    pub fn departed(&self, slot: u64, user: usize) -> bool {
        self.departure[user].is_some_and(|d| slot >= d)
    }

    /// Telemetry notes for fault activity at `slot` (window boundaries
    /// and departures). Byte-deterministic; one string per transition.
    pub fn notes_into(&self, slot: u64, out: &mut Vec<String>) {
        for ev in &self.events {
            match *ev {
                FaultEvent::DeepFade {
                    user,
                    from_slot,
                    until_slot,
                    depth_db,
                } => {
                    if from_slot == slot {
                        out.push(format!("deep_fade start user={user} depth_db={depth_db}"));
                    }
                    if until_slot == slot {
                        out.push(format!("deep_fade end user={user}"));
                    }
                }
                FaultEvent::LinkOutage {
                    user,
                    from_slot,
                    until_slot,
                } => {
                    if from_slot == slot {
                        out.push(format!("link_outage start user={user}"));
                    }
                    if until_slot == slot {
                        out.push(format!("link_outage end user={user}"));
                    }
                }
                FaultEvent::CapDegradation {
                    from_slot,
                    until_slot,
                    factor,
                } => {
                    if from_slot == slot {
                        out.push(format!("cap_degradation start factor={factor}"));
                    }
                    if until_slot == slot {
                        out.push("cap_degradation end".to_string());
                    }
                }
                FaultEvent::CellOutage {
                    cell,
                    from_slot,
                    until_slot,
                } => {
                    if from_slot == slot {
                        out.push(format!("cell_outage start cell={cell}"));
                    }
                    if until_slot == slot {
                        out.push(format!("cell_outage end cell={cell}"));
                    }
                }
                FaultEvent::CellDegradation {
                    cell,
                    from_slot,
                    until_slot,
                    factor,
                } => {
                    if from_slot == slot {
                        out.push(format!(
                            "cell_degradation start cell={cell} factor={factor}"
                        ));
                    }
                    if until_slot == slot {
                        out.push(format!("cell_degradation end cell={cell}"));
                    }
                }
                FaultEvent::Departure { user, slot: d } => {
                    if d == slot {
                        out.push(format!("departure user={user}"));
                    }
                }
                FaultEvent::LateArrival { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan::new(events, 4, 100, 1).expect("valid plan")
    }

    #[test]
    fn empty_plan_is_identity() {
        let h = plan(Vec::new());
        assert_eq!(h.adjust_signal(5, 0, Dbm(-80.0)), Dbm(-80.0));
        assert_eq!(h.adjust_cap_units(5, 400), 400);
        assert_eq!(h.scale_cell_cap(5, 2, 1000.0), 1000.0);
        assert!(!h.departed(5, 0));
        let mut notes = Vec::new();
        h.notes_into(5, &mut notes);
        assert!(notes.is_empty());
    }

    #[test]
    fn deep_fade_applies_inside_window_only() {
        let p = plan(vec![FaultEvent::DeepFade {
            user: 1,
            from_slot: 10,
            until_slot: 20,
            depth_db: 15.0,
        }]);
        assert_eq!(p.adjust_signal(9, 1, Dbm(-80.0)), Dbm(-80.0));
        assert_eq!(p.adjust_signal(10, 1, Dbm(-80.0)), Dbm(-95.0));
        assert_eq!(p.adjust_signal(19, 1, Dbm(-80.0)), Dbm(-95.0));
        assert_eq!(p.adjust_signal(20, 1, Dbm(-80.0)), Dbm(-80.0));
        // Other users untouched.
        assert_eq!(p.adjust_signal(15, 0, Dbm(-80.0)), Dbm(-80.0));
    }

    #[test]
    fn link_outage_floors_signal() {
        let p = plan(vec![FaultEvent::LinkOutage {
            user: 0,
            from_slot: 0,
            until_slot: 5,
        }]);
        assert_eq!(p.adjust_signal(3, 0, Dbm(-60.0)), Dbm(OUTAGE_SIGNAL_DBM));
        assert_eq!(p.adjust_signal(5, 0, Dbm(-60.0)), Dbm(-60.0));
    }

    #[test]
    fn cap_degradation_scales_units() {
        let p = plan(vec![FaultEvent::CapDegradation {
            from_slot: 2,
            until_slot: 4,
            factor: 0.25,
        }]);
        assert_eq!(p.adjust_cap_units(1, 400), 400);
        assert_eq!(p.adjust_cap_units(2, 400), 100);
        assert_eq!(p.adjust_cap_units(4, 400), 400);
    }

    #[test]
    fn single_cell_folds_cell_events_into_bs() {
        let p = plan(vec![FaultEvent::CellOutage {
            cell: 0,
            from_slot: 1,
            until_slot: 3,
        }]);
        assert_eq!(p.adjust_cap_units(2, 400), 0);
    }

    #[test]
    fn multicell_events_target_their_cell() {
        let p = FaultPlan::new(
            vec![FaultEvent::CellDegradation {
                cell: 2,
                from_slot: 0,
                until_slot: 10,
                factor: 0.5,
            }],
            4,
            100,
            4,
        )
        .expect("valid plan");
        assert_eq!(p.scale_cell_cap(5, 2, 1000.0), 500.0);
        assert_eq!(p.scale_cell_cap(5, 1, 1000.0), 1000.0);
        // Per-cell events leave the single-cell budget untouched.
        assert_eq!(p.adjust_cap_units(5, 400), 400);
    }

    #[test]
    fn departures_latch_and_take_earliest() {
        let p = plan(vec![
            FaultEvent::Departure { user: 2, slot: 50 },
            FaultEvent::Departure { user: 2, slot: 30 },
        ]);
        assert!(!p.departed(29, 2));
        assert!(p.departed(30, 2));
        assert!(p.departed(99, 2), "departure latches");
        assert!(!p.departed(99, 1));
    }

    #[test]
    fn late_arrival_delays_accumulate() {
        let p = plan(vec![
            FaultEvent::LateArrival {
                user: 0,
                delay_slots: 7,
            },
            FaultEvent::LateArrival {
                user: 0,
                delay_slots: 3,
            },
        ]);
        assert_eq!(p.arrival_delay(0), 10);
        assert_eq!(p.arrival_delay(1), 0);
    }

    #[test]
    fn validation_names_field_and_index() {
        let err = FaultPlan::new(
            vec![FaultEvent::DeepFade {
                user: 9,
                from_slot: 0,
                until_slot: 5,
                depth_db: 10.0,
            }],
            4,
            100,
            1,
        )
        .expect_err("plan must be rejected");
        assert!(err.field.contains("events[0].user"), "{err}");
        let err = FaultPlan::new(
            vec![FaultEvent::LinkOutage {
                user: 0,
                from_slot: 5,
                until_slot: 5,
            }],
            4,
            100,
            1,
        )
        .expect_err("plan must be rejected");
        assert!(err.field.contains("until_slot"), "{err}");
        let err = FaultPlan::new(
            vec![FaultEvent::CapDegradation {
                from_slot: 0,
                until_slot: 5,
                factor: 1.5,
            }],
            4,
            100,
            1,
        )
        .expect_err("plan must be rejected");
        assert!(err.field.contains("factor"), "{err}");
        let err = FaultPlan::new(
            vec![FaultEvent::Departure { user: 0, slot: 100 }],
            4,
            100,
            1,
        )
        .expect_err("plan must be rejected");
        assert!(err.field.contains("slot"), "{err}");
        let err = FaultPlan::new(
            vec![FaultEvent::CellOutage {
                cell: 3,
                from_slot: 0,
                until_slot: 5,
            }],
            4,
            100,
            2,
        )
        .expect_err("plan must be rejected");
        assert!(err.field.contains("cell"), "{err}");
    }

    #[test]
    fn generated_events_are_deterministic_and_valid() {
        let spec = FaultSpec::Generated {
            seed: 7,
            n_events: 12,
        };
        let a = spec.events(8, 500);
        let b = spec.events(8, 500);
        assert_eq!(a, b, "seeded generation");
        assert_eq!(a.len(), 12);
        // Every generated event passes validation.
        let plan = spec.compile(8, 500, 1).expect("generated plan compiles");
        assert_eq!(plan.events().len(), 12);
        let c = FaultSpec::Generated {
            seed: 8,
            n_events: 12,
        }
        .events(8, 500);
        assert_ne!(a, c, "different seed, different events");
    }

    #[test]
    fn notes_fire_at_window_boundaries() {
        let p = plan(vec![
            FaultEvent::DeepFade {
                user: 1,
                from_slot: 10,
                until_slot: 20,
                depth_db: 12.0,
            },
            FaultEvent::Departure { user: 2, slot: 10 },
        ]);
        let mut notes = Vec::new();
        p.notes_into(10, &mut notes);
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("deep_fade start"));
        assert!(notes[1].contains("departure user=2"));
        notes.clear();
        p.notes_into(15, &mut notes);
        assert!(notes.is_empty());
        p.notes_into(20, &mut notes);
        assert_eq!(notes, vec!["deep_fade end user=1".to_string()]);
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = FaultSpec::Declared {
            events: vec![
                FaultEvent::DeepFade {
                    user: 0,
                    from_slot: 1,
                    until_slot: 9,
                    depth_db: 10.0,
                },
                FaultEvent::CapDegradation {
                    from_slot: 3,
                    until_slot: 6,
                    factor: 0.5,
                },
            ],
        };
        let j = serde_json::to_string(&spec).expect("serializes");
        let back: FaultSpec = serde_json::from_str(&j).expect("parses");
        assert_eq!(back, spec);
        let none: FaultSpec = serde_json::from_str(r#"{"kind":"none"}"#).expect("parses");
        assert!(none.is_none());
    }
}
