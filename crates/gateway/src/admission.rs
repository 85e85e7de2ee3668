//! Gateway admission control for compiled-plan arrivals.
//!
//! The paper admits every session unconditionally; Bethanabhotla et al.
//! (utility-optimal scheduling *plus admission control*) point at the
//! missing knob. When the engine runs an open system (PR 7's compiled
//! churn plans), each planned arrival is put before an
//! [`AdmissionController`] at the end of the slot preceding it. The
//! controller compares a running feasibility estimate of the Lyapunov
//! performance bounds — Ω̂ (long-run rebuffering, Theorem 1's
//! `(B + V·E*)/ε`) and Φ̂ (long-run energy, `E* + B/V`) *as they would be
//! with the candidate admitted* — against configured budgets, and
//! admits, defers (retry next slot), or rejects the session.
//!
//! The controller itself is deliberately numeric-in/decision-out: the
//! simulator computes the bound estimates with `jmso_sched`'s Lyapunov
//! helpers (this crate sits *below* `jmso-sched` in the dependency
//! graph and cannot call them) and passes an [`AdmissionContext`] in.
//! [`AdmissionSpec::AlwaysAdmit`] is the identity controller: it admits
//! everything, records nothing, and is bit-identical to running without
//! admission control at all.

use serde::{Deserialize, Serialize};

/// Admission policy for open-system arrivals.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum AdmissionSpec {
    /// Admit every arrival (the paper's implicit policy). Bit-identical
    /// to running without a controller.
    AlwaysAdmit,
    /// Admit only while the Lyapunov bound estimates stay inside the
    /// configured budgets; defer up to `max_defer_slots`, then reject.
    Feasibility {
        /// Lyapunov trade-off weight `V` used in the bound estimates.
        v: f64,
        /// Budget on the per-user long-run rebuffering bound Ω̂/n,
        /// seconds per user-slot (`None` = unbudgeted).
        #[serde(default)]
        omega_s: Option<f64>,
        /// Budget on the per-user long-run energy bound Φ̂/n, mJ per
        /// user-slot (`None` = unbudgeted).
        #[serde(default)]
        phi_mj: Option<f64>,
        /// Slots a candidate may be deferred before it is rejected.
        #[serde(default = "default_max_defer_slots")]
        max_defer_slots: u64,
    },
}

fn default_max_defer_slots() -> u64 {
    30
}

impl AdmissionSpec {
    /// True for the identity controller.
    pub fn is_always_admit(&self) -> bool {
        matches!(self, AdmissionSpec::AlwaysAdmit)
    }

    /// Parameter checks.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AdmissionSpec::AlwaysAdmit => Ok(()),
            AdmissionSpec::Feasibility {
                v, omega_s, phi_mj, ..
            } => {
                if !v.is_finite() || *v <= 0.0 {
                    return Err(format!("v {v} must be positive and finite"));
                }
                if let Some(w) = omega_s {
                    if !w.is_finite() || *w <= 0.0 {
                        return Err(format!("omega_s {w} must be positive and finite"));
                    }
                }
                if let Some(p) = phi_mj {
                    if !p.is_finite() || *p <= 0.0 {
                        return Err(format!("phi_mj {p} must be positive and finite"));
                    }
                }
                Ok(())
            }
        }
    }
}

/// Outcome of one admission consultation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum AdmissionDecision {
    /// Session starts at its planned slot.
    Admit,
    /// Arrival pushed one slot; the controller re-evaluates then.
    Defer,
    /// Session cancelled; the user never goes live.
    Reject,
}

/// Bound estimates for one candidate, computed by the caller with the
/// candidate counted among the active users.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionContext {
    /// Per-user service slack ε̂ = τ·(C/(n·r̄) − 1), seconds of playback
    /// headroom per slot. Non-positive slack means the cell cannot even
    /// sustain aggregate demand — Theorem 1's bound does not exist.
    pub eps_s: f64,
    /// Per-user long-run rebuffering bound Ω̂/n, s per user-slot
    /// (`f64::INFINITY` when `eps_s ≤ 0`).
    pub omega_hat_s: f64,
    /// Per-user long-run energy bound Φ̂/n, mJ per user-slot.
    pub phi_hat_mj: f64,
}

/// Tallies of every decision the controller has made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionSummary {
    /// Sessions admitted.
    pub admitted: u64,
    /// Defer decisions issued (one session may accrue several).
    pub deferrals: u64,
    /// Sessions rejected.
    pub rejected: u64,
}

/// Per-run admission state: the policy plus per-user deferral counts.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionController {
    spec: AdmissionSpec,
    defer_counts: Vec<u64>,
    summary: AdmissionSummary,
}

impl AdmissionController {
    /// A controller over `n_users` planned sessions.
    pub fn new(spec: AdmissionSpec, n_users: usize) -> Self {
        Self {
            spec,
            defer_counts: vec![0; n_users],
            summary: AdmissionSummary::default(),
        }
    }

    /// The policy this controller runs.
    pub fn spec(&self) -> &AdmissionSpec {
        &self.spec
    }

    /// Whether the bound estimates in `ctx` admit a candidate: positive
    /// slack and every configured budget met. Pure — the verdict reads
    /// neither the candidate's identity nor its deferral count — and,
    /// for bound estimates computed the simulator's way, monotone in
    /// the candidate's rate: a lower rate is admitted whenever a higher
    /// one is.
    pub fn admissible(&self, ctx: &AdmissionContext) -> bool {
        match &self.spec {
            AdmissionSpec::AlwaysAdmit => true,
            AdmissionSpec::Feasibility {
                omega_s, phi_mj, ..
            } => {
                let omega_ok = omega_s.is_none_or(|w| ctx.omega_hat_s <= w);
                let phi_ok = phi_mj.is_none_or(|p| ctx.phi_hat_mj <= p);
                ctx.eps_s > 0.0 && omega_ok && phi_ok
            }
        }
    }

    /// Tally one ruling on `user`'s pending arrival: admit when
    /// `admissible`, else defer while the user has been deferred fewer
    /// than `max_defer_slots` times, else reject.
    fn tally(&mut self, user: usize, admissible: bool) -> AdmissionDecision {
        let decision = if admissible {
            AdmissionDecision::Admit
        } else if self.defer_counts[user] < self.max_defer_slots() {
            AdmissionDecision::Defer
        } else {
            AdmissionDecision::Reject
        };
        match decision {
            AdmissionDecision::Admit => self.summary.admitted += 1,
            AdmissionDecision::Defer => {
                self.defer_counts[user] += 1;
                self.summary.deferrals += 1;
            }
            AdmissionDecision::Reject => self.summary.rejected += 1,
        }
        decision
    }

    /// Decide `user`'s pending arrival given the bound estimates:
    /// [`AdmissionController::admissible`], then the tally.
    pub fn decide(&mut self, user: usize, ctx: &AdmissionContext) -> AdmissionDecision {
        let admissible = self.admissible(ctx);
        self.tally(user, admissible)
    }

    /// Deferrals after which a refused candidate is rejected (0 for
    /// [`AdmissionSpec::AlwaysAdmit`], which never refuses).
    pub fn max_defer_slots(&self) -> u64 {
        match &self.spec {
            AdmissionSpec::AlwaysAdmit => 0,
            AdmissionSpec::Feasibility {
                max_defer_slots, ..
            } => *max_defer_slots,
        }
    }

    /// Open a clocked wait for `user`, whose arrival first came due at
    /// slot `first_due`. A candidate is ruled once per slot until
    /// admitted or rejected, so while the wait is open its deferral
    /// count is a function of the clock — `due − first_due` at the
    /// ruling for slot `due` — and a deferral writes nothing: the count
    /// and the tally are settled by [`AdmissionController::end_wait`]
    /// (or read by [`AdmissionController::export_state`]). A count the
    /// user already carries — a restored wait's, which `first_due`
    /// must account for — leaves the tally here, since the clock now
    /// covers it. Until the wait closes the user's count entry holds
    /// `first_due`.
    pub fn start_wait(&mut self, user: usize, first_due: u64) {
        self.summary.deferrals -= self.defer_counts[user];
        self.defer_counts[user] = first_due;
    }

    /// Close `user`'s wait with the ruling for slot `due`: admitted, or
    /// (refused at the deferral cap) rejected. The count and the tally
    /// become what a [`AdmissionController::decide`] call per ruling
    /// would have left.
    pub fn end_wait(&mut self, user: usize, due: u64, admit: bool) -> AdmissionDecision {
        let deferred = due - self.defer_counts[user];
        self.defer_counts[user] = deferred;
        self.summary.deferrals += deferred;
        if admit {
            self.summary.admitted += 1;
            AdmissionDecision::Admit
        } else {
            self.summary.rejected += 1;
            AdmissionDecision::Reject
        }
    }

    /// Decision tallies so far.
    pub fn summary(&self) -> AdmissionSummary {
        self.summary
    }

    /// Snapshot for a checkpoint, with the open waits of the users in
    /// `waiting` — each last deferred to slot `deferred_to` — settled as
    /// deferrals: the state a `decide` call per ruling would have left.
    pub fn export_state(
        &self,
        waiting: impl IntoIterator<Item = usize>,
        deferred_to: u64,
    ) -> AdmissionState {
        let mut state = AdmissionState {
            defer_counts: self.defer_counts.clone(),
            summary: self.summary,
        };
        for user in waiting {
            let deferred = deferred_to - self.defer_counts[user];
            state.defer_counts[user] = deferred;
            state.summary.deferrals += deferred;
        }
        state
    }

    /// Restore state captured by [`AdmissionController::export_state`].
    pub fn import_state(&mut self, state: &AdmissionState) -> Result<(), String> {
        if state.defer_counts.len() != self.defer_counts.len() {
            return Err(format!(
                "admission checkpoint has {} users, controller has {}",
                state.defer_counts.len(),
                self.defer_counts.len()
            ));
        }
        self.defer_counts.clone_from(&state.defer_counts);
        self.summary = state.summary;
        Ok(())
    }
}

/// Serializable snapshot of an [`AdmissionController`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionState {
    /// Per-user deferral counts.
    pub defer_counts: Vec<u64>,
    /// Decision tallies.
    pub summary: AdmissionSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feasible_ctx() -> AdmissionContext {
        AdmissionContext {
            eps_s: 0.5,
            omega_hat_s: 0.01,
            phi_hat_mj: 500.0,
        }
    }

    fn infeasible_ctx() -> AdmissionContext {
        AdmissionContext {
            eps_s: -0.1,
            omega_hat_s: f64::INFINITY,
            phi_hat_mj: 500.0,
        }
    }

    #[test]
    fn always_admit_is_identity() {
        let mut c = AdmissionController::new(AdmissionSpec::AlwaysAdmit, 2);
        assert_eq!(c.decide(0, &infeasible_ctx()), AdmissionDecision::Admit);
        assert_eq!(c.decide(1, &feasible_ctx()), AdmissionDecision::Admit);
        assert_eq!(c.summary().admitted, 2);
        assert_eq!(c.summary().rejected, 0);
    }

    #[test]
    fn feasibility_admits_inside_budgets() {
        let spec = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: Some(0.05),
            phi_mj: Some(1000.0),
            max_defer_slots: 3,
        };
        let mut c = AdmissionController::new(spec, 1);
        assert_eq!(c.decide(0, &feasible_ctx()), AdmissionDecision::Admit);
    }

    #[test]
    fn feasibility_defers_then_rejects() {
        let spec = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: Some(0.05),
            phi_mj: None,
            max_defer_slots: 2,
        };
        let mut c = AdmissionController::new(spec, 1);
        assert_eq!(c.decide(0, &infeasible_ctx()), AdmissionDecision::Defer);
        assert_eq!(c.decide(0, &infeasible_ctx()), AdmissionDecision::Defer);
        assert_eq!(c.decide(0, &infeasible_ctx()), AdmissionDecision::Reject);
        let s = c.summary();
        assert_eq!((s.admitted, s.deferrals, s.rejected), (0, 2, 1));
    }

    #[test]
    fn budget_violations_block_even_with_slack() {
        let spec = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: Some(0.05),
            phi_mj: Some(400.0),
            max_defer_slots: 0,
        };
        let mut c = AdmissionController::new(spec, 1);
        // Positive slack but the energy bound busts the budget.
        assert_eq!(c.decide(0, &feasible_ctx()), AdmissionDecision::Reject);
    }

    #[test]
    fn unbudgeted_feasibility_only_checks_slack() {
        let spec = AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 0,
        };
        let mut c = AdmissionController::new(spec, 2);
        assert_eq!(c.decide(0, &feasible_ctx()), AdmissionDecision::Admit);
        assert_eq!(c.decide(1, &infeasible_ctx()), AdmissionDecision::Reject);
    }

    #[test]
    fn spec_validation() {
        assert!(AdmissionSpec::AlwaysAdmit.validate().is_ok());
        let ok = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: Some(0.05),
            phi_mj: None,
            max_defer_slots: 10,
        };
        assert!(ok.validate().is_ok());
        let bad_v = AdmissionSpec::Feasibility {
            v: 0.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 10,
        };
        assert!(bad_v.validate().is_err());
        let bad_omega = AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: Some(-1.0),
            phi_mj: None,
            max_defer_slots: 10,
        };
        assert!(bad_omega.validate().is_err());
    }

    #[test]
    fn state_roundtrip() {
        let spec = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 5,
        };
        let mut c = AdmissionController::new(spec.clone(), 3);
        c.decide(1, &infeasible_ctx());
        c.decide(2, &feasible_ctx());
        let st = c.export_state([], 0);
        let mut fresh = AdmissionController::new(spec, 3);
        fresh.import_state(&st).unwrap();
        assert_eq!(fresh, c);
        // Mismatched population is rejected.
        let mut tiny = AdmissionController::new(AdmissionSpec::AlwaysAdmit, 1);
        assert!(tiny.import_state(&st).is_err());
    }

    /// A clocked wait settles to what one `decide` per ruling leaves:
    /// with a cap of three, a user first due at slot 4, refused at 4, 5
    /// and 6 and admitted at 7, and another refused from 5 on until the
    /// cap rejects them at 8 — and a snapshot taken while both waits are
    /// open reads as the eager one.
    #[test]
    fn clocked_waits_settle_like_eager_rulings() {
        let spec = AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 3,
        };
        let mut eager = AdmissionController::new(spec.clone(), 2);
        let mut clocked = AdmissionController::new(spec, 2);
        clocked.start_wait(0, 4);
        clocked.start_wait(1, 5);
        // Slots 4 and 5.
        for user in [0, 0, 1] {
            assert_eq!(
                eager.decide(user, &infeasible_ctx()),
                AdmissionDecision::Defer
            );
        }
        // Both deferred to slot 6.
        assert_eq!(clocked.export_state([0, 1], 6), eager.export_state([], 0));
        // Slots 6, 7 and 8.
        for (user, ctx) in [
            (0, infeasible_ctx()),
            (1, infeasible_ctx()),
            (0, feasible_ctx()),
        ] {
            eager.decide(user, &ctx);
        }
        assert_eq!(eager.decide(1, &infeasible_ctx()), AdmissionDecision::Defer);
        assert_eq!(
            eager.decide(1, &infeasible_ctx()),
            AdmissionDecision::Reject
        );
        assert_eq!(clocked.end_wait(0, 7, true), AdmissionDecision::Admit);
        assert_eq!(clocked.end_wait(1, 8, false), AdmissionDecision::Reject);
        assert_eq!(clocked, eager);
        assert_eq!(clocked.export_state([], 0).defer_counts, [3, 3]);
        assert_eq!(clocked.max_defer_slots(), 3);
    }

    /// A wait restored from a snapshot — the user deferred twice, from
    /// first due slot 4 to slot 6 — re-opens at slot 4 and settles once:
    /// the two deferrals the snapshot carried are not counted again when
    /// the clock closes the wait, nor by a later snapshot.
    #[test]
    fn a_restored_wait_counts_its_deferrals_once() {
        let spec = AdmissionSpec::Feasibility {
            v: 1.0,
            omega_s: None,
            phi_mj: None,
            max_defer_slots: 5,
        };
        let mut eager = AdmissionController::new(spec.clone(), 1);
        let mut clocked = AdmissionController::new(spec.clone(), 1);
        clocked.start_wait(0, 4);
        for _ in 0..2 {
            eager.decide(0, &infeasible_ctx());
        }
        let snapshot = clocked.export_state([0], 6);
        assert_eq!(snapshot, eager.export_state([], 0));
        let mut restored = AdmissionController::new(spec, 1);
        restored.import_state(&snapshot).unwrap();
        restored.start_wait(0, 6 - snapshot.defer_counts[0]);
        // Refused at 6, snapshot at the top of 7, admitted at 7.
        eager.decide(0, &infeasible_ctx());
        assert_eq!(restored.export_state([0], 7), eager.export_state([], 0));
        assert_eq!(eager.decide(0, &feasible_ctx()), AdmissionDecision::Admit);
        assert_eq!(restored.end_wait(0, 7, true), AdmissionDecision::Admit);
        assert_eq!(restored, eager);
        assert_eq!(restored.summary().deferrals, 3);
    }

    /// `decide` is `admissible` then `tally`; the verdict alone reads no
    /// state, so asking it changes nothing.
    #[test]
    fn admissible_is_pure() {
        let c = AdmissionController::new(
            AdmissionSpec::Feasibility {
                v: 1.0,
                omega_s: Some(0.05),
                phi_mj: None,
                max_defer_slots: 0,
            },
            1,
        );
        let before = c.clone();
        assert!(c.admissible(&feasible_ctx()));
        assert!(!c.admissible(&infeasible_ctx()));
        assert_eq!(c, before);
        assert!(
            AdmissionController::new(AdmissionSpec::AlwaysAdmit, 1).admissible(&infeasible_ctx())
        );
    }

    #[test]
    fn serde_roundtrip() {
        let spec = AdmissionSpec::Feasibility {
            v: 2.0,
            omega_s: Some(0.1),
            phi_mj: Some(900.0),
            max_defer_slots: 7,
        };
        let j = serde_json::to_string(&spec).unwrap();
        let back: AdmissionSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(back, spec);
        // Terse feasibility spec picks up defaults.
        let terse: AdmissionSpec =
            serde_json::from_str("{\"kind\":\"feasibility\",\"v\":1.5}").unwrap();
        match terse {
            AdmissionSpec::Feasibility {
                max_defer_slots, ..
            } => assert_eq!(max_defer_slots, 30),
            other => panic!("expected feasibility, got {other:?}"),
        }
    }
}
