//! RTMA — Rebuffering Time Minimization Algorithm (the paper's Alg. 1).
//!
//! Per slot, RTMA:
//!
//! 1. sorts users by required data rate `pᵢ(n)` ascending — given equal
//!    data, a lower-rate user sustains playback longer, so cheap users are
//!    served first;
//! 2. computes each user's per-slot need `φ_need(i) = ⌈τ·pᵢ/δ⌉`;
//! 3. repeatedly sweeps the sorted users, granting each at most one more
//!    `φ_need` tranche per sweep, skipping users whose signal falls below
//!    the Eq. (12) threshold (the energy budget Φ in admission-rule form),
//!    until the BS budget is exhausted or no user can take more.
//!
//! The tranche-per-sweep structure is what produces RTMA's fairness
//! (Fig. 2): early users cannot seize the whole BS budget in one pass.
//!
//! **Degraded-cap fallback.** When every remaining demander sits below the
//! Eq. (12) threshold (a deep fade or cell degradation can push the whole
//! population there), the paper-exact policy starves everyone. With
//! [`Rtma::with_best_effort`] enabled, RTMA instead re-runs the tranche
//! sweep ignoring the threshold on whatever budget is left, and reports
//! the departure from nominal behaviour as a
//! [`DegradationEvent::RtmaBestEffort`]. The fallback is off by default so
//! the threshold semantics (and every golden trace) are unchanged.

use crate::cost::CrossLayerModels;
use crate::kernels;
use crate::threshold::SignalThreshold;
use jmso_gateway::{Allocation, DegradationEvent, Scheduler, SlotContext, UserSnapshot};
use jmso_radio::MilliJoules;

/// The RTMA policy.
///
/// ```
/// use jmso_radio::MilliJoules;
/// use jmso_sched::{CrossLayerModels, Rtma};
///
/// let models = CrossLayerModels::paper();
/// // A 950 mJ per-slot budget converts (Eq. 12) into a signal threshold
/// // somewhere inside the paper's [−110, −50] dBm range…
/// let rtma = Rtma::with_energy_bound(MilliJoules(950.0), 1.0, &models);
/// let t = rtma.threshold();
/// assert!((-110.0..=-50.0).contains(&t.min_dbm));
/// // …while an unconstrained RTMA admits everyone.
/// assert_eq!(Rtma::unbounded().threshold().min_dbm, f64::NEG_INFINITY);
/// ```
#[derive(Debug, Clone)]
pub struct Rtma {
    threshold: SignalThreshold,
    /// When the threshold leaves budget unservable, re-sweep ignoring it.
    best_effort: bool,
    /// Degradation events of the latest slot.
    events: Vec<DegradationEvent>,
    // Reusable per-slot scratch (sorted order, needs, ceilings) so the
    // engine hot path allocates nothing in steady state.
    order: Vec<usize>,
    need: Vec<u64>,
    ceiling: Vec<u64>,
    // f64 mirror of `need`, kept after the slot for `queue_values`.
    need_f64: Vec<f64>,
    // Columns rebuilt per slot: the one-sweep grant cap
    // `min(max(need,1), ceiling)` ([`kernels`]) and the Eq. (12)
    // admission verdicts, so the tranche sweeps read precomputed columns
    // instead of redoing the clamp and the float compare every sweep.
    tranche: Vec<u64>,
    admit: Vec<bool>,
}

impl Rtma {
    /// RTMA with an explicit admission threshold.
    pub fn with_threshold(threshold: SignalThreshold) -> Self {
        Self {
            threshold,
            best_effort: false,
            events: Vec::new(),
            order: Vec::new(),
            need: Vec::new(),
            ceiling: Vec::new(),
            need_f64: Vec::new(),
            tranche: Vec::new(),
            admit: Vec::new(),
        }
    }

    /// RTMA with the threshold derived from a per-slot energy budget `Φ`
    /// via Eq. (12).
    pub fn with_energy_bound(phi: MilliJoules, tau: f64, models: &CrossLayerModels) -> Self {
        Self::with_threshold(SignalThreshold::from_energy_bound(phi, tau, models))
    }

    /// RTMA without an energy constraint (threshold admits everyone). In
    /// this configuration the per-slot allocation is locally optimal for
    /// rebuffering, as the paper notes.
    pub fn unbounded() -> Self {
        Self::with_threshold(SignalThreshold::allow_all())
    }

    /// Enable (or disable) the best-effort fallback sweep that ignores the
    /// Eq. (12) threshold when budget would otherwise go unserved. Off by
    /// default; each firing emits a [`DegradationEvent::RtmaBestEffort`].
    pub fn with_best_effort(mut self, best_effort: bool) -> Self {
        self.best_effort = best_effort;
        self
    }

    /// The admission threshold in force.
    pub fn threshold(&self) -> SignalThreshold {
        self.threshold
    }

    /// Run the nominal sweep and, if enabled and budget survives it, the
    /// best-effort fallback. The Eq. (12) verdicts arrive precomputed in
    /// `self.admit`.
    fn run_sweeps(&mut self, ctx: &SlotContext, alloc: &mut [u64]) {
        let mut budget = ctx.bs_cap_units;
        sweep_tranches(
            &self.order,
            &self.tranche,
            &self.ceiling,
            ctx.users,
            Some(&self.admit),
            alloc,
            &mut budget,
        );

        // Degraded-cap fallback: budget is left, and the only reason can
        // be the admission threshold (the nominal sweep only stops with
        // budget when no admitted user can take more). Serve the blocked
        // demand best-effort and report the departure from Alg. 1.
        if self.best_effort && budget > 0 {
            let before = budget;
            sweep_tranches(
                &self.order,
                &self.tranche,
                &self.ceiling,
                ctx.users,
                None,
                alloc,
                &mut budget,
            );
            let units_recovered = before - budget;
            if units_recovered > 0 {
                self.events.push(DegradationEvent::RtmaBestEffort {
                    slot: ctx.slot,
                    units_recovered,
                });
            }
        }
    }
}

/// Steps 4–15 of Algorithm 1: sweep the sorted users granting one
/// need-tranche each until `budget` is exhausted or nothing moves.
/// `admit: None` runs the best-effort variant with no admission rule.
///
/// The Eq. (12) rule and the need/cap clamp are consumed as precomputed
/// columns: `admit[i]` stores exactly the scalar `threshold.allows`
/// verdict, and `tranche[i] = min(max(need,1), ceiling)` (built by the
/// [`kernels`] batch pass) equals the inline `need.max(1).min(sup)`
/// because `sup ≤ ceiling[i]` makes the extra ceiling clamp a no-op
/// under `min`.
fn sweep_tranches(
    order: &[usize],
    tranche: &[u64],
    ceiling: &[u64],
    users: &[UserSnapshot],
    admit: Option<&[bool]>,
    alloc: &mut [u64],
    budget: &mut u64,
) {
    while *budget > 0 {
        let mut progressed = false;
        for &i in order {
            if *budget == 0 {
                break;
            }
            if !users[i].active && users[i].remaining_kb <= 0.0 {
                continue;
            }
            // Step 6: the Eq. (12) energy admission rule, precomputed.
            if let Some(mask) = admit {
                if !mask[i] {
                    continue;
                }
            }
            // Step 7: φ_sup = remaining headroom under Eq. (1)/(2).
            let sup = (ceiling[i] - alloc[i]).min(*budget);
            if sup == 0 {
                continue;
            }
            // Steps 8–12: grant one need-tranche, or whatever is left.
            let grant = tranche[i].min(sup);
            alloc[i] += grant;
            *budget -= grant;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
}

impl Scheduler for Rtma {
    fn name(&self) -> &'static str {
        "RTMA"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        let n = ctx.users.len();
        out.reset(n);
        self.events.clear();

        // Step 2: ascending required data rate; ties keep id order (the
        // explicit index tie-break makes the unstable — and allocation-free
        // — sort deterministic). Step 3: per-slot need ⌈τ·pᵢ/δ⌉ and the
        // hard per-user ceiling (link bound ∩ remaining video bytes).
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_unstable_by(|&a, &b| {
            // `total_cmp` agrees with `partial_cmp` on the finite
            // positive rates the collector reports, and stays a total
            // order (no panic path) on anything hand-built.
            ctx.users[a]
                .rate_kbps
                .total_cmp(&ctx.users[b].rate_kbps)
                .then(a.cmp(&b))
        });
        self.need.clear();
        self.need.extend(
            ctx.users
                .iter()
                .map(|u| ((ctx.tau * u.rate_kbps) / ctx.delta_kb).ceil() as u64),
        );
        self.ceiling.clear();
        self.ceiling
            .extend(ctx.users.iter().map(|u| u.usable_cap_units(ctx.delta_kb)));
        // Queue view (outstanding per-slot demand — raw need masked to 0
        // when the ceiling is zero) and the per-sweep grant cap, both as
        // one dense batch pass over the need/ceiling columns.
        kernels::demand_mask_into(&self.need, &self.ceiling, &mut self.need_f64);
        kernels::tranche_clamp_into(&self.need, &self.ceiling, &mut self.tranche);
        // Eq. (12) verdicts, read on every sweep.
        self.admit.clear();
        self.admit
            .extend(ctx.users.iter().map(|u| self.threshold.allows(u.signal)));
        self.run_sweeps(ctx, &mut out.0);
    }

    fn queue_values(&self) -> Option<&[f64]> {
        Some(&self.need_f64)
    }

    fn degradations(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Degraded RTMA is best-effort mode: leftover budget is spread to
    /// blocked users instead of being left stranded (emitting
    /// [`DegradationEvent::RtmaBestEffort`] when it fires).
    fn engage_degraded(&mut self) -> bool {
        self.best_effort = true;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    fn user(id: usize, sig: f64, rate: f64, link_cap: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(sig),
            rate_kbps: rate,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: link_cap,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    fn ctx<'a>(users: &'a [UserSnapshot], bs_cap: u64) -> SlotContext<'a> {
        SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: bs_cap,
            users,
            soa: None,
        }
    }

    /// With ample budget every user gets at least their need.
    #[test]
    fn ample_budget_meets_all_needs() {
        let users = vec![
            user(0, -70.0, 300.0, 60), // need ⌈300/50⌉ = 6
            user(1, -70.0, 600.0, 60), // need 12
        ];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 400));
        assert!(a.0[0] >= 6);
        assert!(a.0[1] >= 12);
        a.validate(&ctx(&users, 400)).expect("valid allocation");
    }

    /// Under scarcity, the low-rate user's need is served first.
    #[test]
    fn scarcity_prioritizes_low_rate_users() {
        let users = vec![
            user(0, -70.0, 600.0, 100), // need 12, sorted second
            user(1, -70.0, 300.0, 100), // need 6, sorted first
        ];
        // Budget of 6: exactly the low-rate user's need.
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 6));
        assert_eq!(a.0[1], 6, "low-rate user served first");
        assert_eq!(a.0[0], 0);
    }

    /// The signal threshold blocks weak-signal users entirely.
    #[test]
    fn threshold_blocks_weak_users() {
        let users = vec![user(0, -100.0, 300.0, 50), user(1, -60.0, 300.0, 50)];
        let mut r = Rtma::with_threshold(SignalThreshold { min_dbm: -80.0 });
        let a = r.allocate(&ctx(&users, 400));
        assert_eq!(a.0[0], 0, "below threshold");
        assert!(a.0[1] > 0, "above threshold");
    }

    /// Leftover budget is distributed in extra sweeps (bandwidth fully
    /// used when users can take it).
    #[test]
    fn extra_sweeps_use_leftover_budget() {
        let users = vec![user(0, -70.0, 300.0, 40), user(1, -70.0, 300.0, 40)];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 80));
        // Both can absorb 40 each: whole budget used.
        assert_eq!(a.total_units(), 80);
        assert_eq!(a.0[0], 40);
        assert_eq!(a.0[1], 40);
    }

    /// Eq. (1) is never violated even with a huge BS budget.
    #[test]
    fn link_cap_respected() {
        let users = vec![user(0, -70.0, 600.0, 7)];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 1000));
        assert_eq!(a.0[0], 7);
    }

    /// Eq. (2) is never violated even with huge link caps.
    #[test]
    fn bs_cap_respected() {
        let users: Vec<_> = (0..10).map(|i| user(i, -60.0, 450.0, 1000)).collect();
        let mut r = Rtma::unbounded();
        let c = ctx(&users, 55);
        let a = r.allocate(&c);
        assert_eq!(a.total_units(), 55);
        a.validate(&c).expect("valid allocation");
    }

    /// Users with nothing left to fetch get nothing.
    #[test]
    fn finished_fetchers_skipped() {
        let mut u0 = user(0, -70.0, 300.0, 50);
        u0.remaining_kb = 0.0;
        let users = vec![u0, user(1, -70.0, 300.0, 50)];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 100));
        assert_eq!(a.0[0], 0);
        assert!(a.0[1] > 0);
    }

    /// Remaining video bytes cap the grant (no over-delivery).
    #[test]
    fn remaining_bytes_cap_grant() {
        let mut u0 = user(0, -70.0, 600.0, 100);
        u0.remaining_kb = 130.0; // ⌈130/50⌉ = 3 units
        let users = vec![u0];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 400));
        assert_eq!(a.0[0], 3);
    }

    /// Everyone blocked by the threshold ⇒ all-zero allocation, no hang.
    #[test]
    fn all_blocked_terminates() {
        let users = vec![user(0, -100.0, 300.0, 50), user(1, -105.0, 450.0, 50)];
        let mut r = Rtma::with_threshold(SignalThreshold { min_dbm: -60.0 });
        let a = r.allocate(&ctx(&users, 400));
        assert_eq!(a.total_units(), 0);
        assert!(r.degradations().is_empty(), "fallback is opt-in");
    }

    /// Best-effort fallback serves threshold-blocked users and reports a
    /// degradation event; admitted users are unaffected.
    #[test]
    fn best_effort_serves_blocked_users() {
        let users = vec![user(0, -100.0, 300.0, 50), user(1, -105.0, 450.0, 50)];
        let mut r = Rtma::with_threshold(SignalThreshold { min_dbm: -60.0 }).with_best_effort(true);
        let c = ctx(&users, 400);
        let a = r.allocate(&c);
        assert_eq!(a.total_units(), 100, "blocked demand served best-effort");
        a.validate(&c).expect("valid allocation");
        assert_eq!(
            r.degradations(),
            &[DegradationEvent::RtmaBestEffort {
                slot: 0,
                units_recovered: 100,
            }]
        );
    }

    /// When the nominal sweep already uses the whole budget, the fallback
    /// stays silent — no event, identical allocation.
    #[test]
    fn best_effort_silent_when_nominal_feasible() {
        let users = vec![user(0, -70.0, 300.0, 40), user(1, -72.0, 300.0, 40)];
        let mut nominal = Rtma::with_threshold(SignalThreshold { min_dbm: -80.0 });
        let mut fallback =
            Rtma::with_threshold(SignalThreshold { min_dbm: -80.0 }).with_best_effort(true);
        let c = ctx(&users, 60);
        let a = nominal.allocate(&c);
        let b = fallback.allocate(&c);
        assert_eq!(a, b);
        assert!(fallback.degradations().is_empty());
    }

    /// Events are cleared between slots.
    #[test]
    fn events_reset_each_slot() {
        let blocked = vec![user(0, -100.0, 300.0, 50)];
        let fine = vec![user(0, -60.0, 300.0, 50)];
        let mut r = Rtma::with_threshold(SignalThreshold { min_dbm: -80.0 }).with_best_effort(true);
        let _ = r.allocate(&ctx(&blocked, 10));
        assert_eq!(r.degradations().len(), 1);
        let _ = r.allocate(&ctx(&fine, 10));
        assert!(r.degradations().is_empty());
    }

    /// Zero users: empty allocation.
    #[test]
    fn no_users() {
        let users: Vec<UserSnapshot> = vec![];
        let mut r = Rtma::unbounded();
        let a = r.allocate(&ctx(&users, 400));
        assert!(a.0.is_empty());
    }
}
