//! EMA — Energy Minimization Algorithm (the paper's Alg. 2).
//!
//! Per slot, EMA minimizes the drift-plus-penalty objective
//! `Σᵢ f(i, φᵢ)` (Eq. (22), see [`crate::cost`]) subject to the link
//! bounds Eq. (1) and the BS bound Eq. (2). Every user's curve is convex
//! in φ, so the slot problem is separable-convex under one budget and
//! [`Ema`] solves it with the exact marginal greedy of
//! [`crate::ema_fast`], pricing participants from the AoS snapshot rows.
//!
//! The paper states the solve as a dynamic program over a bounded
//! multi-choice knapsack:
//!
//! ```text
//! a[i][M] = min over φᵢ ∈ [0, min(capᵢ, M)] of a[i−1][M − φᵢ] + f(i, φᵢ)
//! ```
//!
//! with `g[i][M]` recording the argmin for backtracking and the final
//! total chosen as `argmin_M a[P][M]`. That recurrence is kept verbatim
//! as [`solve_dp_with`] — O(P · C · φ_max) per slot. No policy calls it:
//! it is the oracle the greedy is pinned against, allocation for
//! allocation, per slot in this crate's tests and over whole runs in the
//! simulator's.
//!
//! The Lyapunov virtual queues `PCᵢ` (Eq. (16)) are owned by the policy
//! and advanced after each allocation.

use crate::cost::{CrossLayerModels, EmaCost, TailPricing};
use crate::ema_fast::{solve_greedy_with, GreedyScratch};
use crate::error::StateImportError;
use crate::lyapunov::VirtualQueues;
use jmso_gateway::{Allocation, DegradationEvent, Scheduler, SlotContext};

/// The EMA policy: Lyapunov queues plus the per-slot solve.
///
/// ```
/// use jmso_gateway::Scheduler;
/// use jmso_sched::{CrossLayerModels, Ema};
///
/// let ema = Ema::new(0.5, CrossLayerModels::paper());
/// assert_eq!(ema.v(), 0.5);
/// assert_eq!(ema.name(), "EMA");
/// ```
#[derive(Debug, Clone)]
pub struct Ema {
    v: f64,
    models: CrossLayerModels,
    tail_pricing: TailPricing,
    queues: VirtualQueues,
    parts: Vec<SlotUser>,
    greedy: GreedyScratch,
    pc_clamp: Option<f64>,
    events: Vec<DegradationEvent>,
}

impl Ema {
    /// EMA with Lyapunov weight `V` (larger = more energy saving, looser
    /// rebuffering) and the given cross-layer models.
    pub fn new(v: f64, models: CrossLayerModels) -> Self {
        assert!(v > 0.0, "V must be positive");
        Self {
            v,
            models,
            tail_pricing: TailPricing::PerSlot,
            queues: VirtualQueues::new(0),
            parts: Vec::new(),
            greedy: GreedyScratch::default(),
            pc_clamp: None,
            events: Vec::new(),
        }
    }

    /// Override how idle slots are priced (see [`TailPricing`]).
    pub fn with_tail_pricing(mut self, tail_pricing: TailPricing) -> Self {
        self.tail_pricing = tail_pricing;
        self
    }

    /// Saturate every virtual queue at `bound` seconds (graceful
    /// degradation under prolonged outage). `None` (the default) keeps
    /// the paper-exact unbounded queues; each clamp firing emits a
    /// [`DegradationEvent::QueueClamped`].
    pub fn with_pc_clamp(mut self, pc_clamp: Option<f64>) -> Self {
        assert!(
            pc_clamp.is_none_or(|b| b > 0.0),
            "PC clamp must be positive"
        );
        self.pc_clamp = pc_clamp;
        self
    }

    /// The Lyapunov weight `V`.
    pub fn v(&self) -> f64 {
        self.v
    }

    /// Read access to the virtual queues (tests, diagnostics).
    pub fn queues(&self) -> &VirtualQueues {
        &self.queues
    }
}

/// Per-user inputs to the per-slot solver: the identity, the constraint,
/// and the three numbers that fully describe the affine cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotUser {
    /// Index of this user in `ctx.users` (the engine keeps `users[i].id
    /// == i`, so this doubles as the user id).
    pub id: usize,
    /// This user's virtual queue `PCᵢ(n)`.
    pub pc: f64,
    /// Units this user may receive (`min(Eq. 1 bound, remaining bytes)`).
    pub cap: u64,
    /// Playback rate `pᵢ` in KB/s (used by the oracle objectives).
    pub rate_kbps: f64,
    /// `f(i, 0)`: the priced cost of idling this user for the slot.
    pub f0: f64,
    /// `f(i, 1)`: cost of the first unit.
    pub f1: f64,
    /// `f(i, φ+1) − f(i, φ)` for φ ≥ 1 (the affine slope).
    pub slope: f64,
}

impl SlotUser {
    /// Evaluate `f(i, φ)` from the affine decomposition.
    #[inline]
    pub fn f(&self, units: u64) -> f64 {
        if units == 0 {
            self.f0
        } else {
            self.f1 + (units - 1) as f64 * self.slope
        }
    }
}

/// Gather the participating users (positive capacity) for a slot into a
/// caller-owned buffer, pricing each with `cost`.
pub fn slot_users_into(
    cost: &EmaCost,
    ctx: &SlotContext,
    queues: &VirtualQueues,
    out: &mut Vec<SlotUser>,
) {
    out.clear();
    out.extend(ctx.users.iter().enumerate().filter_map(|(idx, u)| {
        let cap = u.usable_cap_units(ctx.delta_kb);
        if cap == 0 {
            return None;
        }
        let pc = queues.get(u.id);
        let (f0, f1, slope) = cost.curves(u, pc);
        Some(SlotUser {
            id: idx,
            pc,
            cap,
            rate_kbps: u.rate_kbps,
            f0,
            f1,
            slope,
        })
    }));
}

/// Gather the participating users (positive capacity) for a slot.
pub fn slot_users(cost: &EmaCost, ctx: &SlotContext, queues: &VirtualQueues) -> Vec<SlotUser> {
    let mut out = Vec::new();
    slot_users_into(cost, ctx, queues, &mut out);
    out
}

/// Reusable rows for [`solve_dp_with`]; they grow to the largest
/// `(P, width)` seen and hold nothing across calls.
#[derive(Debug, Clone, Default)]
pub struct DpScratch {
    /// `a[i−1][·]` row.
    prev: Vec<f64>,
    /// `a[i][·]` row under construction.
    cur: Vec<f64>,
    /// `g[i][M]` argmin table for backtracking (`P × width`).
    choice: Vec<u32>,
    /// Backtracked per-participant unit counts.
    chosen: Vec<u64>,
}

/// The paper's Algorithm 2, literally: the O(P · C · φ_max) table DP over
/// exact totals, backtracked from `argmin_M a[P][M]`. Returns the
/// per-participant unit counts aligned with `parts`.
///
/// This is the reference the production greedy
/// ([`crate::ema_fast::solve_greedy_with`], where the shared tie-break
/// contract is stated) is tested against, not a production solver. Its
/// comparisons are all strict `<`: φ = 0 wins ties against φ ≥ 1, among
/// tied φ ≥ 1 the smallest wins, and the final argmin keeps the smallest
/// total — so later rows yield to earlier ones and a NaN candidate never
/// wins.
pub fn solve_dp_with<'s>(
    parts: &[SlotUser],
    bs_cap_units: u64,
    scratch: &'s mut DpScratch,
) -> &'s [u64] {
    let DpScratch {
        prev,
        cur,
        choice,
        chosen,
    } = scratch;
    let p = parts.len();
    chosen.clear();
    chosen.resize(p, 0);

    // Totals past Σcap cannot be met exactly: their states are +∞ in
    // every row and never win the argmin, so the table stops there.
    let reachable = parts.iter().fold(0u64, |s, u| s.saturating_add(u.cap));
    let width = bs_cap_units.min(reachable) as usize + 1;
    prev.clear();
    prev.resize(width, f64::INFINITY);
    prev[0] = 0.0;
    cur.clear();
    cur.resize(width, f64::INFINITY);
    choice.clear();
    choice.resize(p * width, 0);

    for (part, row) in parts.iter().zip(choice.chunks_exact_mut(width)) {
        let cap = part.cap.min(bs_cap_units) as usize;
        let SlotUser { f0, f1, slope, .. } = *part;
        for m in 0..width {
            let mut best = prev[m] + f0;
            let mut arg = 0u32;
            let mut f_phi = f1;
            for phi in 1..=cap.min(m) {
                let cand = prev[m - phi] + f_phi;
                if cand < best {
                    best = cand;
                    arg = phi as u32;
                }
                f_phi += slope;
            }
            cur[m] = best;
            row[m] = arg;
        }
        std::mem::swap(prev, cur);
    }

    // D = argmin_M a[P][M] (strict `<` keeps the smallest total).
    let mut best_m = 0usize;
    let mut best = f64::INFINITY;
    for (m, &v) in prev.iter().enumerate() {
        if v < best {
            best = v;
            best_m = m;
        }
    }

    let mut m = best_m;
    for (units, row) in chosen.iter_mut().zip(choice.chunks_exact(width)).rev() {
        let phi = row[m] as usize;
        *units = phi as u64;
        m -= phi;
    }
    debug_assert_eq!(m, 0, "backtrack must consume exactly best_m units");
    chosen
}

/// Objective value `Σ f(i, φᵢ)` of an allocation over the participants.
pub fn objective(parts: &[SlotUser], alloc: &[u64]) -> f64 {
    parts.iter().zip(alloc).map(|(s, &phi)| s.f(phi)).sum()
}

impl Scheduler for Ema {
    fn name(&self) -> &'static str {
        "EMA"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        if self.queues.len() != ctx.users.len() {
            self.queues = VirtualQueues::new(ctx.users.len());
        }
        self.events.clear();
        out.reset(ctx.users.len());
        let cost = EmaCost::with_pricing(self.v, &self.models, ctx, self.tail_pricing);
        slot_users_into(&cost, ctx, &self.queues, &mut self.parts);
        let chosen = solve_greedy_with(&self.parts, ctx.bs_cap_units, &mut self.greedy);
        for (part, &units) in self.parts.iter().zip(chosen) {
            out.0[part.id] = units;
        }
        self.queues.apply_allocation(ctx, &out.0);
        if let Some(bound) = self.pc_clamp {
            for user in 0..self.queues.len() {
                if let Some(pc_before) = self.queues.clamp(user, bound) {
                    self.events.push(DegradationEvent::QueueClamped {
                        slot: ctx.slot,
                        user,
                        pc_before,
                        pc_after: bound,
                    });
                }
            }
        }
    }

    fn queue_values(&self) -> Option<&[f64]> {
        Some(self.queues.values())
    }

    fn degradations(&self) -> &[DegradationEvent] {
        &self.events
    }

    /// Degraded EMA saturates the virtual queues at their current peak
    /// (floored at 1.0), so rebuffering pressure stops compounding while
    /// the slot loop is overloaded. A clamp already configured is kept.
    /// Deterministic — the bound is a pure function of checkpointed
    /// queue state.
    fn engage_degraded(&mut self) -> bool {
        if self.pc_clamp.is_none() {
            let peak = self.queues.values().iter().fold(1.0f64, |m, &q| m.max(q));
            self.pc_clamp = Some(peak);
        }
        true
    }

    fn export_state(&self) -> Option<String> {
        serde_json::to_string(&self.queues).ok()
    }

    fn import_state(&mut self, state: &str) -> Result<(), String> {
        self.queues =
            serde_json::from_str(state).map_err(|e| String::from(StateImportError::from(e)))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ema_fast::solve_greedy;
    use jmso_gateway::UserSnapshot;
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

    fn solve_dp(parts: &[SlotUser], bs_cap_units: u64) -> Vec<u64> {
        solve_dp_with(parts, bs_cap_units, &mut DpScratch::default()).to_vec()
    }

    /// Allocation always satisfies Eq. (1)/(2).
    #[test]
    fn respects_constraints() {
        let users: Vec<_> = (0..6)
            .map(|i| user(i, -70.0 - i as f64, 450.0, 30))
            .collect();
        let mut e = Ema::new(1.0, CrossLayerModels::paper());
        let c = ctx(&users, 70);
        let a = e.allocate(&c);
        a.validate(&c).expect("valid allocation");
    }

    /// First slot, all queues zero: transmitting costs energy and buys no
    /// queue relief (PC=0 ⇒ slope = V·P·δ > 0, and the tail penalty makes
    /// φ=0 vs φ≥1 a real trade-off priced by V).
    #[test]
    fn starved_queues_attract_data() {
        let users = vec![user(0, -70.0, 450.0, 40)];
        let mut e = Ema::new(1.0, CrossLayerModels::paper());
        // Warm up the queue: 3 slots of starvation ⇒ PC = 3τ.
        let c = ctx(&users, 400);
        let _ = e.allocate(&c);
        let _ = e.allocate(&c);
        let a3 = e.allocate(&c);
        // By now queue pressure (PC·δ/p per unit) outweighs the energy
        // price, so EMA transmits.
        assert!(
            a3.0[0] > 0,
            "queue pressure should force transmission, PC={}",
            e.queues().get(0)
        );
    }

    /// With a larger V, energy dominates and EMA ships less data over the
    /// same horizon (deferring bulk until queue pressure overwhelms the
    /// energy price). Note EMA still trickles ≥ 1 unit per slot here: one
    /// 50 KB unit at −90 dBm costs ~39 mJ versus a 733 mJ DCH tail slot,
    /// so φ = 0 is never myopically optimal — a direct consequence of the
    /// paper's Eq. (5) energy dichotomy.
    #[test]
    fn v_controls_the_tradeoff() {
        let run = |v: f64| {
            let users = vec![user(0, -90.0, 450.0, 40)];
            let mut e = Ema::new(v, CrossLayerModels::paper());
            let c = ctx(&users, 400);
            let mut total_units = 0u64;
            for _ in 0..400 {
                total_units += e.allocate(&c).total_units();
            }
            total_units
        };
        assert!(run(50.0) < run(0.05), "larger V ships less data");
    }

    /// Good-signal user is preferred over a bad-signal user with equal
    /// queues (the cross-layer part of EMA).
    #[test]
    fn prefers_good_signal() {
        let users = vec![user(0, -105.0, 450.0, 40), user(1, -55.0, 450.0, 40)];
        let mut e = Ema::new(1.0, CrossLayerModels::paper());
        let c = ctx(&users, 400);
        // Build identical queue pressure.
        for _ in 0..3 {
            let _ = e.allocate(&ctx(&users, 0)); // zero capacity ⇒ starve both
        }
        let a = e.allocate(&c);
        assert!(
            a.0[1] >= a.0[0],
            "good-signal user should get at least as much: {:?}",
            a.0
        );
    }

    /// Algorithm 2 equals exhaustive search on a tiny instance.
    #[test]
    fn dp_is_optimal_small() {
        let users = vec![
            user(0, -100.0, 300.0, 3),
            user(1, -60.0, 600.0, 4),
            user(2, -80.0, 450.0, 2),
        ];
        let c = ctx(&users, 5);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(2.0, &models, &c);
        let mut queues = VirtualQueues::new(3);
        queues.update(0, 1.0, 0.0); // PC₀ = 1
        queues.update(1, 1.0, 3.0); // PC₁ = −2
        queues.update(2, 1.0, 0.5); // PC₂ = 0.5
        let parts = slot_users(&cost, &c, &queues);
        let dp = solve_dp(&parts, c.bs_cap_units);
        let dp_obj = objective(&parts, &dp);

        // Exhaustive.
        let mut best = f64::INFINITY;
        for a in 0..=3u64 {
            for b in 0..=4u64 {
                for d in 0..=2u64 {
                    if a + b + d <= 5 {
                        best = best.min(objective(&parts, &[a, b, d]));
                    }
                }
            }
        }
        assert!((dp_obj - best).abs() < 1e-9, "dp {dp_obj} vs brute {best}");
    }

    /// The greedy and Algorithm 2 return the same allocation on a fixed
    /// contended mid-size instance (the proptests in
    /// `tests/sched_properties.rs` cover random instances).
    #[test]
    fn greedy_matches_algorithm2_fixed() {
        let users: Vec<_> = (0..8)
            .map(|i| {
                user(
                    i,
                    -110.0 + 7.0 * i as f64,
                    300.0 + 40.0 * i as f64,
                    5 + i as u64,
                )
            })
            .collect();
        let c = ctx(&users, 23);
        let models = CrossLayerModels::paper();
        let cost = EmaCost::new(0.7, &models, &c);
        let mut queues = VirtualQueues::new(8);
        for i in 0..8 {
            queues.update(i, 1.0, (i as f64) * 0.4 - 1.0);
        }
        let parts = slot_users(&cost, &c, &queues);
        let greedy = solve_greedy(&parts, c.bs_cap_units);
        assert_eq!(greedy, solve_dp(&parts, c.bs_cap_units));
        assert!(greedy.iter().sum::<u64>() <= 23);
        for (part, &phi) in parts.iter().zip(&greedy) {
            assert!(phi <= part.cap);
        }
    }

    /// A participant with a NaN or infinite curve is granted nothing by
    /// either solver, wherever the non-finite value sits, and the finite
    /// participants around it are still solved identically.
    #[test]
    fn non_finite_curves_get_nothing() {
        let part = |id: usize, f0: f64, f1: f64, slope: f64| SlotUser {
            id,
            pc: 0.0,
            cap: 4,
            rate_kbps: 400.0,
            f0,
            f1,
            slope,
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let bad = [
            (0.0, nan, -1.0),  // NaN first unit
            (0.0, inf, -1.0),  // +∞ first unit
            (-inf, 0.0, -1.0), // idling is free beyond measure
            (0.0, 1.0, nan),   // dominated first unit, NaN slope
            (inf, inf, -1.0),  // NaN first marginal from ∞ − ∞
            (nan, 0.0, -1.0),  // NaN idle cost
        ];
        for (k, &(f0, f1, slope)) in bad.iter().enumerate() {
            for budget in [3u64, 6, 100] {
                let parts = [
                    part(0, 0.0, -2.0, -1.0),
                    part(1, f0, f1, slope),
                    part(2, 0.0, -2.0, -1.0),
                ];
                let greedy = solve_greedy(&parts, budget);
                let dp = solve_dp(&parts, budget);
                assert_eq!(greedy[1], 0, "greedy fed bad curve {k} at C={budget}");
                assert_eq!(dp[1], 0, "Algorithm 2 fed bad curve {k} at C={budget}");
                if f0.is_finite() {
                    // A non-finite f0 poisons every table sum, so only
                    // the grant to the bad user is comparable there.
                    assert_eq!(greedy, dp, "bad curve {k} at C={budget}");
                }
            }
        }
    }

    /// Scratch reuse across slots of different sizes gives the same
    /// answers as fresh solves.
    #[test]
    fn scratch_reuse_is_clean() {
        let models = CrossLayerModels::paper();
        let mut scratch = DpScratch::default();
        for (n, cap) in [(5usize, 40u64), (2, 7), (8, 120), (1, 1), (6, 63)] {
            let users: Vec<_> = (0..n)
                .map(|i| user(i, -95.0 + 5.0 * i as f64, 450.0, 12))
                .collect();
            let c = ctx(&users, cap);
            let cost = EmaCost::new(1.1, &models, &c);
            let mut queues = VirtualQueues::new(n);
            for i in 0..n {
                queues.update(i, 1.0, if i % 2 == 0 { 0.0 } else { 2.0 });
            }
            let parts = slot_users(&cost, &c, &queues);
            let reused = solve_dp_with(&parts, cap, &mut scratch).to_vec();
            let fresh = solve_dp(&parts, cap);
            assert_eq!(reused, fresh, "n={n} cap={cap}");
        }
    }

    /// Algorithm 2, driven slot by slot with its own virtual queues,
    /// makes the exact same allocations as [`Ema`] across a stateful
    /// multi-slot run.
    #[test]
    fn reference_solver_knob_matches_greedy() {
        let models = CrossLayerModels::paper();
        let mut fast = Ema::new(0.8, models);
        let (mut queues, mut parts, mut scratch) =
            (VirtualQueues::new(6), Vec::new(), DpScratch::default());
        for slot in 0..40u64 {
            let users: Vec<_> = (0..6)
                .map(|i| {
                    let wobble = ((slot * 7 + i as u64 * 13) % 20) as f64;
                    user(
                        i,
                        -105.0 + 2.5 * wobble,
                        300.0 + 50.0 * i as f64,
                        3 + i as u64,
                    )
                })
                .collect();
            let mut c = ctx(&users, 14);
            c.slot = slot;
            let cost = EmaCost::new(0.8, &models, &c);
            slot_users_into(&cost, &c, &queues, &mut parts);
            let mut b = Allocation::zeros(users.len());
            for (part, &units) in parts.iter().zip(solve_dp_with(&parts, 14, &mut scratch)) {
                b.0[part.id] = units;
            }
            queues.apply_allocation(&c, &b.0);
            assert_eq!(fast.allocate(&c), b, "slot {slot}");
        }
    }

    /// Queue bookkeeping: only active users update; Eq. (16) holds.
    #[test]
    fn queue_updates_follow_eq16() {
        let mut u0 = user(0, -70.0, 500.0, 40);
        u0.remaining_kb = 0.0;
        u0.active = false; // finished watching
        let users = vec![u0, user(1, -70.0, 500.0, 40)];
        let mut e = Ema::new(1.0, CrossLayerModels::paper());
        let c = ctx(&users, 400);
        let a = e.allocate(&c);
        assert_eq!(a.0[0], 0);
        assert_eq!(e.queues().get(0), 0.0, "inactive user's queue frozen");
        let t1 = c.playback_seconds(a.0[1], 500.0);
        assert!((e.queues().get(1) - (1.0 - t1)).abs() < 1e-12);
    }

    /// The PC clamp saturates a starving user's queue and reports it; the
    /// default (no clamp) lets the queue grow without bound.
    #[test]
    fn pc_clamp_saturates_and_reports() {
        let users = vec![user(0, -70.0, 450.0, 40)];
        let starving = ctx(&users, 0); // outage: zero BS capacity
        let mut unclamped = Ema::new(1.0, CrossLayerModels::paper());
        let mut clamped = Ema::new(1.0, CrossLayerModels::paper()).with_pc_clamp(Some(5.0));
        for _ in 0..12 {
            let _ = unclamped.allocate(&starving);
            let _ = clamped.allocate(&starving);
        }
        assert_eq!(unclamped.queues().get(0), 12.0);
        assert_eq!(clamped.queues().get(0), 5.0);
        assert_eq!(
            clamped.degradations(),
            &[DegradationEvent::QueueClamped {
                slot: 0,
                user: 0,
                pc_before: 6.0,
                pc_after: 5.0,
            }]
        );
    }

    /// Exported queue state round-trips through `import_state`.
    #[test]
    fn queue_state_roundtrip() {
        let users = vec![user(0, -70.0, 450.0, 40), user(1, -85.0, 300.0, 20)];
        let c = ctx(&users, 8);
        let mut a = Ema::new(1.0, CrossLayerModels::paper());
        for _ in 0..5 {
            let _ = a.allocate(&c);
        }
        let state = a.export_state().expect("EMA exports state");
        let mut b = Ema::new(1.0, CrossLayerModels::paper());
        b.import_state(&state).expect("state imports");
        assert_eq!(a.queues(), b.queues());
        assert_eq!(a.allocate(&c), b.allocate(&c));
    }

    /// Empty context works.
    #[test]
    fn no_users() {
        let users: Vec<UserSnapshot> = vec![];
        let mut e = Ema::new(1.0, CrossLayerModels::paper());
        let a = e.allocate(&ctx(&users, 100));
        assert!(a.0.is_empty());
    }

    #[test]
    #[should_panic(expected = "V must be positive")]
    fn zero_v_rejected() {
        Ema::new(0.0, CrossLayerModels::paper());
    }
}
