//! The end-of-slot admission tick and the decision expression it shares with the reference.

use super::{AdmissionRuntime, UserSim};
use crate::results::UserResult;
use crate::telemetry::SlotRecorder;
use crate::waiting_room::MonotoneVerdict;
use jmso_gateway::{AdmissionContext, AdmissionDecision};
use jmso_sched::{drift_bound_b, energy_upper_bound, rebuffer_upper_bound};

/// The planned arrivals due after `after`, as `(first_due, user)`
/// ascending — the order every tick has ruled in, and the order their
/// deferral caps run out in. A user's first due slot is their arrival
/// slot less the `deferred` slots they already waited (none before the
/// run; on restore, those of the users the checkpoint's tick deferred).
/// Users that never arrive (`u64::MAX`: past any horizon, or rejected)
/// are left out.
pub(super) fn planned_arrivals(
    arrival: &[u64],
    after: u64,
    deferred: impl Fn(usize) -> u64,
) -> Vec<(u64, usize)> {
    let mut planned: Vec<(u64, usize)> = (arrival.iter().enumerate())
        .filter(|&(_, &a)| a > after && a != u64::MAX)
        .map(|(i, &a)| (a - deferred(i), i))
        .collect();
    planned.sort_unstable();
    planned
}

/// The running per-user-slot E* estimate (0 until any user-slot has been
/// charged — optimistic start).
pub(super) fn admission_e_star(adm: &AdmissionRuntime) -> f64 {
    if adm.user_slots == 0 {
        0.0
    } else {
        adm.energy_mj / adm.user_slots as f64
    }
}

/// The bound estimates for one candidate given the active population
/// *with the candidate admitted* (`n_active` users whose rates sum to
/// `rate_sum`). This is the single decision expression both the tick and
/// the full-rescan reference evaluate, so the two paths can only diverge
/// through their population aggregates.
///
/// Between two admits of one tick only `rate_sum` varies with the
/// candidate, as `S + r`, and the verdict is monotone in `r`: every step
/// from `r` to it is a monotone IEEE operation — `S + r`, `/ n`, `n ·`,
/// `C / x` (x > 0), `− 1`, `τ ·` on the way to ε̂, then Ω̂'s division by
/// `n · ε̂` — and Φ̂ does not read `r` at all. So a rate that passes
/// makes every lower rate pass (`admissible_is_monotone_in_the_rate`),
/// which is what lets the tick's waiting room skip whom it refuses.
pub(super) fn admission_context(
    v: f64,
    n_active: usize,
    rate_sum: f64,
    e_star_user: f64,
    c_kbps: f64,
    tau: f64,
) -> AdmissionContext {
    let n = n_active as f64;
    let r_bar = rate_sum / n;
    // Per-user service slack ε̂ = τ·(C/(n·r̄) − 1): seconds of
    // playback headroom per user-slot under an even capacity split.
    let eps_s = tau * (c_kbps / (n * r_bar) - 1.0);
    // Theorem 1 bound estimates with the candidate counted in; the
    // aggregate forms take Σ-quantities, so the per-user estimates
    // are scaled up by n going in and back down coming out.
    let b = drift_bound_b(n_active, tau, tau);
    let phi_hat = energy_upper_bound(e_star_user * n, b, v) / n;
    let omega_hat = if eps_s > 0.0 {
        rebuffer_upper_bound(b, v, e_star_user * n, n * eps_s) / n
    } else {
        // Non-positive slack: Theorem 1's bound does not exist.
        f64::INFINITY
    };
    AdmissionContext {
        eps_s,
        omega_hat_s: omega_hat,
        phi_hat_mj: phi_hat,
    }
}

/// Apply one admission ruling to the schedule: deferred users are pushed
/// back a slot, rejected users are cancelled before ever going live (the
/// radio stays cold and they stop counting toward the watch count).
/// Rejected users were never in the active population, so the aggregates
/// are untouched here; the admit arm (aggregates, gate) is each tick's
/// own business.
pub(super) fn admission_apply(
    arrival: &mut [u64],
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    j: usize,
    next_slot: u64,
    decision: AdmissionDecision,
) {
    match decision {
        AdmissionDecision::Admit => {}
        AdmissionDecision::Defer => arrival[j] = next_slot + 1,
        AdmissionDecision::Reject => {
            arrival[j] = u64::MAX;
            users[j].session.cancel_remaining();
            users[j].playback.abandon();
            done_watching[j] = true;
            *watching -= 1;
        }
    }
}

/// One end-of-slot admission pass: rule on every arrival due at the next
/// slot — the planned arrivals that just came due and everyone still
/// waiting — in ascending user order, each against the Lyapunov bound
/// estimates *as they would be with the candidate admitted* (candidates
/// this pass already admitted count toward later candidates' load).
///
/// Runs at the end of phase C, right before `end_slot`, so the decision
/// uses the slot's final capacity and energy accounting and its records
/// land on the decision slot. The rulings are the reference's, one per
/// waiting user, but the tick never visits a user it defers:
///
/// * Between two admits the population aggregates are fixed and the
///   verdict is monotone in the candidate's rate ([`admission_context`]),
///   so the next admit is the leftmost waiting user whose rate passes —
///   the waiting room finds them with O(log n) evaluations — and every
///   user it skipped was refused.
/// * A refused user is deferred while their count, `next_slot −
///   first_due`, is under the cap, and rejected at it: the users the
///   `expire_next` cursor reaches this tick. A deferral writes nothing
///   (`AdmissionRuntime::waiting`).
///
/// So a tick costs its arrivals, rejects and admits, O(log n) each. The
/// rulings go to an enabled recorder in the reference's order, merged
/// from the admits, the rejects and the room; a disabled one gets no
/// call. The reference loop runs the naive form,
/// `admission_tick_reference`, pinned equal by the admission property
/// pack.
#[allow(clippy::too_many_arguments)]
pub(super) fn admission_tick<R: SlotRecorder>(
    adm: &mut AdmissionRuntime,
    arrival: &mut [u64],
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    mut per_user: Option<&mut [UserResult]>,
    rec: &mut R,
    slot: u64,
    bs_cap_units: u64,
    tau: f64,
    delta_kb: f64,
) {
    let next_slot = slot + 1;
    // The gate consumed the previous tick's admits at the top of this
    // slot.
    adm.admitted.clear();
    adm.rejected.clear();
    while let Some(&(first_due, j)) = adm.planned.get(adm.planned_next) {
        if first_due > next_slot {
            break;
        }
        adm.ctl.start_wait(j, first_due);
        adm.waiting.insert(j, adm.rates[j]);
        adm.planned_next += 1;
    }
    adm.ruled = adm.waiting.len();
    adm.evaluations = 0;
    // Slot-s capacity in KB/s.
    let c_kbps = bs_cap_units as f64 * delta_kb / tau;
    let e_star_user = admission_e_star(adm);
    let mut from = 0;
    loop {
        // Population with the candidate admitted: the maintained active
        // population (which already includes the candidates this pass
        // admitted) plus the candidate — never a member yet, since its
        // arrival slot is the next slot.
        let (n_active, active_sum) = (adm.n_active + 1, adm.rate_sum);
        let (ctl, v) = (&adm.ctl, adm.v);
        let mut verdict = MonotoneVerdict::new(|rate| {
            ctl.admissible(&admission_context(
                v,
                n_active,
                active_sum + rate,
                e_star_user,
                c_kbps,
                tau,
            ))
        });
        let found = adm.waiting.leftmost(from, &adm.rates, &mut verdict);
        adm.evaluations += verdict.evaluations;
        let Some(j) = found else { break };
        // Arrival commit: the event point where `j` joins the active
        // population (and counts toward later candidates) and enters
        // the arrival gate.
        adm.waiting.remove(j, &adm.rates);
        adm.ctl.end_wait(j, next_slot, true);
        adm.n_active += 1;
        adm.rate_sum += adm.rates[j];
        adm.admitted.push(j);
        arrival[j] = next_slot;
        from = j + 1;
    }
    // Everyone still waiting was refused; those whose wait reached the
    // cap are rejected. A planned entry keeps its `first_due` order, and
    // the cursor passes one slot's worth a tick, so these come ascending.
    let cutoff = next_slot.checked_sub(adm.ctl.max_defer_slots());
    while let Some(&(first_due, j)) = adm.planned.get(adm.expire_next) {
        if cutoff.is_none_or(|cutoff| first_due > cutoff) {
            break;
        }
        adm.expire_next += 1;
        if !adm.waiting.contains(j) {
            continue;
        }
        adm.waiting.remove(j, &adm.rates);
        let decision = adm.ctl.end_wait(j, next_slot, false);
        admission_apply(
            arrival,
            users,
            done_watching,
            watching,
            j,
            next_slot,
            decision,
        );
        if let Some(per_user) = per_user.as_deref_mut() {
            // The row's last write: fold it while it is at hand.
            per_user[j] = users[j].result();
        }
        adm.rejected.push(j);
    }
    if rec.enabled() {
        debug_assert!(adm.rejected.is_sorted());
        emit_rulings(rec, &adm.admitted, &adm.rejected, adm.waiting.iter());
    }
}

/// Record one tick's rulings in ascending user order: the admits and the
/// rejects (each ascending) merged into the users left waiting, who were
/// deferred.
fn emit_rulings<R: SlotRecorder>(
    rec: &mut R,
    admitted: &[usize],
    rejected: &[usize],
    deferred: impl Iterator<Item = usize>,
) {
    let (mut a, mut r) = (0, 0);
    // `usize::MAX` ends the room and flushes the rest.
    for j in deferred.chain([usize::MAX]) {
        loop {
            let (next_admit, next_reject) = (
                admitted.get(a).copied().unwrap_or(usize::MAX),
                rejected.get(r).copied().unwrap_or(usize::MAX),
            );
            if next_admit.min(next_reject) >= j {
                break;
            }
            if next_admit < next_reject {
                rec.record_admission(next_admit, AdmissionDecision::Admit);
                a += 1;
            } else {
                rec.record_admission(next_reject, AdmissionDecision::Reject);
                r += 1;
            }
        }
        if j != usize::MAX {
            rec.record_admission(j, AdmissionDecision::Defer);
        }
    }
}
