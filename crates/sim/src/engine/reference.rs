//! The executable specification: the reference slot loop and its naive admission tick.

use super::admission_tick::{admission_apply, admission_context, admission_e_star};
use super::{AdmissionRuntime, Engine, UserSim};
use crate::results::SimResult;
use crate::telemetry::SlotRecorder;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::{AdmissionDecision, Allocation, SlotContext};
use jmso_media::{jain_index, AbrInputs};
use jmso_radio::rrc::RrcState;
use jmso_radio::signal::SignalModel;
use jmso_radio::{Dbm, PowerModel};

impl Engine {
    /// Reference slot loop: every user is visited every slot and signals
    /// are drawn one slot at a time, each through a boxed
    /// [`SignalModel`] built with the pool — the plain transcription of
    /// the §III pipeline with none of the driver's active-set machinery.
    ///
    /// This is the executable specification for every door into the
    /// driver: on any scenario and under any fault plan, both must return
    /// identical [`SimResult`]s (pinned by the `active_set_matches_reference`
    /// property test) and, under a [`SlotRecorder`], identical traces —
    /// per-user records land at stable indices, and the users the
    /// active-set loop skips would only ever contribute zero-energy,
    /// zero-delta records.
    pub(crate) fn run_reference<R: SlotRecorder>(mut self, rec: &mut R) -> SimResult {
        let faults = self.faults.take();
        let n_users = self.users.len();
        let [lane] = self.lanes.as_mut_slice() else {
            unreachable!("the reference loop is the one-cell specification")
        };
        let sig = &self.signals;
        let mut signals: Vec<Box<dyn SignalModel>> = (0..n_users)
            .map(|i| sig.spec.build(i, sig.n_users, sig.seed))
            .collect();
        rec.begin_run(n_users, self.cfg.tau);
        let series_cap = if self.cfg.record_series {
            self.cfg.slots as usize
        } else {
            0
        };
        let mut fairness_series = Vec::with_capacity(series_cap);
        let mut fairness_window_series = Vec::with_capacity(series_cap.div_ceil(10));
        let mut power_series_j = Vec::with_capacity(series_cap);
        let mut fairness_scratch: Vec<f64> = Vec::with_capacity(n_users);
        const FAIR_WINDOW: u64 = 10;
        let mut window_delivered = vec![0.0f64; n_users];
        let mut window_need = vec![0.0f64; n_users];
        let mut slots_run = 0;

        let mut unfinished = n_users;
        let mut finished = vec![false; n_users];

        let mut raw: Vec<RawUserState> = Vec::with_capacity(n_users);
        let mut snapshots = Vec::with_capacity(n_users);
        let mut alloc = Allocation::zeros(n_users);
        let mut deliveries = Vec::with_capacity(n_users);
        let mut fault_notes: Vec<String> = Vec::new();

        for slot in 0..self.cfg.slots {
            slots_run = slot + 1;
            let cap = lane.capacity.capacity(slot);
            let mut bs_cap_units = self.units.bs_cap_units(cap, self.cfg.tau);
            if let Some(plan) = &faults {
                bs_cap_units = plan.adjust_cap_units(slot, bs_cap_units);
            }
            rec.begin_slot(slot, bs_cap_units);
            if let Some(plan) = faults.as_ref().filter(|_| rec.enabled()) {
                fault_notes.clear();
                plan.notes_into(slot, &mut fault_notes);
                for note in &fault_notes {
                    rec.record_fault(note);
                }
            }
            self.receiver.ingest_slot(slot);

            // Client-side slot advance (Eq. 7/8) and ground-truth state.
            raw.clear();
            for (i, u) in self.users.iter_mut().enumerate() {
                if slot < self.arrival[i] {
                    // Pre-arrival users are invisible to the radio: their
                    // noise stream is anchored at their (final) arrival
                    // slot, so no sample is drawn, and the gateway sees
                    // the same frozen placeholder row the hot loop's
                    // arrival gate never writes.
                    raw.push(RawUserState {
                        signal: Dbm(0.0),
                        rate_kbps: 0.0,
                        buffer_s: 0.0,
                        remaining_kb: 0.0,
                        active: false,
                        idle_s: 0.0,
                        rrc_state: RrcState::Idle,
                    });
                    continue;
                }
                let mut signal = signals[i].sample(slot);
                if let Some(plan) = &faults {
                    signal = plan.adjust_signal(slot, i, signal);
                }
                // Mirrors the hot loop's ABR rate substitution exactly.
                let abr_rate = self.abr.as_ref().map(|a| a.clients[i].rate_kbps);
                if slot >= self.departure[i] || faults.as_ref().is_some_and(|p| p.departed(slot, i))
                {
                    u.session.cancel_remaining();
                    u.playback.abandon();
                }
                let outcome = u.playback.begin_slot();
                if outcome.active {
                    u.active_slots += 1;
                }
                raw.push(RawUserState {
                    signal,
                    rate_kbps: abr_rate.unwrap_or_else(|| {
                        u.declared_rate_kbps
                            .unwrap_or_else(|| u.session.rate_at(slot))
                    }),
                    buffer_s: outcome.occupancy_s,
                    remaining_kb: u.session.remaining_kb(),
                    active: outcome.active,
                    idle_s: u.rrc.idle_seconds(),
                    rrc_state: u.rrc.state(),
                });
            }

            // Gateway pipeline.
            self.collector.snapshot_into(slot, &raw, &mut snapshots);
            let ctx = SlotContext {
                slot,
                tau: self.cfg.tau,
                delta_kb: self.cfg.delta_kb,
                bs_cap_units,
                users: &snapshots,
                soa: None,
            };
            if rec.enabled() {
                let t0 = std::time::Instant::now();
                lane.scheduler.allocate_into(&ctx, &mut alloc);
                rec.record_sched_latency_ns(t0.elapsed().as_nanos() as u64);
                rec.record_alloc(&alloc.0);
                if let Some(q) = lane.scheduler.queue_values() {
                    rec.record_queues(q);
                }
                let deg = lane.scheduler.degradations();
                if !deg.is_empty() {
                    rec.record_degradations(deg);
                }
            } else {
                lane.scheduler.allocate_into(&ctx, &mut alloc);
            }
            lane.transmitter
                .transmit_into(&ctx, &alloc, &mut self.receiver, &mut deliveries);

            // Device-side accounting (Eq. 3/4/5) and client delivery.
            let mut slot_energy_mj = 0.0;
            let mut in_system = 0u64;
            fairness_scratch.clear();
            for (u_idx, ((u, d), r)) in self.users.iter_mut().zip(&deliveries).zip(&raw).enumerate()
            {
                if slot < self.arrival[u_idx] {
                    continue;
                }
                let slot_e = if d.kb > 0.0 {
                    let accepted = u.session.deliver(d.kb);
                    debug_assert!(
                        (accepted - d.kb).abs() < 1e-6,
                        "transmitter should never over-deliver"
                    );
                    if let Some(a) = self.abr.as_mut() {
                        u.playback.deliver(accepted, a.clients[u_idx].rate_kbps);
                        let inp = AbrInputs {
                            buffer_s: r.buffer_s,
                            predicted_kbps: snapshots[u_idx].link_cap_units as f64
                                * self.cfg.delta_kb
                                / self.cfg.tau,
                        };
                        a.clients[u_idx].on_delivery(
                            accepted,
                            u.session.fully_fetched(),
                            &a.spec.ladder,
                            &a.spec.policy,
                            a.native[u_idx],
                            a.chunk_s,
                            inp,
                        );
                    } else {
                        u.playback.deliver(accepted, u.session.rate_at(slot));
                    }
                    let e = self.models.power.transmission_energy(r.signal, accepted);
                    if rec.enabled() {
                        u.rrc
                            .on_transmit_observed(|f, t| rec.record_rrc_transition(u_idx, f, t));
                    } else {
                        u.rrc.on_transmit();
                    }
                    u.meter.record_transmission(e);
                    e.value()
                } else {
                    let e = if rec.enabled() {
                        u.rrc.on_idle_observed(self.cfg.tau, |f, t| {
                            rec.record_rrc_transition(u_idx, f, t)
                        })
                    } else {
                        u.rrc.on_idle(self.cfg.tau)
                    };
                    u.meter.record_tail(e);
                    e.value()
                };
                slot_energy_mj += slot_e;
                // Mirrors the hot loop's running E* accumulator exactly.
                if let Some(adm) = self.admission.as_mut() {
                    if !finished[u_idx] {
                        adm.energy_mj += slot_e;
                        adm.user_slots += 1;
                    }
                }
                rec.record_user(u_idx, slot_e, u.playback.total_rebuffer_s());
                // Mirrors the hot loop's `record_series` gate so both
                // loops carry identical windowed-fairness state.
                if self.cfg.record_series && r.remaining_kb > 0.0 {
                    let need_kb = (self.cfg.tau * r.rate_kbps).min(r.remaining_kb);
                    if need_kb > 0.0 {
                        fairness_scratch.push(d.kb / need_kb);
                        window_delivered[u_idx] += d.kb;
                        window_need[u_idx] += need_kb;
                    }
                }
                if !finished[u_idx] && u.session.fully_fetched() && u.playback.playback_complete() {
                    finished[u_idx] = true;
                    unfinished -= 1;
                }
                // Mirrors the hot loop's live-population sample exactly.
                if rec.enabled() && !finished[u_idx] {
                    in_system += 1;
                }
            }

            // Commit staged ABR switches — the hot loop's exact pass.
            if let Some(a) = self.abr.as_mut() {
                for i in 0..n_users {
                    if let Some(sw) = a.clients[i].apply_pending(&a.spec.ladder, a.native[i]) {
                        let delta = self.users[i].session.rescale_remaining(sw.ratio);
                        self.receiver.adjust_source_volume_kb(i, delta);
                        rec.record_abr_switch(i, sw.from, sw.to);
                    }
                }
            }

            if self.cfg.record_series {
                if !fairness_scratch.is_empty() {
                    fairness_series.push(jain_index(&fairness_scratch));
                }
                power_series_j.push(slot_energy_mj / 1000.0);
                if (slot + 1).is_multiple_of(FAIR_WINDOW) {
                    fairness_scratch.clear();
                    for i in 0..n_users {
                        if window_need[i] > 0.0 {
                            fairness_scratch.push(window_delivered[i] / window_need[i]);
                        }
                    }
                    if !fairness_scratch.is_empty() {
                        fairness_window_series.push(jain_index(&fairness_scratch));
                    }
                    window_delivered.fill(0.0);
                    window_need.fill(0.0);
                }
            }
            if rec.enabled() {
                rec.record_live(in_system);
            }
            // Mirrors the hot loop's admission tick exactly (`finished` /
            // `unfinished` play the roles of `done_watching`/`watching`),
            // in full-rescan form — the reference loop is where the
            // O(n_users) aggregate specification stays executable.
            if let Some(adm) = self.admission.as_mut() {
                admission_tick_reference(
                    adm,
                    &mut self.arrival,
                    &mut self.users,
                    &mut finished,
                    &mut unfinished,
                    rec,
                    slot,
                    bs_cap_units,
                    self.cfg.tau,
                    self.cfg.delta_kb,
                );
            }
            rec.end_slot();

            if unfinished == 0 {
                break;
            }
        }
        rec.end_run();

        // The specification folds every row.
        let per_user = self.users.iter().map(UserSim::result).collect();
        let mut result = self.result(
            per_user,
            slots_run,
            fairness_series,
            fairness_window_series,
            power_series_j,
        );
        result.telemetry = rec.summary();
        result
    }
}

/// Rule on candidate `j` and tally the ruling: [`admission_context`]
/// through [`jmso_gateway::AdmissionController::decide`].
fn admission_decide(
    adm: &mut AdmissionRuntime,
    j: usize,
    n_active: usize,
    rate_sum: f64,
    e_star_user: f64,
    c_kbps: f64,
    tau: f64,
) -> AdmissionDecision {
    let ctx = admission_context(adm.v, n_active, rate_sum, e_star_user, c_kbps, tau);
    adm.ctl.decide(j, &ctx)
}

/// The full-rescan population count the incremental aggregates replace:
/// users in the system at `next_slot` (arrived, not finished) plus the
/// candidates this pass already admitted (the `admitted` mask), plus the
/// candidate `j` itself. O(n_users) per candidate — kept as the
/// executable specification for `n_active`/`rate_sum`, run by the
/// reference loop and pinned against the incremental path by the
/// admission property pack.
fn admission_aggregates_reference(
    adm: &AdmissionRuntime,
    arrival: &[u64],
    done_watching: &[bool],
    admitted: &[bool],
    j: usize,
    next_slot: u64,
) -> (usize, f64) {
    let mut n_active = 1usize;
    let mut rate_sum = adm.rates[j];
    for (i, &a) in arrival.iter().enumerate() {
        if i == j || done_watching[i] {
            continue;
        }
        if a < next_slot || admitted[i] {
            n_active += 1;
            rate_sum += adm.rates[i];
        }
    }
    (n_active, rate_sum)
}

/// `admission_tick` in naive form — identical ruling order and decision
/// expression, but the candidates are found by scanning every user for an
/// arrival due at the next slot (deferred or planned, it reads the same),
/// and each candidate's population aggregates come from
/// [`admission_aggregates_reference`] instead of the running counters
/// (neither of which this form maintains). The reference slot loop runs
/// this, keeping the O(n_users) scans alive as the specification the hot
/// paths' queue and counters are pinned against.
#[allow(clippy::too_many_arguments)]
fn admission_tick_reference<R: SlotRecorder>(
    adm: &mut AdmissionRuntime,
    arrival: &mut [u64],
    users: &mut [UserSim],
    done_watching: &mut [bool],
    watching: &mut usize,
    rec: &mut R,
    slot: u64,
    bs_cap_units: u64,
    tau: f64,
    delta_kb: f64,
) {
    let next_slot = slot + 1;
    // Arrivals at slot 0 are admitted by fiat, every later one is ruled
    // on the slot before it, so "due by the next slot and not yet ruled"
    // is "due exactly the next slot".
    let candidates: Vec<usize> = (0..arrival.len())
        .filter(|&j| arrival[j] == next_slot)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let c_kbps = bs_cap_units as f64 * delta_kb / tau;
    let e_star_user = admission_e_star(adm);
    // Per-tick admitted mask: O(1) membership for the rescan.
    let mut admitted = vec![false; users.len()];
    for j in candidates {
        let (n_active, rate_sum) =
            admission_aggregates_reference(adm, arrival, done_watching, &admitted, j, next_slot);
        let decision = admission_decide(adm, j, n_active, rate_sum, e_star_user, c_kbps, tau);
        if decision == AdmissionDecision::Admit {
            admitted[j] = true;
        }
        admission_apply(
            arrival,
            users,
            done_watching,
            watching,
            j,
            next_slot,
            decision,
        );
        rec.record_admission(j, decision);
    }
}
