//! The three phases of a slot, run back to back by [`crate::SlotDriver::step`].

use super::admission_tick::admission_tick;
use super::{
    CapFault, CellLane, Columns, Engine, LiveState, LoopState, Mode, NO_WINDOW, SIG_BLOCK_SLOTS,
};
use crate::telemetry::SlotRecorder;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::SlotContext;
use jmso_media::{jain_index, AbrInputs};
use jmso_radio::rrc::RrcState;
use jmso_radio::signal::SignalModel;
use jmso_radio::{KbPerSec, MilliJoules, PowerModel};
use std::cmp::Reverse;

/// Phase A: the arrival gate, then for every live user the radio sample
/// (block-drawn into the user's window in the slab, with its per-block
/// Eq. (1) cap table), the Eq. (7)/(8) playback advance and the
/// ground-truth row — and, for a pass-through collector, the snapshot
/// row the scheduler will read, from slot 0 on. Makes no recorder call.
pub(super) fn phase_a(eng: &Engine, mode: Mode, slot: u64, lv: &mut LiveState, c: &mut Columns) {
    // Admit due arrivals: pop every entry due by this slot. An entry a
    // live reschedule left behind (the user entered already, or now
    // arrives later under a fresh entry) is dropped.
    while let Some(&Reverse((due, i))) = lv.arrival_queue.peek() {
        if due > slot {
            break;
        }
        lv.arrival_queue.pop();
        // Live membership never regresses — a user only leaves the live
        // list by retiring — so "entered" is "live or retired".
        let entered = c.retired[i] || lv.live.binary_search(&i).is_ok();
        if !entered && c.arrival[i] <= slot {
            merge_ascending(&mut lv.live, &[i]);
        }
    }
    // Under admission the previous slot's tick admitted these for this
    // slot — the gate's only input.
    if let Some(adm) = eng.admission.as_ref() {
        merge_ascending(&mut lv.live, &adm.admitted);
    }

    for &i in &lv.live {
        let u = &mut c.users[i];
        let arrival = c.arrival[i];
        debug_assert!(slot >= arrival, "live user must have arrived");
        if u.window == NO_WINDOW {
            // First entry into the live list: the user's window, from
            // here to the end of the run, is the next in the slab, and
            // their signal model is built with it.
            u.window = lv.windows.len() as u32;
            lv.windows.push(eng.signals.window(i));
        }
        let w = &mut lv.windows[u.window as usize];
        // Each user's signal block is anchored at their final arrival
        // slot, read off the dense column (it cannot move once they are
        // live): a user entering at slot `a` refills the window at `a`,
        // `a + 32`, …, so it is always current — its first slot is a
        // refill — and pre-arrival slots draw no samples at all.
        let block_off = ((slot - arrival) % SIG_BLOCK_SLOTS as u64) as usize;
        if block_off == 0 {
            w.signal.sample_into(slot, &mut w.sig);
            w.sig_samples += SIG_BLOCK_SLOTS as u64;
            if mode.tables {
                // One batch-kernel pass per block: the next
                // SIG_BLOCK_SLOTS slots read pure table entries.
                eng.collector
                    .link_caps_into(&w.sig, &mut lv.v_scratch, &mut w.cap);
            }
        }
        w.cur_signal = w.sig[block_off];
        if let Some(plan) = &eng.faults {
            // Faults perturb state, never RNG streams: the raw sample
            // above already advanced the generator.
            w.cur_signal = plan.adjust_signal(slot, i, w.cur_signal);
        }
        if slot >= c.departure[i] || eng.faults.as_ref().is_some_and(|p| p.departed(slot, i)) {
            // Mid-stream departure — workload churn or the fault
            // taxonomy's perturbation form: the client abandons playback
            // and the origin stops fetching for them. Both calls are
            // idempotent, so the latched window check is safe to
            // re-apply every slot, and a `u64::MAX` departure slot
            // leaves the run untouched.
            u.session.cancel_remaining();
            u.playback.abandon();
        }
        let outcome = u.playback.begin_slot();
        if outcome.active {
            u.active_slots += 1;
        }
        let r = RawUserState {
            signal: w.cur_signal,
            // Gateway-advertised demand: the ABR rung rate when clients
            // are installed (single-rung = the native rate, bitwise),
            // else the declared/session rate.
            rate_kbps: match c.abr.get(i) {
                Some(client) => client.rate_kbps,
                None => u
                    .declared_rate_kbps
                    .unwrap_or_else(|| u.session.rate_at(slot)),
            },
            buffer_s: outcome.occupancy_s,
            remaining_kb: u.session.remaining_kb(),
            active: outcome.active,
            idle_s: u.rrc.idle_seconds(),
            rrc_state: u.rrc.state(),
        };
        if mode.pass_through {
            // The collector's row verbatim: report = truth, Eq. (1) from
            // the table (or the scalar kernel the table batches).
            let link_cap = match mode.tables {
                true => w.cap[block_off],
                false => eng.collector.link_cap(r.signal),
            };
            c.snaps[i] = r.as_reported(i, r.signal, link_cap);
        }
        c.raw[i] = r;
    }
}

/// Phase B, the slot's one coupling through Eq. (2): this slot's
/// mobility, every lane's budget (fault-adjusted), the slot announced to
/// the recorder, origin ingest, and the collector pass for a collector
/// that is not pass-through (for a pass-through one nothing here walks
/// rows: phase A has written the live ones, and the rest stand as built).
/// Then per lane, in cell order, its rows brought up to date (with more
/// than one lane), its scheduler's call over them and its transmitter
/// moving bytes out of the one receiver (a flow follows its user across
/// cells); and what the lanes decided, told to the recorder.
#[allow(clippy::too_many_arguments)]
pub(super) fn phase_b<R: SlotRecorder>(
    eng: &mut Engine,
    lp: &mut LoopState,
    mode: Mode,
    slot: u64,
    lv: &LiveState,
    lanes: &mut [CellLane],
    c: &mut Columns,
    rec: &mut R,
) {
    let cfg = eng.cfg;
    lp.slots_run = slot + 1;
    if let Some(roam) = eng.roaming.as_mut() {
        roam.step(lanes);
    }
    lp.bs_cap_units = 0;
    for lane in lanes.iter_mut() {
        let cap = lane.capacity.capacity(slot);
        // The two hooks quantise in different orders — ⌊⌊S/δ⌋·f⌋ here,
        // ⌊S·f/δ⌋ per cell — and so differ by a unit when S is off the δ
        // grid. Each run kind keeps the one its committed outputs were
        // made with, which is the only reason there are two.
        lane.cap_units = match (&eng.faults, lane.cap_fault) {
            (None, _) => eng.units.bs_cap_units(cap, cfg.tau),
            (Some(plan), CapFault::Bs) => {
                plan.adjust_cap_units(slot, eng.units.bs_cap_units(cap, cfg.tau))
            }
            (Some(plan), CapFault::Cell(cell)) => eng
                .units
                .bs_cap_units(KbPerSec(plan.scale_cell_cap(slot, cell, cap.0)), cfg.tau),
        };
        lp.bs_cap_units += lane.cap_units;
    }
    rec.begin_slot(slot, lp.bs_cap_units);
    if let Some(plan) = eng.faults.as_ref().filter(|_| rec.enabled()) {
        lp.fault_notes.clear();
        plan.notes_into(slot, &mut lp.fault_notes);
        for note in &lp.fault_notes {
            rec.record_fault(note);
        }
    }
    eng.receiver.ingest_slot(slot);

    lp.collector_rows = 0;
    if !lp.rows_primed || eng.collector.needs_full_pass() {
        // A collector that holds or perturbs reports rebuilds every row
        // on its first slot, which fills its report cache — and a noisy
        // one on every slot, whose RNG stream must stay per-user
        // aligned.
        eng.collector.snapshot_rows(slot, &c.raw, &mut c.snaps);
        lp.rows_primed = true;
        lp.collector_rows = c.snaps.len();
    } else if !mode.pass_through {
        // A collector that only holds reports refreshes the live rows.
        lp.collector_rows = lv.live.len();
        eng.collector
            .snapshot_refresh(slot, &c.raw, &lv.live, &mut c.snaps);
    }

    let mut sched_ns = 0;
    lp.scheduler_rows = 0;
    for (cell, lane) in lanes.iter_mut().enumerate() {
        let members = eng.roaming.as_ref().map(|roam| &roam.members[cell]);
        // The rows that may hold demand: a lone lane's live users, or
        // the cell's members. Every other row has none left.
        let listed: &[usize] = members.unwrap_or(&lv.live);
        lp.scheduler_rows += listed.len();
        let users = match eng.roaming.as_ref() {
            None => &c.snaps,
            Some(roam) => {
                if lane.rows.is_empty() {
                    lane.rows.extend(c.snaps.iter().map(|reported| {
                        let mut row = reported.clone();
                        if roam.attached[row.id] != cell {
                            row.remaining_kb = 0.0;
                            row.active = false;
                            row.link_cap_units = 0;
                        }
                        row
                    }));
                } else {
                    for &i in &roam.members[cell] {
                        // A retired member's reported row is frozen, with
                        // nothing left to fetch: once the lane's copy
                        // says it has stopped watching there is nothing
                        // to bring over.
                        if c.retired[i] && !lane.rows[i].active {
                            continue;
                        }
                        lane.rows[i].clone_from(&c.snaps[i]);
                    }
                }
                &lane.rows
            }
        };
        let ctx = SlotContext {
            slot,
            tau: cfg.tau,
            delta_kb: cfg.delta_kb,
            bs_cap_units: lane.cap_units,
            users,
            soa: Some(listed),
        };
        if rec.enabled() {
            let t0 = std::time::Instant::now();
            lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
            sched_ns += t0.elapsed().as_nanos() as u64;
        } else {
            lane.scheduler.allocate_into(&ctx, &mut lane.alloc);
        }
        let out = match members {
            None => &mut lp.deliveries,
            Some(_) => &mut lane.deliveries,
        };
        lane.transmitter
            .transmit_into(&ctx, &lane.alloc, &mut eng.receiver, out);
        // A user is attached to exactly one cell, so the lanes' members
        // between them write every row once.
        for &i in members.into_iter().flatten() {
            lp.deliveries[i] = lane.deliveries[i];
            if rec.enabled() {
                lp.grants[i] = lane.alloc.0[i];
            }
        }
    }
    if rec.enabled() {
        rec.record_sched_latency_ns(sched_ns);
        match &*lanes {
            [lane] => {
                rec.record_alloc(&lane.alloc.0);
                if let Some(q) = lane.scheduler.queue_values() {
                    rec.record_queues(q);
                }
            }
            // Each cell has its own scheduler, so no single queue vector
            // describes the slot.
            _ => rec.record_alloc(&lp.grants),
        }
        for lane in lanes.iter() {
            let deg = lane.scheduler.degradations();
            if !deg.is_empty() {
                rec.record_degradations(deg);
            }
        }
    }
}

/// Phase C, one walk of the live list in ascending order: client
/// delivery and device accounting (Eq. 3/4/5), the ABR decisions staged,
/// and per user, as the reference loop makes them, the recorder calls
/// and every floating-point fold (slot energy, E*, `rate_sum`, the
/// fairness series). Then the ABR commits, live-list compaction and the
/// end-of-slot admission tick. Returns true once the run is over.
pub(super) fn phase_c<R: SlotRecorder>(
    eng: &mut Engine,
    lp: &mut LoopState,
    slot: u64,
    lv: &mut LiveState,
    c: &mut Columns,
    rec: &mut R,
) -> bool {
    const FAIR_WINDOW: u64 = 10;
    let cfg = eng.cfg;
    let mut slot_energy_mj = 0.0;
    let mut in_system = 0u64;
    let mut compact = false;
    lp.fairness_scratch.clear();
    for &i in &lv.live {
        let u = &mut c.users[i];
        debug_assert!(slot >= c.arrival[i], "live user must have arrived");
        let d = &lp.deliveries[i];
        let slot_e = if d.kb > 0.0 {
            let accepted = u.session.deliver(d.kb);
            debug_assert!(
                (accepted - d.kb).abs() < 1e-6,
                "transmitter should never over-deliver"
            );
            // Client playback always advances by the *true* encoding
            // rate regardless of what the gateway thinks — under ABR
            // that is the rung rate (lower rungs stretch delivered KB
            // into more playback seconds).
            if let (Some(a), Some(client)) = (eng.abr.as_ref(), c.abr.get_mut(i)) {
                u.playback.deliver(accepted, client.rate_kbps);
                let inp = AbrInputs {
                    buffer_s: c.raw[i].buffer_s,
                    predicted_kbps: c.snaps[i].link_cap_units as f64 * cfg.delta_kb / cfg.tau,
                };
                client.on_delivery(
                    accepted,
                    u.session.fully_fetched(),
                    &a.spec.ladder,
                    &a.spec.policy,
                    a.native[i],
                    a.chunk_s,
                    inp,
                );
            } else {
                u.playback.deliver(accepted, u.session.rate_at(slot));
            }
            // One-deep memo of the Eq. (3) kernel: `P(sig)` is a pure
            // function of the block-held RSSI, so this is the same
            // product `transmission_energy` would compute.
            let w = &mut lv.windows[u.window as usize];
            if w.epk_sig.value() != w.cur_signal.value() {
                w.epk_per_kb = eng.models.power.energy_per_kb(w.cur_signal);
                w.epk_sig = w.cur_signal;
            }
            let e = MilliJoules(w.epk_per_kb * accepted);
            if rec.enabled() {
                u.rrc
                    .on_transmit_observed(|f, t| rec.record_rrc_transition(i, f, t));
            } else {
                u.rrc.on_transmit();
            }
            u.meter.record_transmission(e);
            e.value()
        } else {
            let e = if rec.enabled() {
                u.rrc
                    .on_idle_observed(cfg.tau, |f, t| rec.record_rrc_transition(i, f, t))
            } else {
                u.rrc.on_idle(cfg.tau)
            };
            u.meter.record_tail(e);
            e.value()
        };
        slot_energy_mj += slot_e;
        let flipped = !c.done[i] && u.session.fully_fetched() && u.playback.playback_complete();
        if let Some(adm) = eng.admission.as_mut() {
            // Running E* estimate for admission feasibility: energy per
            // arrived-and-watching user-slot, by the pre-flip flag, so
            // the finishing slot still counts.
            if !c.done[i] {
                adm.energy_mj += slot_e;
                adm.user_slots += 1;
            }
            // Membership event point: the user leaves the tick's active
            // population for good (`done` never un-flips).
            if flipped {
                adm.n_active -= 1;
                adm.rate_sum -= adm.rates[i];
            }
        }
        if flipped {
            c.done[i] = true;
            // Settled before the admission tick, so a rejection
            // decrements an up-to-date watch count.
            lp.watching -= 1;
        }
        // After the user's RRC transitions, as in the reference loop.
        rec.record_user(i, slot_e, u.playback.total_rebuffer_s());
        // Fairness sample over users still fetching this slot.
        let r = &c.raw[i];
        if cfg.record_series && r.remaining_kb > 0.0 {
            let need_kb = (cfg.tau * r.rate_kbps).min(r.remaining_kb);
            if need_kb > 0.0 {
                lp.fairness_scratch.push(d.kb / need_kb);
                if lp.window_need[i] == 0.0 {
                    lp.window_rows.push(i);
                }
                lp.window_delivered[i] += d.kb;
                lp.window_need[i] += need_kb;
            }
        }
        // Live-population sample for open-system telemetry: arrived and
        // still watching after this slot's accounting.
        if rec.enabled() && !c.done[i] {
            in_system += 1;
        }
        // Retire once nothing remains to account: playback is over and
        // the RRC tail has fully drained, so every further slot would
        // charge exactly 0 mJ of tail energy.
        if c.done[i] && u.rrc.state() == RrcState::Idle {
            c.retired[i] = true;
            c.retired_at[i] = slot;
            compact = true;
            // The rows freeze here, in the slot playback completed —
            // which `begin_slot` still saw as watched. They must say
            // what a fresh row would from now on, or a policy that walks
            // every row (EMA's `PCᵢ += τ`) keeps charging a user who has
            // left; the ground-truth row too, for a collector that
            // rebuilds every snapshot from it.
            c.raw[i].active = false;
            c.snaps[i].active = false;
        }
    }
    if cfg.record_series {
        if !lp.fairness_scratch.is_empty() {
            lp.fairness_series.push(jain_index(&lp.fairness_scratch));
        }
        lp.power_series_j.push(slot_energy_mj / 1000.0);
        lp.fairness_rows = 0;
        if (slot + 1).is_multiple_of(FAIR_WINDOW) {
            // The rows the window touched, ascending — the order a
            // walk over every row's `need > 0` finds them in, so the
            // index sums the same sequence.
            lp.window_rows.sort_unstable();
            lp.fairness_scratch.clear();
            for &i in &lp.window_rows {
                lp.fairness_scratch
                    .push(lp.window_delivered[i] / lp.window_need[i]);
                lp.window_delivered[i] = 0.0;
                lp.window_need[i] = 0.0;
            }
            if !lp.fairness_scratch.is_empty() {
                lp.fairness_window_series
                    .push(jain_index(&lp.fairness_scratch));
            }
            lp.fairness_rows = lp.window_rows.len();
            lp.window_rows.clear();
        }
    }
    // Commit staged ABR switches in ascending user order: update the rung
    // rate, re-price the unfetched tail of the session, and keep the
    // receiver's origin-side volume bound in step. Only a delivery stages
    // a switch, so the live list (not yet compacted) covers every user
    // that can have one.
    if let Some(a) = eng.abr.as_ref() {
        for &i in &lv.live {
            if let Some(sw) = c.abr[i].apply_pending(&a.spec.ladder, a.native[i]) {
                let delta = c.users[i].session.rescale_remaining(sw.ratio);
                eng.receiver.adjust_source_volume_kb(i, delta);
                rec.record_abr_switch(i, sw.from, sw.to);
            }
        }
    }
    if compact {
        lv.live.retain(|&i| !c.retired[i]);
    }
    if rec.enabled() {
        rec.record_live(in_system);
    }
    // Rule on arrivals planned for the next slot, now that this slot's
    // capacity and energy accounting are final.
    if let Some(adm) = eng.admission.as_mut() {
        admission_tick(
            adm,
            &mut c.arrival,
            &mut c.users,
            &mut c.done,
            &mut lp.watching,
            lp.per_user.as_deref_mut(),
            rec,
            slot,
            lp.bs_cap_units,
            cfg.tau,
            cfg.delta_kb,
        );
    }
    rec.end_slot();
    // Nothing left to schedule, watch or drain — or the horizon.
    lp.watching == 0 || slot + 1 >= cfg.slots
}

/// Merge the ascending `add` into the ascending `live` in place (the two
/// are disjoint): back to front, so it costs the tail of `live` behind
/// the first insertion plus `add`, and nothing when `add` is empty.
fn merge_ascending(live: &mut Vec<usize>, add: &[usize]) {
    let mut i = live.len();
    let mut k = i + add.len();
    live.resize(k, 0);
    for &new in add.iter().rev() {
        while i > 0 && live[i - 1] > new {
            live[k - 1] = live[i - 1];
            i -= 1;
            k -= 1;
        }
        live[k - 1] = new;
        k -= 1;
    }
}
