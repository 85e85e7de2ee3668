//! Information Collector — assembles the cross-layer snapshot.
//!
//! The collector turns ground-truth per-user state (as the simulator knows
//! it) into the [`UserSnapshot`]s a scheduler sees. Real deployments read
//! RSSI from UE measurement reports and the required rate from DPI
//! middleboxes, both of which can be stale or noisy, so the collector
//! supports a report staleness (signal refreshed every `staleness_slots`)
//! and Gaussian measurement noise on the reported RSSI. With the defaults
//! (no staleness, no noise) it is a faithful pass-through, matching the
//! paper's evaluation.
//!
//! The Eq. (1) link bound is computed from the *reported* signal — exactly
//! the information the gateway would act on.

use crate::scheduler::UserSnapshot;
use crate::shard::UnitParams;
use jmso_radio::rrc::RrcState;
use jmso_radio::{Dbm, KbPerSec, LinearRssiThroughput, ThroughputModel};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Ground-truth per-user state the simulator hands to the collector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RawUserState {
    /// True RSSI this slot.
    pub signal: Dbm,
    /// Required data rate `pᵢ(n)`, KB/s.
    pub rate_kbps: f64,
    /// Client buffer occupancy, seconds.
    pub buffer_s: f64,
    /// KB still to fetch.
    pub remaining_kb: f64,
    /// Still watching?
    pub active: bool,
    /// Radio idle time, seconds.
    pub idle_s: f64,
    /// Radio RRC state.
    pub rrc_state: RrcState,
}

impl RawUserState {
    /// The row of a user who is not in the cell yet: no demand, no
    /// buffer, a cold radio.
    pub const ABSENT: RawUserState = RawUserState {
        signal: Dbm(0.0),
        rate_kbps: 0.0,
        buffer_s: 0.0,
        remaining_kb: 0.0,
        active: false,
        idle_s: 0.0,
        rrc_state: RrcState::Idle,
    };

    /// What the gateway holds of this state once it has been told
    /// `signal` for user `id` — the truth, or a held or noisy report —
    /// with that signal's Eq. (1) bound.
    pub fn as_reported(&self, id: usize, signal: Dbm, link_cap_units: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal,
            rate_kbps: self.rate_kbps,
            buffer_s: self.buffer_s,
            remaining_kb: self.remaining_kb,
            active: self.active,
            link_cap_units,
            idle_s: self.idle_s,
            rrc_state: self.rrc_state,
        }
    }
}

/// Serializable collector configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct CollectorSpec {
    /// Refresh the reported signal only every this many slots
    /// (0 or 1 = every slot).
    pub staleness_slots: u64,
    /// Gaussian noise added to the reported RSSI, dB std-dev.
    pub signal_noise_std_db: f64,
}

impl CollectorSpec {
    /// Perfect information (the paper's evaluation setting).
    pub fn perfect() -> Self {
        Self {
            staleness_slots: 0,
            signal_noise_std_db: 0.0,
        }
    }
}

impl Default for CollectorSpec {
    fn default() -> Self {
        Self::perfect()
    }
}

/// The collector component.
#[derive(Debug)]
pub struct InformationCollector {
    spec: CollectorSpec,
    thru: LinearRssiThroughput,
    units: UnitParams,
    tau: f64,
    /// Last reported signal per user (for staleness).
    cached_signal: Vec<Option<Dbm>>,
    rng: StdRng,
}

impl InformationCollector {
    /// Build a collector for `n_users`.
    pub fn new(
        spec: CollectorSpec,
        thru: LinearRssiThroughput,
        units: UnitParams,
        tau: f64,
        n_users: usize,
        seed: u64,
    ) -> Self {
        Self {
            spec,
            thru,
            units,
            tau,
            cached_signal: vec![None; n_users],
            rng: StdRng::seed_from_u64(seed ^ 0xC011_EC70_4F00_0000),
        }
    }

    fn reported_signal(&mut self, user: usize, slot: u64, truth: Dbm) -> Dbm {
        let refresh = self.spec.staleness_slots <= 1
            || slot.is_multiple_of(self.spec.staleness_slots)
            || self.cached_signal[user].is_none();
        if refresh {
            let noisy = if self.spec.signal_noise_std_db > 0.0 {
                let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = self.rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                Dbm(truth.value() + self.spec.signal_noise_std_db * z)
            } else {
                truth
            };
            self.cached_signal[user] = Some(noisy);
            return noisy;
        }
        // `refresh` covered the None case, so the cache is populated;
        // the fallback keeps this total without a panicking path.
        self.cached_signal[user].unwrap_or(truth)
    }

    /// Eq. (1) for one reported signal: `⌊τ·v(sig)/δ⌋` units.
    pub fn link_cap(&self, sig: Dbm) -> u64 {
        self.units
            .link_cap_units(self.thru.throughput(sig), self.tau)
    }

    /// The Eq. (1) bound a pass-through collector reports for a user who
    /// is not in the cell — [`RawUserState::ABSENT`]'s placeholder
    /// signal's. The same for every such row, so a caller that builds
    /// them computes it once.
    pub fn absent_link_cap(&self) -> u64 {
        self.link_cap(RawUserState::ABSENT.signal)
    }

    /// User `id`'s snapshot row for `slot`: the report (held, noisy or
    /// true) with the Eq. (1) bound it implies, everything else verbatim.
    fn row(&mut self, id: usize, slot: u64, r: &RawUserState) -> UserSnapshot {
        let signal = self.reported_signal(id, slot, r.signal);
        r.as_reported(id, signal, self.link_cap(signal))
    }

    /// Assemble snapshots for one slot into a caller-owned buffer.
    pub fn snapshot_into(&mut self, slot: u64, raw: &[RawUserState], out: &mut Vec<UserSnapshot>) {
        assert_eq!(raw.len(), self.cached_signal.len(), "user count mismatch");
        out.clear();
        out.extend(raw.iter().enumerate().map(|(id, r)| self.row(id, slot, r)));
    }

    /// [`InformationCollector::snapshot_into`] over a buffer that already
    /// holds one row per user: every row is rewritten in place, in user
    /// order (the noise stream's order), and nothing allocates — the
    /// engine's full pass, for a collector that holds or perturbs
    /// reports: on its first slot, which fills the report cache, and
    /// under noise on every slot. A pass-through collector is never
    /// asked for one (see [`InformationCollector::is_pass_through`]).
    pub fn snapshot_rows(&mut self, slot: u64, raw: &[RawUserState], out: &mut [UserSnapshot]) {
        assert_eq!(raw.len(), self.cached_signal.len(), "user count mismatch");
        assert_eq!(out.len(), raw.len(), "snapshot buffer mismatch");
        for (id, (r, o)) in raw.iter().zip(out.iter_mut()).enumerate() {
            *o = self.row(id, slot, r);
        }
    }

    /// Assemble snapshots for one slot (allocating convenience wrapper
    /// over [`InformationCollector::snapshot_into`]).
    pub fn snapshot(&mut self, slot: u64, raw: &[RawUserState]) -> Vec<UserSnapshot> {
        let mut out = Vec::with_capacity(raw.len());
        self.snapshot_into(slot, raw, &mut out);
        out
    }

    /// True when snapshots must be rebuilt from every user's raw state
    /// every slot: reported-signal noise consumes one RNG draw per user
    /// per slot in user order, so refreshing only a subset would shift
    /// the noise stream of everyone behind them.
    pub fn needs_full_pass(&self) -> bool {
        self.spec.signal_noise_std_db > 0.0
    }

    /// True when the reported signal equals the ground truth on every
    /// slot — no staleness hold, no noise. Only then may a caller write
    /// snapshot rows itself from the true signal (the engine's per-user
    /// phase, with Eq. (1) read off its precomputed cap tables): with
    /// staleness > 1 the report read this slot can be a *cached* signal,
    /// which no per-block table knows. A pass-through collector never
    /// reads its signal cache, so such a caller need not maintain it —
    /// and its row for a user who is not in the cell is a constant
    /// ([`RawUserState::ABSENT`] reported at its own signal with
    /// [`InformationCollector::absent_link_cap`]), so such a caller can
    /// start from rows built once and needs no pass over all of them,
    /// not even a first one.
    ///
    /// Strictly stronger than `!needs_full_pass()`.
    pub fn is_pass_through(&self) -> bool {
        self.spec.staleness_slots <= 1 && self.spec.signal_noise_std_db == 0.0
    }

    /// Batch Eq. (1): `out[k] = ⌊τ·v(sigs[k])/δ⌋` via the vectorized
    /// throughput kernel. `v_scratch` receives the intermediate
    /// throughputs and must match `sigs` in length. Computed by the
    /// collector (not the caller) so the caps use the *same* `v`-fit,
    /// `δ` and `τ` as the per-slot snapshot path — bit-identical by
    /// construction.
    pub fn link_caps_into(&self, sigs: &[Dbm], v_scratch: &mut [f64], out: &mut [u64]) {
        assert_eq!(sigs.len(), out.len(), "cap table slice length mismatch");
        self.thru.throughput_into(sigs, v_scratch);
        for (o, &v) in out.iter_mut().zip(v_scratch.iter()) {
            *o = self.units.link_cap_units(KbPerSec(v), self.tau);
        }
    }

    /// Refresh only the `live` users' snapshot entries in place, leaving
    /// the rest frozen — the engine's active-set pass for a collector
    /// that holds reports. A frozen entry belongs to a user whose
    /// session is over (`remaining_kb == 0`), so its stale fields cannot
    /// affect any allocation: the usable capacity it implies is zero.
    ///
    /// Requires a prior full pass to have populated `out`, and a
    /// noise-free spec (see [`InformationCollector::needs_full_pass`]).
    pub fn snapshot_refresh(
        &mut self,
        slot: u64,
        raw: &[RawUserState],
        live: &[usize],
        out: &mut [UserSnapshot],
    ) {
        debug_assert!(!self.needs_full_pass(), "noise needs the full pass");
        assert_eq!(raw.len(), self.cached_signal.len(), "user count mismatch");
        assert_eq!(out.len(), raw.len(), "snapshot buffer mismatch");
        for &id in live {
            out[id] = self.row(id, slot, &raw[id]);
        }
    }

    /// Snapshot the collector's mutable state (signal cache + noise RNG)
    /// for a checkpoint.
    pub fn export_state(&self) -> CollectorState {
        let [a, b, c, d] = self.rng.state();
        CollectorState {
            cached_signal: self.cached_signal.clone(),
            rng: (a, b, c, d),
        }
    }

    /// Restore state captured by [`InformationCollector::export_state`].
    pub fn import_state(&mut self, state: &CollectorState) -> Result<(), String> {
        if state.cached_signal.len() != self.cached_signal.len() {
            return Err(format!(
                "collector checkpoint has {} users, collector has {}",
                state.cached_signal.len(),
                self.cached_signal.len()
            ));
        }
        self.cached_signal.clone_from(&state.cached_signal);
        let (a, b, c, d) = state.rng;
        self.rng = StdRng::from_state([a, b, c, d]);
        Ok(())
    }
}

/// Serializable snapshot of an [`InformationCollector`]'s mutable state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectorState {
    /// Last reported signal per user.
    pub cached_signal: Vec<Option<Dbm>>,
    /// Noise generator position (xoshiro256++ state words).
    pub rng: (u64, u64, u64, u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(sig: f64) -> RawUserState {
        RawUserState {
            signal: Dbm(sig),
            rate_kbps: 450.0,
            buffer_s: 3.0,
            remaining_kb: 1000.0,
            active: true,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    fn collector(spec: CollectorSpec, n: usize) -> InformationCollector {
        InformationCollector::new(
            spec,
            LinearRssiThroughput::paper(),
            UnitParams::new(50.0),
            1.0,
            n,
            7,
        )
    }

    #[test]
    fn perfect_collector_passes_through() {
        let mut c = collector(CollectorSpec::perfect(), 2);
        let snaps = c.snapshot(0, &[raw(-80.0), raw(-60.0)]);
        assert_eq!(snaps[0].signal, Dbm(-80.0));
        assert_eq!(snaps[1].signal, Dbm(-60.0));
        // Eq. (1): ⌊2303/50⌋ = 46 at −80 dBm.
        assert_eq!(snaps[0].link_cap_units, 46);
        assert_eq!(snaps[0].id, 0);
        assert_eq!(snaps[1].id, 1);
        assert_eq!(snaps[0].rate_kbps, 450.0);
        assert_eq!(snaps[0].buffer_s, 3.0);
    }

    #[test]
    fn staleness_holds_old_reports() {
        let spec = CollectorSpec {
            staleness_slots: 5,
            signal_noise_std_db: 0.0,
        };
        let mut c = collector(spec, 1);
        let s0 = c.snapshot(0, &[raw(-80.0)])[0].signal;
        // Signal changed but report is held until slot 5.
        let s3 = c.snapshot(3, &[raw(-60.0)])[0].signal;
        assert_eq!(s0, s3);
        let s5 = c.snapshot(5, &[raw(-60.0)])[0].signal;
        assert_eq!(s5, Dbm(-60.0));
    }

    #[test]
    fn noise_perturbs_but_is_deterministic() {
        let spec = CollectorSpec {
            staleness_slots: 0,
            signal_noise_std_db: 4.0,
        };
        let report = |_| {
            let mut c = collector(spec, 1);
            (0..20)
                .map(|n| c.snapshot(n, &[raw(-80.0)])[0].signal.value())
                .collect::<Vec<_>>()
        };
        let a = report(());
        let b = report(());
        assert_eq!(a, b, "same seed ⇒ same reports");
        assert!(a.iter().any(|s| (s - -80.0).abs() > 0.1), "noise applied");
    }

    #[test]
    #[should_panic(expected = "user count mismatch")]
    fn wrong_user_count_panics() {
        let mut c = collector(CollectorSpec::perfect(), 2);
        c.snapshot(0, &[raw(-80.0)]);
    }

    /// The in-place full pass writes the rows the `Vec` pass pushes and
    /// leaves the collector in the same state — under noise too, where
    /// both consume the generator in user order — and the batch cap
    /// table is the per-signal Eq. (1) bound, entry for entry.
    #[test]
    fn rows_pass_matches_vec_pass_and_cap_tables() {
        let noisy = CollectorSpec {
            staleness_slots: 3,
            signal_noise_std_db: 2.0,
        };
        for spec in [CollectorSpec::perfect(), noisy] {
            let mut by_vec = collector(spec, 3);
            let mut by_rows = collector(spec, 3);
            let mut truth = [raw(-80.0), raw(-70.0), raw(-60.0)];
            let mut rows = by_rows.snapshot(0, &truth);
            let mut pushed = by_vec.snapshot(0, &truth);
            for slot in 1..6 {
                truth[0].signal = Dbm(-80.0 - slot as f64);
                truth[2].signal = Dbm(-60.0 + 0.5 * slot as f64);
                by_vec.snapshot_into(slot, &truth, &mut pushed);
                by_rows.snapshot_rows(slot, &truth, &mut rows);
                assert_eq!(rows, pushed, "rows pass diverged at {slot}");
            }
            assert_eq!(by_rows.export_state(), by_vec.export_state());
        }

        let c = collector(CollectorSpec::perfect(), 1);
        let sigs = [Dbm(-110.0), Dbm(-80.0), Dbm(-61.5), Dbm(-50.0)];
        let mut vs = [0.0; 4];
        let mut caps = [0u64; 4];
        c.link_caps_into(&sigs, &mut vs, &mut caps);
        for (sig, cap) in sigs.iter().zip(caps) {
            assert_eq!(c.link_cap(*sig), cap, "table entry for {sig:?}");
        }
    }

    /// The partial refresh must agree with the full pass on refreshed
    /// entries and leave the rest untouched, including under staleness.
    #[test]
    fn refresh_matches_full_pass_for_live_users() {
        let spec = CollectorSpec {
            staleness_slots: 3,
            signal_noise_std_db: 0.0,
        };
        let mut full = collector(spec, 3);
        let mut part = collector(spec, 3);
        let mut truth = [raw(-80.0), raw(-70.0), raw(-60.0)];
        let mut snaps = part.snapshot(0, &truth);
        let mut expect = full.snapshot(0, &truth);
        assert_eq!(snaps, expect);
        // User 1 finishes: its raw entry freezes while 0 and 2 evolve.
        for slot in 1..8 {
            truth[0].signal = Dbm(-80.0 - slot as f64);
            truth[2].signal = Dbm(-60.0 + slot as f64);
            expect = full.snapshot(slot, &truth);
            part.snapshot_refresh(slot, &truth, &[0, 2], &mut snaps);
            assert_eq!(snaps[0], expect[0]);
            assert_eq!(snaps[2], expect[2]);
            assert_eq!(snaps[1].signal, Dbm(-70.0), "frozen entry untouched");
        }
        assert!(!part.needs_full_pass());
        let noisy = CollectorSpec {
            staleness_slots: 0,
            signal_noise_std_db: 2.0,
        };
        assert!(collector(noisy, 1).needs_full_pass());
    }
}
