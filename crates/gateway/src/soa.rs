//! Structure-of-arrays mirror of a slot's [`UserSnapshot`] buffer.
//!
//! The hottest scheduler loops (RTMA's tranche sweep, the Default
//! baseline) iterate every user touching one or two fields per pass. With
//! the AoS `&[UserSnapshot]` layout each access gathers from a ~90-byte
//! struct; the [`SnapshotSoA`] keeps the fields those loops read in
//! contiguous `f64`/`u64` arrays instead, so the passes stream cache lines
//! and auto-vectorize.
//!
//! The SoA is strictly a *mirror*: every array is derived from the same
//! reported values the AoS snapshot carries (by the collector, in the same
//! per-user loop), plus two derived columns the schedulers would otherwise
//! recompute per slot:
//!
//! * `ceiling_units[i]` — [`UserSnapshot::usable_cap_units`] evaluated at
//!   the slot's `δ` (identical expression, so bit-identical);
//! * `need_units[i]` — RTMA's per-slot demand `⌈τ·pᵢ/δ⌉`.
//!
//! The mirror also carries the ascending list of *live rows*
//! ([`SnapshotSoA::live_rows`]): the rows that may still hold demand. A
//! row off the list belongs to a user who has not arrived or whose
//! session is over (`remaining_kb == 0`), so its `ceiling_units` is zero
//! and a sweep over the listed rows grants exactly what a sweep over all
//! rows would — at the cost of the sessions in the cell, not the pool.
//!
//! Schedulers receive the mirror through [`SlotContext::soa`] and must
//! treat it as read-only; when it is `None` (reference engine loop,
//! multicell serial path, tests) they fall back to the AoS fields, and
//! both paths must produce bit-identical allocations.
//!
//! [`SlotContext::soa`]: crate::scheduler::SlotContext::soa

use crate::scheduler::UserSnapshot;

/// Contiguous per-field arrays mirroring one slot's snapshots, indexed by
/// `UserSnapshot::id`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotSoA {
    /// Reported RSSI in dBm (`UserSnapshot::signal`).
    pub signal_dbm: Vec<f64>,
    /// Required data rate in KB/s.
    pub rate_kbps: Vec<f64>,
    /// Client buffer occupancy in seconds.
    pub buffer_s: Vec<f64>,
    /// KB still to fetch.
    pub remaining_kb: Vec<f64>,
    /// Radio idle time in seconds.
    pub idle_s: Vec<f64>,
    /// Eq. (1) link bound in units.
    pub link_cap_units: Vec<u64>,
    /// `usable_cap_units(δ)`: link bound ∩ remaining demand.
    pub ceiling_units: Vec<u64>,
    /// RTMA demand `⌈τ·pᵢ/δ⌉` in units.
    pub need_units: Vec<u64>,
    /// Still watching?
    pub active: Vec<bool>,
    /// Ascending ids of the rows that may hold demand; every other row
    /// has `ceiling_units == 0`. Private so that only the narrowing call
    /// ([`SnapshotSoA::set_live_rows`]) and the resets can change it.
    live_rows: Vec<usize>,
}

impl SnapshotSoA {
    /// An empty mirror; arrays grow on the first fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mirror of `n` users none of whom is in the cell: every row
    /// what [`SnapshotSoA::set_row`] writes for
    /// [`RawUserState::ABSENT`](crate::collector::RawUserState::ABSENT)
    /// reported at `link_cap_units`, and no row listed live. An absent
    /// row is zero in every column but the link bound, so this is eight
    /// zeroed allocations and one constant fill, not a pass over rows.
    pub fn absent(n: usize, link_cap_units: u64) -> Self {
        Self {
            signal_dbm: vec![0.0; n],
            rate_kbps: vec![0.0; n],
            buffer_s: vec![0.0; n],
            remaining_kb: vec![0.0; n],
            idle_s: vec![0.0; n],
            link_cap_units: vec![link_cap_units; n],
            ceiling_units: vec![0; n],
            need_units: vec![0; n],
            active: vec![false; n],
            live_rows: Vec::new(),
        }
    }

    /// Number of users mirrored.
    pub fn len(&self) -> usize {
        self.signal_dbm.len()
    }

    /// True when no users are mirrored.
    pub fn is_empty(&self) -> bool {
        self.signal_dbm.is_empty()
    }

    /// Resize every column to `n` users (new entries zeroed/inactive)
    /// and list every row as live.
    pub fn resize(&mut self, n: usize) {
        self.live_rows.clear();
        self.live_rows.extend(0..n);
        self.signal_dbm.resize(n, 0.0);
        self.rate_kbps.resize(n, 0.0);
        self.buffer_s.resize(n, 0.0);
        self.remaining_kb.resize(n, 0.0);
        self.idle_s.resize(n, 0.0);
        self.link_cap_units.resize(n, 0);
        self.ceiling_units.resize(n, 0);
        self.need_units.resize(n, 0);
        self.active.resize(n, false);
    }

    /// The rows that may hold demand, ascending. Rows off the list have
    /// `ceiling_units == 0` (not arrived, or session over).
    #[inline]
    pub fn live_rows(&self) -> &[usize] {
        &self.live_rows
    }

    /// Narrow the live list to `rows` (ascending row ids). The caller
    /// vouches that every other row has no demand left — the engine's
    /// live set has exactly that property.
    pub fn set_live_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        self.live_rows.clear();
        self.live_rows.extend(rows);
        debug_assert!(self.live_rows.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(self.live_rows.last().is_none_or(|&i| i < self.len()));
    }

    /// The two derived demand columns RTMA's batch clamp kernels consume
    /// — `(need_units, ceiling_units)` — borrowed together so the kernel
    /// call sites stay one line.
    #[inline]
    pub fn demand_columns(&self) -> (&[u64], &[u64]) {
        (&self.need_units, &self.ceiling_units)
    }

    /// Mirror one user's snapshot into row `snap.id`, deriving the
    /// ceiling and need columns with the exact expressions the schedulers
    /// use on the AoS path (`usable_cap_units` / `⌈τ·p/δ⌉`).
    #[inline]
    pub fn set_row(&mut self, snap: &UserSnapshot, tau: f64, delta_kb: f64) {
        let i = snap.id;
        self.signal_dbm[i] = snap.signal.value();
        self.rate_kbps[i] = snap.rate_kbps;
        self.buffer_s[i] = snap.buffer_s;
        self.remaining_kb[i] = snap.remaining_kb;
        self.idle_s[i] = snap.idle_s;
        self.link_cap_units[i] = snap.link_cap_units;
        self.ceiling_units[i] = snap.usable_cap_units(delta_kb);
        self.need_units[i] = ((tau * snap.rate_kbps) / delta_kb).ceil() as u64;
        self.active[i] = snap.active;
    }

    /// Rebuild the whole mirror from an AoS snapshot buffer (the full-pass
    /// counterpart of [`SnapshotSoA::set_row`]); every row is listed live.
    pub fn fill_from(&mut self, snaps: &[UserSnapshot], tau: f64, delta_kb: f64) {
        self.resize(snaps.len());
        for snap in snaps {
            self.set_row(snap, tau, delta_kb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    fn snap(id: usize) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(-80.0 - id as f64),
            rate_kbps: 300.0 + 37.0 * id as f64,
            buffer_s: 1.5 * id as f64,
            remaining_kb: 120.0 + id as f64,
            active: id.is_multiple_of(2),
            link_cap_units: 40 + id as u64,
            idle_s: 0.25 * id as f64,
            rrc_state: RrcState::Dch,
        }
    }

    #[test]
    fn mirror_matches_aos_fields_and_derived_columns() {
        let snaps: Vec<UserSnapshot> = (0..5).map(snap).collect();
        let mut soa = SnapshotSoA::new();
        soa.fill_from(&snaps, 1.0, 50.0);
        assert_eq!(soa.len(), 5);
        for s in &snaps {
            let i = s.id;
            assert_eq!(soa.signal_dbm[i].to_bits(), s.signal.value().to_bits());
            assert_eq!(soa.rate_kbps[i], s.rate_kbps);
            assert_eq!(soa.remaining_kb[i], s.remaining_kb);
            assert_eq!(soa.ceiling_units[i], s.usable_cap_units(50.0));
            assert_eq!(
                soa.need_units[i],
                ((1.0 * s.rate_kbps) / 50.0).ceil() as u64
            );
            assert_eq!(soa.active[i], s.active);
        }
    }

    #[test]
    fn absent_mirror_is_the_full_pass_over_absent_rows() {
        use crate::collector::RawUserState;
        let snaps: Vec<UserSnapshot> = (0..7)
            .map(|id| RawUserState::ABSENT.as_reported(id, Dbm(0.0), 46))
            .collect();
        let mut filled = SnapshotSoA::new();
        filled.fill_from(&snaps, 1.0, 50.0);
        filled.set_live_rows([]);
        assert_eq!(SnapshotSoA::absent(7, 46), filled);
    }

    /// Phases A and C keep the mirror by rewriting single rows in place:
    /// a rewritten row leaves the mirror the full refill of the updated
    /// buffer would build, every other row untouched.
    #[test]
    fn set_row_in_place_equals_a_full_refill() {
        let mut snaps: Vec<UserSnapshot> = (0..6).map(snap).collect();
        let mut soa = SnapshotSoA::new();
        soa.fill_from(&snaps, 1.0, 50.0);
        snaps[3] = UserSnapshot { id: 3, ..snap(9) };
        soa.set_row(&snaps[3], 1.0, 50.0);
        let mut refilled = SnapshotSoA::new();
        refilled.fill_from(&snaps, 1.0, 50.0);
        assert_eq!(soa, refilled);
    }

    #[test]
    fn resize_shrinks_and_grows() {
        let snaps: Vec<UserSnapshot> = (0..3).map(snap).collect();
        let mut soa = SnapshotSoA::new();
        soa.fill_from(&snaps, 1.0, 50.0);
        soa.resize(1);
        assert_eq!(soa.len(), 1);
        soa.resize(4);
        assert_eq!(soa.len(), 4);
        assert!(!soa.active[3], "grown rows start inactive");
        assert_eq!(soa.ceiling_units[3], 0);
    }
}
