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
    /// what [`SoaRowsMut::set_row`] writes for
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

    /// Mirror one user's snapshot into row `snap.id` (see
    /// [`SoaRowsMut::set_row`]).
    #[inline]
    pub fn set_row(&mut self, snap: &UserSnapshot, tau: f64, delta_kb: f64) {
        self.rows_mut().set_row(snap, tau, delta_kb);
    }

    /// Rebuild the whole mirror from an AoS snapshot buffer (the full-pass
    /// counterpart of [`SnapshotSoA::set_row`]); every row is listed live.
    pub fn fill_from(&mut self, snaps: &[UserSnapshot], tau: f64, delta_kb: f64) {
        self.resize(snaps.len());
        let mut rows = self.rows_mut();
        for snap in snaps {
            rows.set_row(snap, tau, delta_kb);
        }
    }

    /// Every row of the columns, writable; the live list is not part of
    /// the view.
    #[inline]
    pub fn rows_mut(&mut self) -> SoaRowsMut<'_> {
        SoaRowsMut {
            base: 0,
            signal_dbm: &mut self.signal_dbm,
            rate_kbps: &mut self.rate_kbps,
            buffer_s: &mut self.buffer_s,
            remaining_kb: &mut self.remaining_kb,
            idle_s: &mut self.idle_s,
            link_cap_units: &mut self.link_cap_units,
            ceiling_units: &mut self.ceiling_units,
            need_units: &mut self.need_units,
            active: &mut self.active,
        }
    }

    /// The columns' base pointers, for an engine that hands disjoint row
    /// ranges to different threads within one lockstep phase (see
    /// [`SoaRows`]). The mirror must be sized to its final row count
    /// first; the handle is invalidated by any later resize.
    pub fn rows(&mut self) -> SoaRows {
        SoaRows {
            signal_dbm: self.signal_dbm.as_mut_ptr(),
            rate_kbps: self.rate_kbps.as_mut_ptr(),
            buffer_s: self.buffer_s.as_mut_ptr(),
            remaining_kb: self.remaining_kb.as_mut_ptr(),
            idle_s: self.idle_s.as_mut_ptr(),
            link_cap_units: self.link_cap_units.as_mut_ptr(),
            ceiling_units: self.ceiling_units.as_mut_ptr(),
            need_units: self.need_units.as_mut_ptr(),
            active: self.active.as_mut_ptr(),
            len: self.signal_dbm.len(),
        }
    }
}

/// Rows `base..base + len` of a [`SnapshotSoA`]'s columns, writable: the
/// whole mirror ([`SnapshotSoA::rows_mut`]) or one shard's range of it
/// ([`SoaRows::shard`]).
pub struct SoaRowsMut<'a> {
    base: usize,
    signal_dbm: &'a mut [f64],
    rate_kbps: &'a mut [f64],
    buffer_s: &'a mut [f64],
    remaining_kb: &'a mut [f64],
    idle_s: &'a mut [f64],
    link_cap_units: &'a mut [u64],
    ceiling_units: &'a mut [u64],
    need_units: &'a mut [u64],
    active: &'a mut [bool],
}

impl SoaRowsMut<'_> {
    /// Mirror one user's snapshot into row `snap.id` (which must lie in
    /// this view's range), deriving the ceiling and need columns with
    /// the exact expressions the schedulers use on the AoS path
    /// (`usable_cap_units` / `⌈τ·p/δ⌉`).
    #[inline]
    pub fn set_row(&mut self, snap: &UserSnapshot, tau: f64, delta_kb: f64) {
        let i = snap.id - self.base;
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
}

/// Raw column base pointers of a [`SnapshotSoA`], from which a sharded
/// engine carves one [`SoaRowsMut`] per shard and phase.
///
/// Handing each shard a `&mut SnapshotSoA` would alias; every view is
/// derived from these pointers instead, so no reference to the columns
/// exists while shards write. The caller upholds the shard protocol: the
/// ranges carved within one phase are disjoint, and nothing reads the
/// mirror's columns until the phase ends.
pub struct SoaRows {
    signal_dbm: *mut f64,
    rate_kbps: *mut f64,
    buffer_s: *mut f64,
    remaining_kb: *mut f64,
    idle_s: *mut f64,
    link_cap_units: *mut u64,
    ceiling_units: *mut u64,
    need_units: *mut u64,
    active: *mut bool,
    len: usize,
}

// SAFETY: the pointers target plain-old-data columns; cross-thread use is
// restricted by the documented disjoint-range protocol.
unsafe impl Send for SoaRows {}
unsafe impl Sync for SoaRows {}

impl SoaRows {
    /// Rows `range` of every column, writable.
    ///
    /// # Safety
    /// Until the returned view is dropped, no other view overlaps
    /// `range` and no reference to the underlying [`SnapshotSoA`]'s
    /// columns is used; the mirror has not been resized since
    /// [`SnapshotSoA::rows`].
    pub unsafe fn shard<'a>(&self, range: std::ops::Range<usize>) -> SoaRowsMut<'a> {
        assert!(range.start <= range.end && range.end <= self.len);
        let (base, n) = (range.start, range.len());
        SoaRowsMut {
            base,
            signal_dbm: std::slice::from_raw_parts_mut(self.signal_dbm.add(base), n),
            rate_kbps: std::slice::from_raw_parts_mut(self.rate_kbps.add(base), n),
            buffer_s: std::slice::from_raw_parts_mut(self.buffer_s.add(base), n),
            remaining_kb: std::slice::from_raw_parts_mut(self.remaining_kb.add(base), n),
            idle_s: std::slice::from_raw_parts_mut(self.idle_s.add(base), n),
            link_cap_units: std::slice::from_raw_parts_mut(self.link_cap_units.add(base), n),
            ceiling_units: std::slice::from_raw_parts_mut(self.ceiling_units.add(base), n),
            need_units: std::slice::from_raw_parts_mut(self.need_units.add(base), n),
            active: std::slice::from_raw_parts_mut(self.active.add(base), n),
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

    #[test]
    fn row_writer_matches_set_row_bitwise() {
        let snaps: Vec<UserSnapshot> = (0..6).map(snap).collect();
        let mut serial = SnapshotSoA::new();
        serial.fill_from(&snaps, 1.0, 50.0);

        let mut sharded = SnapshotSoA::new();
        sharded.resize(snaps.len());
        let rows = sharded.rows();
        // Two shards' views, later range first.
        // SAFETY: the ranges are disjoint and `sharded` is not touched
        // while the views live.
        let (mut hi, mut lo) = unsafe { (rows.shard(2..6), rows.shard(0..2)) };
        for s in &snaps {
            let view = if s.id < 2 { &mut lo } else { &mut hi };
            view.set_row(s, 1.0, 50.0);
        }
        assert_eq!(serial, sharded);
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
