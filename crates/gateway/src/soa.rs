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

    /// Mirror one user's snapshot into row `snap.id`, deriving the ceiling
    /// and need columns with the exact expressions the schedulers use on
    /// the AoS path (`usable_cap_units` / `⌈τ·p/δ⌉`).
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

    /// A raw per-row writer over this mirror's columns, for engines that
    /// partition users into disjoint shards refreshed by different
    /// threads within one lockstep phase (see [`SoaRows`]). The mirror
    /// must be sized to its final row count first; the writer is
    /// invalidated by any later resize.
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

/// Raw column pointers for shard-parallel row writes into a
/// [`SnapshotSoA`].
///
/// Handing each shard a `&mut SnapshotSoA` would alias; this writer
/// derives every store from the column base pointers, so no reference to
/// the mirror exists while shards write. Callers must uphold the shard
/// protocol: within a phase no two threads touch the same row, and no
/// `&`/`&mut` to the underlying mirror is live until the phase ends.
/// [`SoaRows::set_row`] keeps the exact store expressions of
/// [`SnapshotSoA::set_row`], so shard-refreshed mirrors stay
/// bit-identical to serially refreshed ones.
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
// restricted by the documented disjoint-row protocol.
unsafe impl Send for SoaRows {}
unsafe impl Sync for SoaRows {}

impl SoaRows {
    /// Rows addressable by this writer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mirror had no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mirror one user's snapshot into row `snap.id`, exactly like
    /// [`SnapshotSoA::set_row`].
    ///
    /// # Safety
    /// `snap.id < len`, no other thread writes row `snap.id` in this
    /// phase, and no reference to the underlying [`SnapshotSoA`] is live.
    #[inline]
    pub unsafe fn set_row(&self, snap: &UserSnapshot, tau: f64, delta_kb: f64) {
        let i = snap.id;
        debug_assert!(i < self.len);
        *self.signal_dbm.add(i) = snap.signal.value();
        *self.rate_kbps.add(i) = snap.rate_kbps;
        *self.buffer_s.add(i) = snap.buffer_s;
        *self.remaining_kb.add(i) = snap.remaining_kb;
        *self.idle_s.add(i) = snap.idle_s;
        *self.link_cap_units.add(i) = snap.link_cap_units;
        *self.ceiling_units.add(i) = snap.usable_cap_units(delta_kb);
        *self.need_units.add(i) = ((tau * snap.rate_kbps) / delta_kb).ceil() as u64;
        *self.active.add(i) = snap.active;
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
    fn row_writer_matches_set_row_bitwise() {
        let snaps: Vec<UserSnapshot> = (0..6).map(snap).collect();
        let mut serial = SnapshotSoA::new();
        serial.fill_from(&snaps, 1.0, 50.0);

        let mut sharded = SnapshotSoA::new();
        sharded.resize(snaps.len());
        let rows = sharded.rows();
        // Interleaved "shards" writing disjoint rows.
        for s in snaps.iter().filter(|s| s.id % 2 == 0) {
            unsafe { rows.set_row(s, 1.0, 50.0) };
        }
        for s in snaps.iter().filter(|s| s.id % 2 == 1) {
            unsafe { rows.set_row(s, 1.0, 50.0) };
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
