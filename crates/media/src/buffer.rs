//! Client playback buffer — Eqs. (7)–(9) of the paper.
//!
//! The *remaining occupancy* `rᵢ(n)` is the playback duration the buffered
//! data can sustain at the beginning of slot `n`:
//!
//! ```text
//! rᵢ(0) = 0
//! rᵢ(n) = max{rᵢ(n−1) − τ, 0} + tᵢ(n−1)        (Eq. 7)
//! ```
//!
//! where `tᵢ(n) = dᵢ(n)/pᵢ(n)` is the playback time carried by the shard
//! delivered in slot `n` (a shard is usable only once fully received, i.e.
//! from the *next* slot). Rebuffering in a slot is the shortfall below one
//! slot of playback, counted only while the video is still playing:
//!
//! ```text
//! cᵢ(n) = max{τ − rᵢ(n), 0}   while mᵢ(n) < Mᵢ, else 0   (Eq. 8)
//! ```
//!
//! Note that the recursion at `n = 0` (`max{0 − τ, 0} + 0 = 0`) reproduces
//! the paper's boundary condition `rᵢ(0) = 0`, so the same update runs on
//! every slot with no special case; initial startup delay therefore counts
//! as rebuffering, exactly as in the paper's model.

use serde::{Deserialize, Serialize};

/// What happened to one client during one slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotOutcome {
    /// Rebuffering time `cᵢ(n)` in this slot, seconds (`∈ [0, τ]`).
    pub rebuffer_s: f64,
    /// Seconds of media actually watched this slot.
    pub watched_s: f64,
    /// Occupancy `rᵢ(n)` at the beginning of the slot, seconds.
    pub occupancy_s: f64,
    /// True while the user was still watching at the start of the slot
    /// (`mᵢ(n) < Mᵢ`); rebuffering accrues only on active slots.
    pub active: bool,
}

/// Per-user playback state machine implementing the paper's buffer model.
///
/// ```
/// use jmso_media::ClientPlayback;
///
/// let mut client = ClientPlayback::new(60.0, 1.0); // 60 s video, τ = 1 s
/// let startup = client.begin_slot();
/// assert_eq!(startup.rebuffer_s, 1.0); // nothing buffered yet
/// client.deliver(900.0, 300.0);        // 900 KB at 300 KB/s = 3 s of media
/// let playing = client.begin_slot();   // the shard is playable next slot
/// assert_eq!(playing.rebuffer_s, 0.0);
/// assert_eq!(playing.watched_s, 1.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClientPlayback {
    tau: f64,
    /// `rᵢ` — playback seconds available at the last `begin_slot`.
    occupancy_s: f64,
    /// `tᵢ(n)` of the shard delivered during the current slot; becomes
    /// available at the next `begin_slot`.
    pending_s: f64,
    /// `mᵢ` — elapsed playback seconds.
    played_s: f64,
    /// `Mᵢ` — total playback seconds.
    total_playback_s: f64,
    /// Σ cᵢ(n) so far.
    total_rebuffer_s: f64,
    /// Number of slots with cᵢ(n) > 0.
    stall_slots: u64,
    /// Slots elapsed before the first frame played (startup delay).
    startup_slots: u64,
    started: bool,
}

impl ClientPlayback {
    /// New client about to watch `total_playback_s` seconds of media,
    /// with slot length `tau`.
    pub fn new(total_playback_s: f64, tau: f64) -> Self {
        assert!(tau > 0.0, "slot length must be positive");
        assert!(total_playback_s > 0.0, "playback length must be positive");
        Self {
            tau,
            occupancy_s: 0.0,
            pending_s: 0.0,
            played_s: 0.0,
            total_playback_s,
            total_rebuffer_s: 0.0,
            stall_slots: 0,
            startup_slots: 0,
            started: false,
        }
    }

    /// Advance to the next slot: apply Eq. (7), account Eq. (8), progress
    /// playback. Call exactly once per slot, before delivering that slot's
    /// shard via [`Self::deliver`].
    pub fn begin_slot(&mut self) -> SlotOutcome {
        // Eq. (7): last slot consumed up to τ seconds; the shard delivered
        // last slot becomes usable now.
        self.occupancy_s = (self.occupancy_s - self.tau).max(0.0) + self.pending_s;
        self.pending_s = 0.0;

        let active = !self.playback_complete();
        let (rebuffer_s, watched_s) = if active {
            // Eq. (8), refined at the video boundary: in the final slot
            // only `Mᵢ − mᵢ` seconds of playback are still needed, so only
            // a shortfall against *that* counts as stalling (the literal
            // formula would charge up to τ even when ε seconds remain;
            // the refinement changes totals by < τ per session — see
            // DESIGN.md §6).
            let needed = self.tau.min(self.total_playback_s - self.played_s);
            let c = (needed - self.occupancy_s).max(0.0);
            (c, needed - c)
        } else {
            (0.0, 0.0)
        };

        self.played_s += watched_s;
        if active {
            self.total_rebuffer_s += rebuffer_s;
            if rebuffer_s > 0.0 {
                self.stall_slots += 1;
            }
            if !self.started {
                if watched_s > 0.0 {
                    self.started = true;
                } else {
                    self.startup_slots += 1;
                }
            }
        }

        SlotOutcome {
            rebuffer_s,
            watched_s,
            occupancy_s: self.occupancy_s,
            active,
        }
    }

    /// Deliver a shard of `kb` kilobytes encoded at `rate_kbps` during the
    /// current slot (`tᵢ(n) = dᵢ(n)/pᵢ(n)`); it becomes playable at the
    /// next [`Self::begin_slot`].
    pub fn deliver(&mut self, kb: f64, rate_kbps: f64) {
        debug_assert!(kb >= 0.0);
        debug_assert!(rate_kbps > 0.0);
        self.pending_s += kb / rate_kbps;
    }

    /// `rᵢ(n)` at the most recent slot start, seconds.
    pub fn occupancy_s(&self) -> f64 {
        self.occupancy_s
    }

    /// `mᵢ` — seconds watched so far.
    pub fn played_s(&self) -> f64 {
        self.played_s
    }

    /// `Mᵢ` — total seconds to watch.
    pub fn total_playback_s(&self) -> f64 {
        self.total_playback_s
    }

    /// True once the entire video has been watched.
    pub fn playback_complete(&self) -> bool {
        self.played_s >= self.total_playback_s - 1e-9
    }

    /// Σ cᵢ(n): total rebuffering so far, seconds.
    pub fn total_rebuffer_s(&self) -> f64 {
        self.total_rebuffer_s
    }

    /// Number of slots in which any rebuffering occurred.
    pub fn stall_slots(&self) -> u64 {
        self.stall_slots
    }

    /// Slots before the first frame played.
    pub fn startup_slots(&self) -> u64 {
        self.startup_slots
    }

    /// Slot length τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Abandon the session mid-stream (user churn): truncate `Mᵢ` to the
    /// seconds already watched, so playback is complete from the next
    /// [`Self::begin_slot`] on and no further rebuffering accrues.
    pub fn abandon(&mut self) {
        self.total_playback_s = self.played_s;
        self.occupancy_s = 0.0;
        self.pending_s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Startup: with no data, every slot is a full stall.
    #[test]
    fn starvation_stalls_full_slots() {
        let mut c = ClientPlayback::new(10.0, 1.0);
        for _ in 0..3 {
            let o = c.begin_slot();
            assert_eq!(o.rebuffer_s, 1.0);
            assert_eq!(o.watched_s, 0.0);
            assert!(o.active);
        }
        assert_eq!(c.total_rebuffer_s(), 3.0);
        assert_eq!(c.stall_slots(), 3);
        assert_eq!(c.startup_slots(), 3);
    }

    /// A shard delivered in slot n is only playable in slot n+1 (Def. 1:
    /// "can be used only in the next slots").
    #[test]
    fn shard_usable_next_slot_only() {
        let mut c = ClientPlayback::new(10.0, 1.0);
        let o0 = c.begin_slot();
        assert_eq!(o0.rebuffer_s, 1.0); // nothing buffered yet
        c.deliver(500.0, 250.0); // 2 s of playback arrives during slot 0
        let o1 = c.begin_slot();
        assert_eq!(o1.occupancy_s, 2.0);
        assert_eq!(o1.rebuffer_s, 0.0);
        assert_eq!(o1.watched_s, 1.0);
    }

    /// Eq. (7) worked example: occupancy drains by τ per slot.
    #[test]
    fn occupancy_recursion_drains() {
        let mut c = ClientPlayback::new(100.0, 1.0);
        c.begin_slot();
        c.deliver(300.0, 100.0); // 3 s
        assert_eq!(c.begin_slot().occupancy_s, 3.0);
        assert_eq!(c.begin_slot().occupancy_s, 2.0);
        assert_eq!(c.begin_slot().occupancy_s, 1.0);
        let o = c.begin_slot();
        assert_eq!(o.occupancy_s, 0.0);
        assert_eq!(o.rebuffer_s, 1.0);
    }

    /// Partial occupancy gives fractional rebuffering.
    #[test]
    fn fractional_rebuffer() {
        let mut c = ClientPlayback::new(100.0, 1.0);
        c.begin_slot();
        c.deliver(25.0, 100.0); // 0.25 s
        let o = c.begin_slot();
        assert!((o.rebuffer_s - 0.75).abs() < 1e-12);
        assert!((o.watched_s - 0.25).abs() < 1e-12);
    }

    /// Rebuffering stops accruing once the video completes (Eq. 8's
    /// mᵢ ≥ Mᵢ branch).
    #[test]
    fn no_rebuffer_after_completion() {
        let mut c = ClientPlayback::new(2.0, 1.0);
        c.begin_slot();
        c.deliver(300.0, 100.0); // 3 s buffered for a 2 s video
        let o1 = c.begin_slot();
        assert_eq!(o1.watched_s, 1.0);
        let o2 = c.begin_slot();
        assert_eq!(o2.watched_s, 1.0);
        assert!(c.playback_complete());
        let o3 = c.begin_slot();
        assert!(!o3.active);
        assert_eq!(o3.rebuffer_s, 0.0);
        assert_eq!(c.total_rebuffer_s(), 1.0); // only the startup slot
    }

    /// Final partial slot: watch only the remaining media.
    #[test]
    fn final_partial_slot() {
        let mut c = ClientPlayback::new(1.5, 1.0);
        c.begin_slot();
        c.deliver(500.0, 100.0); // 5 s buffered
        assert_eq!(c.begin_slot().watched_s, 1.0);
        let o = c.begin_slot();
        assert!((o.watched_s - 0.5).abs() < 1e-12);
        assert!(c.playback_complete());
    }

    /// Startup delay stops counting at first playback.
    #[test]
    fn startup_counter() {
        let mut c = ClientPlayback::new(10.0, 1.0);
        c.begin_slot(); // stall
        c.begin_slot(); // stall
        c.deliver(100.0, 100.0); // 1 s
        c.begin_slot(); // plays
        c.begin_slot(); // stalls again — startup unchanged
        assert_eq!(c.startup_slots(), 2);
        assert_eq!(c.stall_slots(), 3);
    }

    /// Per-slot rebuffering never exceeds τ.
    #[test]
    fn rebuffer_bounded_by_tau() {
        let mut c = ClientPlayback::new(50.0, 2.5);
        for _ in 0..10 {
            let o = c.begin_slot();
            assert!(o.rebuffer_s <= 2.5 + 1e-12);
        }
    }
}
