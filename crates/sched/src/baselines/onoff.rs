//! ON-OFF [14]: the watermark protocol real mobile players implement
//! (YouTube, Dailymotion, Vimeo) — fill the client buffer to a high
//! watermark at full speed, then stop reading from the socket until it
//! drains to a low watermark.
//!
//! Per user, the policy is a two-state machine driven by the reported
//! buffer occupancy. It is competition-oblivious: every ON user grabs as
//! much as the link allows, in fixed order, which is why its rebuffering
//! degrades against RTMA as the cell fills (Fig. 5a) even though its OFF
//! periods save some energy versus Default (Fig. 5b).

use jmso_gateway::{Allocation, Scheduler, SlotContext};
use serde::{Deserialize, Serialize};

/// The per-user watermark state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Phase {
    /// Reading from the socket at full speed.
    On,
    /// Socket idle until the buffer drains to the low watermark.
    Off,
}

/// The client watermark baseline.
#[derive(Debug, Clone)]
pub struct OnOff {
    low_s: f64,
    high_s: f64,
    phase: Vec<Phase>,
}

impl OnOff {
    /// Watermarks in seconds of buffered playback (`low < high`).
    pub fn new(low_s: f64, high_s: f64) -> Self {
        assert!(low_s >= 0.0 && high_s > low_s, "need 0 ≤ low < high");
        Self {
            low_s,
            high_s,
            phase: Vec::new(),
        }
    }

    /// Watermarks in the range reported for mobile YouTube players:
    /// resume below ~10 s, stop above ~40 s.
    pub fn paper_default() -> Self {
        Self::new(10.0, 40.0)
    }
}

impl Scheduler for OnOff {
    fn name(&self) -> &'static str {
        "ON-OFF"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        if self.phase.len() != ctx.users.len() {
            self.phase = vec![Phase::On; ctx.users.len()];
        }
        out.reset(ctx.users.len());
        let mut budget = ctx.bs_cap_units;
        for (u, slot) in ctx.users.iter().zip(&mut out.0) {
            // Watermark transitions on the reported occupancy.
            match self.phase[u.id] {
                Phase::On if u.buffer_s >= self.high_s => self.phase[u.id] = Phase::Off,
                Phase::Off if u.buffer_s <= self.low_s => self.phase[u.id] = Phase::On,
                _ => {}
            }
            if self.phase[u.id] == Phase::Off {
                continue;
            }
            // ON: full speed, but never fill past the high watermark.
            let room_kb = ((self.high_s - u.buffer_s).max(0.0)) * u.rate_kbps;
            let room_units = (room_kb / ctx.delta_kb).ceil() as u64;
            let grant = room_units.min(u.usable_cap_units(ctx.delta_kb)).min(budget);
            budget -= grant;
            *slot = grant;
        }
    }

    fn export_state(&self) -> Option<String> {
        super::export_rows(&self.phase)
    }

    fn import_state(&mut self, state: &str) -> Result<(), String> {
        super::import_rows(self.name(), &mut self.phase, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn fills_at_full_speed_when_low() {
        let users = vec![user(0, -70.0, 400.0, 20)];
        let mut p = OnOff::new(10.0, 40.0);
        let a = p.allocate(&ctx(&users, 400));
        assert_eq!(a.0[0], 20, "link-limited full-speed fill");
    }

    #[test]
    fn goes_off_above_high_watermark() {
        let mut u = user(0, -70.0, 400.0, 20);
        u.buffer_s = 45.0;
        let users = vec![u];
        let mut p = OnOff::new(10.0, 40.0);
        assert_eq!(p.allocate(&ctx(&users, 400)).0[0], 0);
    }

    #[test]
    fn stays_off_until_low_watermark() {
        let mut p = OnOff::new(10.0, 40.0);
        // Drive above high → OFF.
        let mut u = user(0, -70.0, 400.0, 20);
        u.buffer_s = 41.0;
        assert_eq!(p.allocate(&ctx(&[u.clone()], 400)).0[0], 0);
        // Mid-range: still OFF (hysteresis).
        u.buffer_s = 20.0;
        assert_eq!(p.allocate(&ctx(&[u.clone()], 400)).0[0], 0);
        // At/below low: back ON.
        u.buffer_s = 9.0;
        assert!(p.allocate(&ctx(&[u], 400)).0[0] > 0);
    }

    #[test]
    fn never_fills_past_high_watermark() {
        let mut u = user(0, -70.0, 100.0, 1000);
        u.buffer_s = 38.0;
        let users = vec![u];
        let mut p = OnOff::new(10.0, 40.0);
        let a = p.allocate(&ctx(&users, 4000));
        // Room = 2 s · 100 KB/s = 200 KB = 4 units.
        assert_eq!(a.0[0], 4);
    }

    #[test]
    fn competition_oblivious_order_starves_tail() {
        let users: Vec<_> = (0..3).map(|i| user(i, -70.0, 400.0, 40)).collect();
        let mut p = OnOff::new(10.0, 40.0);
        let a = p.allocate(&ctx(&users, 50));
        assert_eq!(a.0, vec![40, 10, 0]);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn bad_watermarks_rejected() {
        OnOff::new(10.0, 10.0);
    }
}
