//! EStreamer [16]: burst-shaped delivery sized from the client buffer
//! (Hoque et al., ACM TOMCCAP'14).
//!
//! EStreamer's proxy sends a burst sized to (nearly) fill the client's
//! playout buffer, then idles until the buffer drains to a refill
//! threshold. Bursts amortize the RRC tail over many seconds of playback,
//! so the policy stalls rarely (its rebuffering bound is what EMA is
//! evaluated against in Fig. 9), but:
//!
//! * it is *signal-blind* — a burst fires when the buffer dictates,
//!   regardless of how expensive the current channel is per byte; and
//! * each inter-burst gap still pays one full RRC tail,
//!
//! which together are why EMA undercuts it by >27 % in the paper.

use jmso_gateway::{Allocation, Scheduler, SlotContext};
use serde::{Deserialize, Serialize};

/// Per-user burst state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Phase {
    /// Sending a burst until the buffer target is reached.
    Bursting,
    /// Idle until the refill threshold.
    Draining,
}

/// The EStreamer reconstruction.
#[derive(Debug, Clone)]
pub struct EStreamer {
    /// Refill threshold: a burst starts when the buffer drops here (s).
    pub refill_s: f64,
    /// Buffer target a burst fills to (s) — the "buffer size" bursts are
    /// computed from.
    pub target_s: f64,
    phase: Vec<Phase>,
}

impl EStreamer {
    /// Build with explicit thresholds (`refill < target`).
    pub fn new(refill_s: f64, target_s: f64) -> Self {
        assert!(
            refill_s >= 0.0 && target_s > refill_s,
            "need 0 ≤ refill < target"
        );
        Self {
            refill_s,
            target_s,
            phase: Vec::new(),
        }
    }
}

impl Scheduler for EStreamer {
    fn name(&self) -> &'static str {
        "EStreamer"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        if self.phase.len() != ctx.users.len() {
            self.phase = vec![Phase::Bursting; ctx.users.len()];
        }
        out.reset(ctx.users.len());
        let mut budget = ctx.bs_cap_units;
        for (u, slot) in ctx.users.iter().zip(&mut out.0) {
            match self.phase[u.id] {
                Phase::Bursting if u.buffer_s >= self.target_s => {
                    self.phase[u.id] = Phase::Draining
                }
                Phase::Draining if u.buffer_s <= self.refill_s => {
                    self.phase[u.id] = Phase::Bursting
                }
                _ => {}
            }
            if self.phase[u.id] == Phase::Draining {
                continue;
            }
            // Burst: fill toward the target as fast as the link allows,
            // signal-blind by construction.
            let room_kb = ((self.target_s - u.buffer_s).max(0.0)) * u.rate_kbps;
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
    use crate::{CrossLayerModels, SchedulerSpec};

    /// EStreamer as every figure builds it: from the spec's paper
    /// parameters, so the tests that use it pin those too.
    fn paper() -> Box<dyn Scheduler> {
        SchedulerSpec::estreamer_default().build(1.0, &CrossLayerModels::paper())
    }

    /// Bursts run to the paper's 60 s target, not short of it.
    #[test]
    fn bursts_until_target() {
        let mut e = paper();
        let mut u = user(0, -70.0, 400.0, 30);
        u.buffer_s = 0.0;
        assert!(e.allocate(&ctx(&[u.clone()], 400)).0[0] > 0);
        u.buffer_s = 59.0;
        assert!(e.allocate(&ctx(&[u.clone()], 400)).0[0] > 0);
        u.buffer_s = 60.0;
        assert_eq!(e.allocate(&ctx(&[u], 400)).0[0], 0, "target reached");
    }

    #[test]
    fn drains_until_refill_threshold() {
        let mut e = EStreamer::new(5.0, 60.0);
        let mut u = user(0, -70.0, 400.0, 30);
        u.buffer_s = 60.0;
        let _ = e.allocate(&ctx(&[u.clone()], 400)); // → Draining
        u.buffer_s = 30.0;
        assert_eq!(e.allocate(&ctx(&[u.clone()], 400)).0[0], 0, "hysteresis");
        u.buffer_s = 5.0;
        assert!(e.allocate(&ctx(&[u], 400)).0[0] > 0, "refill fires");
    }

    #[test]
    fn burst_fires_regardless_of_signal() {
        // Signal-blind: the burst fires identically at −55 and −108 dBm.
        for sig in [-55.0, -108.0] {
            let mut e = EStreamer::new(5.0, 60.0);
            let mut u = user(0, sig, 400.0, 6);
            u.buffer_s = 2.0;
            assert!(
                e.allocate(&ctx(&[u], 400)).0[0] > 0,
                "burst must fire at {sig} dBm"
            );
        }
    }

    #[test]
    fn validates_under_competition() {
        let users: Vec<_> = (0..5).map(|i| user(i, -70.0, 450.0, 50)).collect();
        let mut e = paper();
        let c = ctx(&users, 120);
        let a = e.allocate(&c);
        a.validate(&c).expect("valid allocation");
        assert_eq!(a.total_units(), 120, "bursting users saturate the BS");
    }

    #[test]
    #[should_panic(expected = "refill < target")]
    fn bad_thresholds_rejected() {
        EStreamer::new(10.0, 10.0);
    }
}
