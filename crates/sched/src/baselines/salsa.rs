//! SALSA \[17\]: the energy-delay tradeoff scheduler of Ra et al.
//!
//! SALSA defers transmission until the channel looks better than its
//! recent history, with a queue-pressure override so the deferral is
//! bounded. Our reconstruction keeps a per-user EWMA of link throughput
//! and transmits at full speed when either
//!
//! * the instantaneous throughput beats `θ · EWMA` (a good-channel
//!   opportunity), or
//! * the client buffer has drained below a safety floor (delay pressure).
//!
//! Crucially — and this is the deficiency the paper exploits in Fig. 9 —
//! the decision rule is *tail-blind*: deferrals are scored only by channel
//! quality and queue pressure, never by the tail energy the resulting
//! idle gaps burn.

use jmso_gateway::{Allocation, Scheduler, SlotContext};

/// The SALSA reconstruction.
#[derive(Debug, Clone)]
pub struct Salsa {
    /// Channel-opportunity factor θ (transmit when cap ≥ θ·EWMA).
    pub theta: f64,
    /// Buffer floor (seconds) that forces a transmission.
    pub buffer_floor_s: f64,
    /// EWMA smoothing factor α ∈ (0, 1].
    pub ewma_alpha: f64,
    ewma_cap: Vec<f64>,
}

impl Salsa {
    /// Build with explicit parameters.
    pub fn new(theta: f64, buffer_floor_s: f64, ewma_alpha: f64) -> Self {
        assert!(theta > 0.0, "θ must be positive");
        assert!(buffer_floor_s >= 0.0);
        assert!((0.0..=1.0).contains(&ewma_alpha) && ewma_alpha > 0.0);
        Self {
            theta,
            buffer_floor_s,
            ewma_alpha,
            ewma_cap: Vec::new(),
        }
    }

    /// Defaults used in the figure harness: transmit on channels at or
    /// above the recent average, keep at least 3 s buffered.
    pub fn paper_default() -> Self {
        Self::new(1.0, 3.0, 0.2)
    }
}

impl Scheduler for Salsa {
    fn name(&self) -> &'static str {
        "SALSA"
    }

    fn allocate_into(&mut self, ctx: &SlotContext, out: &mut Allocation) {
        if self.ewma_cap.len() != ctx.users.len() {
            // Seed the EWMA with the first observation.
            self.ewma_cap = ctx.users.iter().map(|u| u.link_cap_units as f64).collect();
        }
        out.reset(ctx.users.len());
        let mut budget = ctx.bs_cap_units;
        for (u, slot) in ctx.users.iter().zip(&mut out.0) {
            let cap_now = u.link_cap_units as f64;
            let ewma = &mut self.ewma_cap[u.id];
            let good_channel = cap_now >= self.theta * *ewma;
            *ewma = self.ewma_alpha * cap_now + (1.0 - self.ewma_alpha) * *ewma;
            let pressure = u.buffer_s < self.buffer_floor_s;
            if !(good_channel || pressure) {
                continue;
            }
            let grant = u.usable_cap_units(ctx.delta_kb).min(budget);
            budget -= grant;
            *slot = grant;
        }
    }

    fn export_state(&self) -> Option<String> {
        super::export_rows(&self.ewma_cap)
    }

    fn import_state(&mut self, state: &str) -> Result<(), String> {
        super::import_rows(self.name(), &mut self.ewma_cap, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support::{ctx, user};

    #[test]
    fn transmits_on_good_channel() {
        let mut s = Salsa::new(1.0, 3.0, 0.2);
        // Seed EWMA with a weak channel, then show a strong one.
        let mut weak = user(0, -100.0, 400.0, 10);
        weak.buffer_s = 50.0; // no pressure
        let _ = s.allocate(&ctx(&[weak], 400));
        let mut strong = user(0, -60.0, 400.0, 80);
        strong.buffer_s = 50.0;
        let a = s.allocate(&ctx(&[strong], 400));
        assert!(a.0[0] > 0, "strong channel beats EWMA");
    }

    #[test]
    fn defers_on_bad_channel_without_pressure() {
        let mut s = Salsa::new(1.0, 3.0, 0.2);
        let mut good = user(0, -60.0, 400.0, 80);
        good.buffer_s = 50.0;
        let _ = s.allocate(&ctx(&[good.clone()], 400)); // EWMA ≈ 80
        let mut bad = user(0, -105.0, 400.0, 8);
        bad.buffer_s = 50.0;
        let a = s.allocate(&ctx(&[bad], 400));
        assert_eq!(a.0[0], 0, "bad channel, full buffer ⇒ defer");
    }

    #[test]
    fn buffer_pressure_overrides_channel() {
        let mut s = Salsa::new(1.0, 3.0, 0.2);
        let mut good = user(0, -60.0, 400.0, 80);
        good.buffer_s = 50.0;
        let _ = s.allocate(&ctx(&[good], 400));
        let mut starved = user(0, -105.0, 400.0, 8);
        starved.buffer_s = 1.0; // below the floor
        let a = s.allocate(&ctx(&[starved], 400));
        assert!(a.0[0] > 0, "delay pressure forces a send");
    }

    #[test]
    fn respects_bs_budget() {
        let users: Vec<_> = (0..4).map(|i| user(i, -60.0, 400.0, 40)).collect();
        let mut s = Salsa::paper_default();
        let c = ctx(&users, 60);
        let a = s.allocate(&c);
        assert!(a.total_units() <= 60);
        a.validate(&c).expect("valid allocation");
    }
}
