//! Data Transmitter — applies an allocation and moves bytes to users.
//!
//! The transmitter is the enforcement point for Eq. (1) and Eq. (2): a
//! scheduler's allocation is clamped to the per-user link bound, the BS
//! budget (first-come in user order), and the receiver backlog. Clamping
//! events are counted so tests can assert that well-formed policies never
//! trigger them.

use crate::receiver::DataReceiver;
use crate::scheduler::{Allocation, SlotContext};

/// Result of transmitting to one user in one slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Units actually sent after clamping.
    pub units: u64,
    /// KB actually sent (`units · δ`, possibly reduced by backlog).
    pub kb: f64,
}

/// The transmitter component.
#[derive(Debug, Default)]
pub struct DataTransmitter {
    clamp_events: u64,
    /// Memoized `⌈δ·u / δ⌉` for the full-delivery fast path: `δ` is fixed
    /// for a whole run and the granted unit counts are small integers, so
    /// the per-user divide collapses to a table read on most slots. Each
    /// entry is computed with the exact expression the slow path uses, so
    /// the reported unit count is bit-identical.
    ceil_units: Vec<u64>,
    /// The `δ` the table was built for (rebuilt when it changes).
    ceil_delta_kb: f64,
    /// Rows the latest [`DataTransmitter::transmit_into`] call wrote a
    /// delivery into — the only rows of its buffer that are not zero, so
    /// the next call clears these instead of rewriting every row.
    granted: Vec<usize>,
}

/// The delivery of a row that was granted nothing.
const NO_DELIVERY: Delivery = Delivery { units: 0, kb: 0.0 };

impl DataTransmitter {
    /// A fresh transmitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times an allocation had to be clamped to respect Eq. (1)/(2).
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events
    }

    /// Overwrite the clamp counter (checkpoint restore).
    pub fn restore_clamp_events(&mut self, n: u64) {
        self.clamp_events = n;
    }

    /// Enforce constraints and move bytes out of the receiver queues,
    /// leaving one [`Delivery`] per user in a caller-owned buffer (the
    /// engine's zero-allocation hot path).
    ///
    /// The call costs the granted rows, not the pool: a zero grant is the
    /// identity (neither clamp can fire, a zero-KB dequeue moves no bytes
    /// and ⌈0/δ⌉ = 0), so only granted rows are written, and the rows the
    /// previous call wrote are cleared first. `out` must therefore be the
    /// buffer the previous call filled, untouched since; a buffer of any
    /// other length is rebuilt from scratch. When the context lists the
    /// rows that may hold demand ([`SlotContext::soa`]), only those are
    /// looked at — every other row has none, and a scheduler must not
    /// grant to it.
    ///
    /// In debug builds an invalid allocation also trips a `debug_assert`,
    /// because schedulers are expected to respect the bounds themselves.
    pub fn transmit_into(
        &mut self,
        ctx: &SlotContext,
        alloc: &Allocation,
        receiver: &mut DataReceiver,
        out: &mut Vec<Delivery>,
    ) {
        debug_assert!(
            alloc.validate(ctx).is_ok(),
            "scheduler produced invalid allocation: {:?}",
            alloc.validate(ctx)
        );
        if ctx.delta_kb != self.ceil_delta_kb {
            self.ceil_units.clear();
            self.ceil_delta_kb = ctx.delta_kb;
        }
        if out.len() == ctx.users.len() {
            for &row in &self.granted {
                out[row] = NO_DELIVERY;
            }
        } else {
            out.clear();
            out.resize(ctx.users.len(), NO_DELIVERY);
        }
        self.granted.clear();
        debug_assert!(
            out.iter().all(|d| *d == NO_DELIVERY),
            "`out` is not the buffer the previous call filled"
        );
        let mut budget = ctx.bs_cap_units;
        match ctx.soa {
            Some(live) => {
                debug_assert_eq!(
                    live.iter().map(|&i| alloc.0[i]).sum::<u64>(),
                    alloc.total_units(),
                    "grant to a row outside the live list"
                );
                for &row in live {
                    self.transmit_row(ctx, row, alloc.0[row], &mut budget, receiver, out);
                }
            }
            None => {
                for (row, &want) in alloc.0.iter().enumerate().take(ctx.users.len()) {
                    self.transmit_row(ctx, row, want, &mut budget, receiver, out);
                }
            }
        }
    }

    /// One row of [`DataTransmitter::transmit_into`]: clamp `want` to the
    /// link bound and what is left of the BS budget, dequeue, and record
    /// the delivery. Rows must be visited in ascending order — the BS
    /// budget is first-come in user order.
    #[inline]
    fn transmit_row(
        &mut self,
        ctx: &SlotContext,
        row: usize,
        want: u64,
        budget: &mut u64,
        receiver: &mut DataReceiver,
        out: &mut [Delivery],
    ) {
        if want == 0 {
            return;
        }
        let user = &ctx.users[row];
        let mut units = want;
        if units > user.link_cap_units {
            units = user.link_cap_units;
            self.clamp_events += 1;
        }
        if units > *budget {
            units = *budget;
            self.clamp_events += 1;
        }
        *budget -= units;
        let want_kb = ctx.delta_kb * units as f64;
        // The backlog may hold less than whole frames — most
        // importantly the short final frame of a stream. Physical
        // frames are padded, so the unit count (and hence the Eq. (2)
        // budget) stays at ⌈kb/δ⌉ while the payload is what was there.
        let kb = receiver.dequeue_kb(user.id, want_kb);
        // Full deliveries (the common case) read the memo table; a
        // backlog shortfall or an oversized grant takes the divide.
        let out_units = if kb == want_kb && units < 4096 {
            let u = units as usize;
            if self.ceil_units.len() <= u {
                let delta = ctx.delta_kb;
                for x in self.ceil_units.len()..=u {
                    self.ceil_units
                        .push((delta * x as f64 / delta).ceil() as u64);
                }
            }
            self.ceil_units[u]
        } else {
            (kb / ctx.delta_kb).ceil() as u64
        };
        out[row] = Delivery {
            units: out_units,
            kb,
        };
        self.granted.push(row);
    }

    /// Enforce constraints and move bytes (allocating convenience wrapper
    /// over [`DataTransmitter::transmit_into`]).
    pub fn transmit(
        &mut self,
        ctx: &SlotContext,
        alloc: &Allocation,
        receiver: &mut DataReceiver,
    ) -> Vec<Delivery> {
        let mut out = Vec::with_capacity(ctx.users.len());
        self.transmit_into(ctx, alloc, receiver, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::OriginModel;
    use crate::scheduler::UserSnapshot;
    use jmso_radio::rrc::RrcState;
    use jmso_radio::Dbm;

    fn snap(id: usize, link_cap: u64) -> UserSnapshot {
        UserSnapshot {
            id,
            signal: Dbm(-80.0),
            rate_kbps: 450.0,
            buffer_s: 0.0,
            remaining_kb: 1e9,
            active: true,
            link_cap_units: link_cap,
            idle_s: 0.0,
            rrc_state: RrcState::Dch,
        }
    }

    fn ctx(users: &[UserSnapshot], bs_cap: u64) -> SlotContext<'_> {
        SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: bs_cap,
            users,
            soa: None,
        }
    }

    #[test]
    fn valid_allocation_delivers_fully() {
        let users = vec![snap(0, 10), snap(1, 10)];
        let mut rx = DataReceiver::new(2, OriginModel::Infinite, 1.0);
        rx.ingest_slot(0);
        let mut tx = DataTransmitter::new();
        let d = tx.transmit(&ctx(&users, 100), &Allocation(vec![4, 6]), &mut rx);
        assert_eq!(
            d[0],
            Delivery {
                units: 4,
                kb: 200.0
            }
        );
        assert_eq!(
            d[1],
            Delivery {
                units: 6,
                kb: 300.0
            }
        );
        assert_eq!(tx.clamp_events(), 0);
    }

    #[test]
    fn backlog_shortfall_delivers_partial_final_frame() {
        let users = vec![snap(0, 10)];
        // Only 120 KB at the gateway: 2 whole 50 KB frames + a short one.
        let mut rx = DataReceiver::new(1, OriginModel::RateLimited { kbps: 120.0 }, 1.0);
        rx.ingest_slot(0);
        let mut tx = DataTransmitter::new();
        let d = tx.transmit(&ctx(&users, 100), &Allocation(vec![5]), &mut rx);
        assert_eq!(d[0].kb, 120.0, "tail of the stream must not be stranded");
        assert_eq!(d[0].units, 3, "short final frame still occupies a frame");
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_mode_clamps_link_violations() {
        let users = vec![snap(0, 3)];
        let mut rx = DataReceiver::new(1, OriginModel::Infinite, 1.0);
        rx.ingest_slot(0);
        let mut tx = DataTransmitter::new();
        let d = tx.transmit(&ctx(&users, 100), &Allocation(vec![9]), &mut rx);
        assert_eq!(d[0].units, 3);
        assert_eq!(tx.clamp_events(), 1);
    }

    #[test]
    fn bs_budget_is_first_come_in_user_order() {
        let users = vec![snap(0, 10), snap(1, 10)];
        let mut rx = DataReceiver::new(2, OriginModel::Infinite, 1.0);
        rx.ingest_slot(0);
        let mut tx = DataTransmitter::new();
        // Total fits Eq. (2) here (validate passes), later users see the
        // remaining budget.
        let d = tx.transmit(&ctx(&users, 12), &Allocation(vec![8, 4]), &mut rx);
        assert_eq!(d[0].units + d[1].units, 12);
    }

    /// A listed walk delivers what the walk over every row delivers when
    /// only listed rows are granted, the BS budget first-come along the
    /// list; rows off it keep `NO_DELIVERY`.
    #[test]
    fn listed_walk_delivers_what_the_full_walk_delivers() {
        let users: Vec<_> = (0..4).map(|i| snap(i, 10)).collect();
        let alloc = Allocation(vec![0, 8, 0, 6]);
        let run = |live: Option<&[usize]>| {
            let mut rx = DataReceiver::new(4, OriginModel::Infinite, 1.0);
            rx.ingest_slot(0);
            let c = SlotContext {
                soa: live,
                ..ctx(&users, 14)
            };
            DataTransmitter::new().transmit(&c, &alloc, &mut rx)
        };
        let listed = run(Some(&[1, 3]));
        assert_eq!(listed, run(None));
        assert_eq!((listed[1].units, listed[3].units), (8, 6));
        assert_eq!((listed[0], listed[2]), (NO_DELIVERY, NO_DELIVERY));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "grant to a row outside the live list")]
    fn grant_outside_the_live_list_trips_the_debug_assertion() {
        let users = vec![snap(0, 10), snap(1, 10)];
        let mut rx = DataReceiver::new(2, OriginModel::Infinite, 1.0);
        rx.ingest_slot(0);
        let c = SlotContext {
            soa: Some(&[1]),
            ..ctx(&users, 100)
        };
        DataTransmitter::new().transmit(&c, &Allocation(vec![4, 6]), &mut rx);
    }
}
