//! Data Receiver — per-flow downlink queues at the gateway.
//!
//! The receiver buffers bytes arriving from origin servers before the
//! scheduler forwards them to users, and slices video flows apart from
//! background traffic so that only video is scheduled (the paper's
//! "resource slicing" after CellSlice \[26\]).
//!
//! Origin behaviour is pluggable: an [`OriginModel::Infinite`] origin (the
//! paper's implicit assumption — content is always available at the
//! gateway), a rate-limited origin modelling a constrained CDN leg, or a
//! bursty origin. When payload carriage is enabled the queues hold real
//! [`bytes::Bytes`] chunks so end-to-end byte movement can be asserted in
//! tests; by default only byte counts are tracked, which is what the
//! simulator needs, and a flow is plain data.

use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Traffic class of a flow (video is scheduled; background is sliced off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowClass {
    /// A video stream managed by the scheduler.
    Video,
    /// Any other downlink traffic; bypasses the scheduler.
    Background,
}

/// How the origin server feeds a flow's queue each slot.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum OriginModel {
    /// Content always available (the paper's assumption).
    Infinite,
    /// The origin leg delivers at most `kbps` KB per second.
    RateLimited {
        /// Origin-side rate limit, KB/s.
        kbps: f64,
    },
    /// The origin alternates `on_slots` of `kbps` delivery with
    /// `off_slots` of silence.
    Bursty {
        /// Delivery rate while on, KB/s.
        kbps: f64,
        /// Slots delivering.
        on_slots: u64,
        /// Slots silent.
        off_slots: u64,
    },
}

impl OriginModel {
    /// KB this origin makes available during slot `slot` of length `tau`.
    fn arrival_kb(&self, slot: u64, tau: f64) -> f64 {
        match self {
            OriginModel::Infinite => f64::INFINITY,
            OriginModel::RateLimited { kbps } => kbps * tau,
            OriginModel::Bursty {
                kbps,
                on_slots,
                off_slots,
            } => {
                let cycle = on_slots + off_slots;
                if cycle == 0 || slot % cycle < *on_slots {
                    kbps * tau
                } else {
                    0.0
                }
            }
        }
    }
}

/// One flow's queue state: plain data, so a receiver of any size is
/// released without visiting a flow.
#[derive(Debug, Clone, Copy)]
struct FlowQueue {
    class: FlowClass,
    /// KB buffered at the gateway and ready to forward.
    backlog_kb: f64,
    /// KB the whole flow will ever carry (`None` = unbounded).
    remaining_source_kb: Option<f64>,
}

const _: () = assert!(!std::mem::needs_drop::<FlowQueue>());

impl FlowQueue {
    /// True while an ingest can still change this flow: it is unbounded,
    /// or its origin has source bytes left to ship. (Origin rates are
    /// non-negative, so a bounded flow at exactly zero stays there.)
    fn owes(&self) -> bool {
        self.remaining_source_kb.is_none_or(|rem| rem != 0.0)
    }
}

/// [`DataReceiver::at`] of a flow that is not on the owing list.
const UNLISTED: u32 = u32::MAX;

/// The gateway's downlink buffer across all flows.
#[derive(Debug)]
pub struct DataReceiver {
    flows: Vec<FlowQueue>,
    /// The one origin every flow is fed by.
    origin: OriginModel,
    tau: f64,
    /// Real payload chunks, one queue per flow; empty unless
    /// [`DataReceiver::with_payload`] (tests / fidelity mode).
    payload: Vec<VecDeque<Bytes>>,
    /// Flows whose origin still owes bytes — the only ones
    /// [`DataReceiver::ingest_slot`] visits, in no particular order (a
    /// flow's ingest touches that flow alone). A flow leaves when an
    /// ingest finds its source drained, or when a volume set drains it
    /// on the spot (an [`OriginModel::Infinite`] origin), and re-enters
    /// when a volume call gives it a remainder again.
    owing: Vec<usize>,
    /// `at[i]`: flow `i`'s place on `owing`, or [`UNLISTED`].
    at: Vec<u32>,
    /// Flows the latest ingest visited.
    visited_last_ingest: usize,
}

impl DataReceiver {
    /// A receiver with `n_users` video flows fed by `origin`, plus
    /// slot length `tau`.
    pub fn new(n_users: usize, origin: OriginModel, tau: f64) -> Self {
        assert!(tau > 0.0);
        assert!(n_users < UNLISTED as usize, "too many flows");
        let flow = FlowQueue {
            class: FlowClass::Video,
            backlog_kb: 0.0,
            remaining_source_kb: None,
        };
        // Unbounded flows always owe: every flow starts listed.
        Self {
            flows: vec![flow; n_users],
            origin,
            tau,
            payload: Vec::new(),
            owing: (0..n_users).collect(),
            at: (0..n_users as u32).collect(),
            visited_last_ingest: 0,
        }
    }

    /// Put flow `user` on the owing list or take it off, as it owes
    /// bytes or not: O(1) either way.
    fn relist(&mut self, user: usize) {
        let listed = self.at[user] != UNLISTED;
        if listed == self.flows[user].owes() {
            return;
        }
        if listed {
            let k = self.at[user] as usize;
            self.owing.swap_remove(k);
            if let Some(&moved) = self.owing.get(k) {
                self.at[moved] = k as u32;
            }
            self.at[user] = UNLISTED;
        } else {
            self.at[user] = self.owing.len() as u32;
            self.owing.push(user);
        }
    }

    /// Enable real payload carriage: each KB queued from here on is
    /// backed by a [`Bytes`] chunk. Used by tests asserting end-to-end
    /// byte movement; call it before any volume is set, since an
    /// [`OriginModel::Infinite`] origin queues a flow's whole volume
    /// when it is set.
    pub fn with_payload(mut self) -> Self {
        self.payload = vec![VecDeque::new(); self.flows.len()];
        self
    }

    /// Queue `kb` of origin arrivals on flow `user` (and, in payload
    /// mode, the chunk carrying them).
    fn arrive(&mut self, user: usize, kb: f64) {
        if kb > 0.0 {
            self.flows[user].backlog_kb += kb;
            if let Some(q) = self.payload.get_mut(user) {
                q.push_back(Bytes::from(vec![0u8; (kb * 1024.0) as usize]));
            }
        }
    }

    /// Bound the total volume flow `user` will ever receive from its
    /// origin (the video size), so the queue drains at end of session.
    /// An [`OriginModel::Infinite`] origin ships the whole volume at
    /// once — what its next ingest would do — so the flow is drained
    /// here and no ingest visits it.
    pub fn set_source_volume_kb(&mut self, user: usize, kb: f64) {
        let rem = match self.origin {
            OriginModel::Infinite => {
                self.arrive(user, kb);
                0.0
            }
            _ => kb,
        };
        self.flows[user].remaining_source_kb = Some(rem);
        self.relist(user);
    }

    /// Adjust flow `user`'s total source volume by `delta_kb` (an ABR rung
    /// switch re-prices the unfetched remainder of the video). Growth goes
    /// to the undelivered source remainder when the origin still owes
    /// bytes, else to the gateway backlog (the origin already shipped
    /// everything, as an [`OriginModel::Infinite`] origin does when the
    /// volume is set); shrinkage drains the source remainder first and
    /// then the backlog, flooring both at zero. No-op for unbounded flows.
    pub fn adjust_source_volume_kb(&mut self, user: usize, delta_kb: f64) {
        let f = &mut self.flows[user];
        let Some(rem) = f.remaining_source_kb.as_mut() else {
            return;
        };
        if delta_kb >= 0.0 {
            if *rem > 0.0 {
                *rem += delta_kb;
            } else {
                f.backlog_kb += delta_kb;
            }
        } else {
            let from_rem = (-delta_kb).min(*rem);
            *rem -= from_rem;
            let from_backlog = (-delta_kb) - from_rem;
            f.backlog_kb = (f.backlog_kb - from_backlog).max(0.0);
        }
        self.relist(user);
    }

    /// Reclassify a flow (video flows are scheduled, background is not).
    pub fn set_class(&mut self, user: usize, class: FlowClass) {
        self.flows[user].class = class;
    }

    /// Class of a flow.
    pub fn class(&self, user: usize) -> FlowClass {
        self.flows[user].class
    }

    /// Ingest one slot of origin arrivals for every flow whose origin
    /// still owes bytes. A drained flow would take a zero-KB arrival —
    /// no state change — so skipping it is exact; the cost of a slot is
    /// the flows still fetching, not the pool.
    pub fn ingest_slot(&mut self, slot: u64) {
        self.visited_last_ingest = self.owing.len();
        let offer = self.origin.arrival_kb(slot, self.tau);
        let mut kept = 0;
        for k in 0..self.owing.len() {
            let i = self.owing[k];
            let f = &mut self.flows[i];
            let mut arrive = offer;
            if let Some(rem) = f.remaining_source_kb.as_mut() {
                arrive = arrive.min(*rem);
                *rem -= arrive;
            } else if arrive.is_infinite() {
                // Unbounded source with no volume bound: keep the backlog
                // topped up to a large watermark instead of growing it.
                f.backlog_kb = f.backlog_kb.max(1e12);
                arrive = 0.0;
            }
            let owes = f.owes();
            self.arrive(i, arrive);
            if owes {
                self.owing[kept] = i;
                self.at[i] = kept as u32;
                kept += 1;
            } else {
                self.at[i] = UNLISTED;
            }
        }
        self.owing.truncate(kept);
    }

    /// Flows the latest [`DataReceiver::ingest_slot`] visited — a
    /// deterministic work count for scaling tests.
    pub fn flows_visited_last_ingest(&self) -> usize {
        self.visited_last_ingest
    }

    /// KB buffered and forwardable for `user`.
    pub fn backlog_kb(&self, user: usize) -> f64 {
        self.flows[user].backlog_kb
    }

    /// Number of video flows.
    pub fn n_flows(&self) -> usize {
        self.flows.len()
    }

    /// Dequeue up to `kb` for `user`; returns the KB actually removed
    /// (and, in payload mode, the chunks carrying them).
    pub fn dequeue_kb(&mut self, user: usize, kb: f64) -> (f64, Vec<Bytes>) {
        let f = &mut self.flows[user];
        let take = kb.min(f.backlog_kb).max(0.0);
        f.backlog_kb -= take;
        let mut chunks = Vec::new();
        if let Some(q) = self.payload.get_mut(user) {
            let mut remaining_bytes = (take * 1024.0) as usize;
            while remaining_bytes > 0 {
                match q.pop_front() {
                    None => break,
                    Some(mut c) if c.len() <= remaining_bytes => {
                        remaining_bytes -= c.len();
                        chunks.push(std::mem::take(&mut c));
                    }
                    Some(mut c) => {
                        let head = c.split_to(remaining_bytes);
                        q.push_front(c);
                        remaining_bytes = 0;
                        chunks.push(head);
                    }
                }
            }
        }
        (take, chunks)
    }

    /// Snapshot every flow's queue state for a checkpoint. Payload chunks
    /// are not captured: payload mode is a test fixture, not a simulation
    /// mode, and resuming it would require shipping raw bytes.
    pub fn export_state(&self) -> Vec<FlowState> {
        self.flows
            .iter()
            .map(|f| FlowState {
                backlog_kb: f.backlog_kb,
                remaining_source_kb: f.remaining_source_kb,
            })
            .collect()
    }

    /// Restore queue state captured by [`DataReceiver::export_state`].
    pub fn import_state(&mut self, state: &[FlowState]) -> Result<(), String> {
        if state.len() != self.flows.len() {
            return Err(format!(
                "receiver checkpoint has {} flows, receiver has {}",
                state.len(),
                self.flows.len()
            ));
        }
        self.owing.clear();
        for (i, (f, s)) in self.flows.iter_mut().zip(state).enumerate() {
            f.backlog_kb = s.backlog_kb;
            f.remaining_source_kb = s.remaining_source_kb;
            self.at[i] = UNLISTED;
            if f.owes() {
                self.at[i] = self.owing.len() as u32;
                self.owing.push(i);
            }
        }
        Ok(())
    }
}

/// Serializable snapshot of one flow's queue state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowState {
    /// KB buffered at the gateway.
    pub backlog_kb: f64,
    /// KB the origin will still supply (`None` = unbounded).
    pub remaining_source_kb: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinite_origin_always_has_backlog() {
        let mut r = DataReceiver::new(2, OriginModel::Infinite, 1.0);
        r.ingest_slot(0);
        assert!(r.backlog_kb(0) >= 1e12);
        let (got, _) = r.dequeue_kb(0, 500.0);
        assert_eq!(got, 500.0);
    }

    #[test]
    fn rate_limited_origin_binds() {
        let mut r = DataReceiver::new(1, OriginModel::RateLimited { kbps: 100.0 }, 1.0);
        r.ingest_slot(0);
        assert_eq!(r.backlog_kb(0), 100.0);
        let (got, _) = r.dequeue_kb(0, 500.0);
        assert_eq!(got, 100.0);
        assert_eq!(r.backlog_kb(0), 0.0);
    }

    #[test]
    fn bursty_origin_cycles() {
        let mut r = DataReceiver::new(
            1,
            OriginModel::Bursty {
                kbps: 10.0,
                on_slots: 2,
                off_slots: 3,
            },
            1.0,
        );
        let mut arrivals = vec![];
        for n in 0..10 {
            let before = r.backlog_kb(0);
            r.ingest_slot(n);
            arrivals.push(r.backlog_kb(0) - before);
        }
        assert_eq!(
            arrivals,
            vec![10.0, 10.0, 0.0, 0.0, 0.0, 10.0, 10.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn source_volume_bounds_total_arrivals() {
        let mut r = DataReceiver::new(1, OriginModel::Infinite, 1.0);
        r.set_source_volume_kb(0, 250.0);
        for n in 0..5 {
            r.ingest_slot(n);
        }
        assert_eq!(r.backlog_kb(0), 250.0);
    }

    #[test]
    fn payload_mode_moves_real_bytes() {
        let mut r =
            DataReceiver::new(1, OriginModel::RateLimited { kbps: 2.0 }, 1.0).with_payload();
        r.ingest_slot(0);
        r.ingest_slot(1);
        // 4 KB queued as two 2 KB chunks; take 3 KB → one whole + one split.
        let (kb, chunks) = r.dequeue_kb(0, 3.0);
        assert_eq!(kb, 3.0);
        let bytes: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(bytes, 3 * 1024);
        let (kb2, chunks2) = r.dequeue_kb(0, 10.0);
        assert_eq!(kb2, 1.0);
        assert_eq!(chunks2.iter().map(|c| c.len()).sum::<usize>(), 1024);
    }

    /// An infinite origin queues a bounded flow's volume when it is set,
    /// so no ingest visits the flow, and in payload mode the chunk that
    /// carries it is the one the first ingest would have queued: the
    /// same bytes leave the queue.
    #[test]
    fn infinite_origin_drains_a_bounded_flow_when_its_volume_is_set() {
        let mut r = DataReceiver::new(3, OriginModel::Infinite, 1.0).with_payload();
        r.set_source_volume_kb(0, 2.5);
        r.set_source_volume_kb(2, 0.0);
        assert_eq!(r.backlog_kb(0), 2.5);
        r.ingest_slot(0);
        assert_eq!(r.flows_visited_last_ingest(), 1, "only the unbounded flow");
        assert_eq!(r.backlog_kb(0), 2.5);
        assert_eq!(r.export_state()[0].remaining_source_kb, Some(0.0));
        let (kb, chunks) = r.dequeue_kb(0, 1.0);
        assert_eq!(kb, 1.0);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 1024);
        let (kb, chunks) = r.dequeue_kb(0, 10.0);
        assert_eq!(kb, 1.5);
        assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 1536);
        // An unbounded flow of an infinite origin never carries payload.
        let (kb, chunks) = r.dequeue_kb(1, 10.0);
        assert_eq!(kb, 10.0);
        assert!(chunks.is_empty());
    }

    #[test]
    fn adjust_volume_grows_remainder_then_backlog() {
        let mut r = DataReceiver::new(1, OriginModel::RateLimited { kbps: 100.0 }, 1.0);
        r.set_source_volume_kb(0, 300.0);
        r.ingest_slot(0); // backlog 100, source remainder 200
        r.adjust_source_volume_kb(0, 50.0); // remainder 250
        let st = r.export_state();
        assert_eq!(st[0].remaining_source_kb, Some(250.0));
        assert_eq!(st[0].backlog_kb, 100.0);
        // Shrink past the remainder: drains it, then the backlog, floored.
        r.adjust_source_volume_kb(0, -400.0);
        let st = r.export_state();
        assert_eq!(st[0].remaining_source_kb, Some(0.0));
        assert_eq!(st[0].backlog_kb, 0.0);
    }

    #[test]
    fn adjust_volume_lands_in_backlog_once_origin_drained() {
        // Infinite origin + volume bound: the whole video is in the
        // backlog once the volume is set, so growth must go there.
        let mut r = DataReceiver::new(1, OriginModel::Infinite, 1.0);
        r.set_source_volume_kb(0, 500.0);
        assert_eq!(r.backlog_kb(0), 500.0);
        r.adjust_source_volume_kb(0, 250.0);
        assert_eq!(r.backlog_kb(0), 750.0);
        r.adjust_source_volume_kb(0, -100.0);
        assert_eq!(r.backlog_kb(0), 650.0);
        // Unbounded flows ignore adjustments.
        let mut u = DataReceiver::new(1, OriginModel::RateLimited { kbps: 1.0 }, 1.0);
        u.adjust_source_volume_kb(0, 99.0);
        assert_eq!(u.backlog_kb(0), 0.0);
    }

    #[test]
    fn flow_classes() {
        let mut r = DataReceiver::new(2, OriginModel::Infinite, 1.0);
        assert_eq!(r.class(0), FlowClass::Video);
        r.set_class(1, FlowClass::Background);
        assert_eq!(r.class(1), FlowClass::Background);
        assert_eq!(r.n_flows(), 2);
    }

    #[test]
    fn dequeue_never_negative() {
        let mut r = DataReceiver::new(1, OriginModel::RateLimited { kbps: 1.0 }, 1.0);
        let (got, _) = r.dequeue_kb(0, -5.0);
        assert_eq!(got, 0.0);
    }
}
