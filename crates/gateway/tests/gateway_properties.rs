//! Property-based tests for the gateway components.

use jmso_gateway::collector::RawUserState;
use jmso_gateway::{
    Allocation, CollectorSpec, DataReceiver, DataTransmitter, Delivery, FlowState,
    InformationCollector, OriginModel, SlotContext, UnitParams, UserSnapshot,
};
use jmso_radio::rrc::RrcState;
use jmso_radio::{Dbm, KbPerSec, LinearRssiThroughput, ThroughputModel};
use proptest::prelude::*;

fn snapshot(id: usize, link_cap: u64, remaining_kb: f64) -> UserSnapshot {
    UserSnapshot {
        id,
        signal: Dbm(-80.0),
        rate_kbps: 450.0,
        buffer_s: 0.0,
        remaining_kb,
        active: true,
        link_cap_units: link_cap,
        idle_s: 0.0,
        rrc_state: RrcState::Dch,
    }
}

/// KB an origin offers in one slot — the receiver's private
/// `OriginModel::arrival_kb`, transcribed.
fn origin_kb(origin: &OriginModel, slot: u64, tau: f64) -> f64 {
    match origin {
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

/// The full-walk ingest the receiver's owing list replaces: every flow,
/// every slot.
fn ingest_full_walk(flows: &mut [FlowState], origin: &OriginModel, slot: u64, tau: f64) {
    for f in flows {
        let mut arrive = origin_kb(origin, slot, tau);
        if let Some(rem) = f.remaining_source_kb.as_mut() {
            arrive = arrive.min(*rem);
            *rem -= arrive;
        } else if arrive.is_infinite() {
            f.backlog_kb = f.backlog_kb.max(1e12);
            continue;
        }
        if arrive > 0.0 {
            f.backlog_kb += arrive;
        }
    }
}

/// `DataReceiver::adjust_source_volume_kb` on the model flows.
fn adjust_model(f: &mut FlowState, delta_kb: f64) {
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
        f.backlog_kb = (f.backlog_kb - ((-delta_kb) - from_rem)).max(0.0);
    }
}

fn arb_origin() -> impl Strategy<Value = OriginModel> {
    prop_oneof![
        Just(OriginModel::Infinite),
        (1.0f64..400.0).prop_map(|kbps| OriginModel::RateLimited { kbps }),
        (1.0f64..400.0, 0u64..4, 0u64..4).prop_map(|(kbps, on_slots, off_slots)| {
            OriginModel::Bursty {
                kbps,
                on_slots,
                off_slots,
            }
        }),
    ]
}

/// The dense transmit loop the sparse `transmit_into` replaces: one
/// `Delivery` pushed per user, zero grants included, no memo table.
fn transmit_dense(
    ctx: &SlotContext,
    alloc: &Allocation,
    rx: &mut DataReceiver,
    clamp_events: &mut u64,
) -> Vec<Delivery> {
    let mut budget = ctx.bs_cap_units;
    let mut out = Vec::new();
    for (user, &want) in ctx.users.iter().zip(&alloc.0) {
        let mut units = want;
        if units > user.link_cap_units {
            units = user.link_cap_units;
            *clamp_events += 1;
        }
        if units > budget {
            units = budget;
            *clamp_events += 1;
        }
        budget -= units;
        let (kb, _) = rx.dequeue_kb(user.id, ctx.delta_kb * units as f64);
        out.push(Delivery {
            units: (kb / ctx.delta_kb).ceil() as u64,
            kb,
        });
    }
    out
}

proptest! {
    /// The list-driven `ingest_slot` leaves every flow — backlog and
    /// remaining source — exactly where the full walk over all flows
    /// would, every slot, under every origin, with volume calls and
    /// checkpoint imports landing between slots (an infinite origin's
    /// volume set is a full-walk ingest of that flow). Once every bounded
    /// flow is drained it visits none.
    #[test]
    fn list_driven_ingest_equals_full_walk(
        origin in arb_origin(),
        n in 1usize..8,
        slots in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0usize..8, 0.0f64..600.0), 0..4),
            1..24,
        ),
    ) {
        let tau = 1.0;
        let mut rx = DataReceiver::new(n, origin.clone(), tau);
        let mut model = rx.export_state();
        for (slot, ops) in slots.iter().enumerate() {
            for &(kind, user, x) in ops {
                let user = user % n;
                match kind {
                    0 => {
                        // Every third volume is an empty video.
                        let kb = if (x as u64).is_multiple_of(3) { 0.0 } else { x };
                        rx.set_source_volume_kb(user, kb);
                        model[user].remaining_source_kb = Some(kb);
                        if origin == OriginModel::Infinite {
                            // An infinite origin ships the whole volume
                            // when it is set: the model's next ingest,
                            // now.
                            ingest_full_walk(&mut model[user..=user], &origin, 0, tau);
                        }
                    }
                    1 => {
                        rx.adjust_source_volume_kb(user, x - 300.0);
                        adjust_model(&mut model[user], x - 300.0);
                    }
                    2 => {
                        // A restored checkpoint: one flow rewritten (bounded
                        // or not), the whole state imported.
                        model[user] = FlowState {
                            backlog_kb: x,
                            remaining_source_kb: (x > 200.0).then_some(x - 200.0),
                        };
                        rx.import_state(&model).expect("same flow count");
                    }
                    _ => {
                        let (got, _) = rx.dequeue_kb(user, x);
                        model[user].backlog_kb -= got;
                    }
                }
            }
            rx.ingest_slot(slot as u64);
            ingest_full_walk(&mut model, &origin, slot as u64, tau);
            prop_assert_eq!(rx.export_state(), model.clone(), "slot {}", slot);
            let owing = model
                .iter()
                .filter(|f| f.remaining_source_kb != Some(0.0))
                .count();
            rx.ingest_slot(slot as u64 + 1_000);
            prop_assert!(
                rx.flows_visited_last_ingest() == owing,
                "visited {} flows, {} owe bytes",
                rx.flows_visited_last_ingest(),
                owing
            );
            ingest_full_walk(&mut model, &origin, slot as u64 + 1_000, tau);
        }
    }

    /// The sparse `transmit_into` — granted rows written, last call's
    /// rows cleared — fills its buffer exactly like the dense loop, slot
    /// after slot on one buffer, across a change of pool size, with and
    /// without the context's live list, and counts the same clamp events.
    #[test]
    fn sparse_transmit_equals_dense_transcription(
        pools in proptest::collection::vec(
            (
                proptest::collection::vec((0u64..40, prop::bool::ANY), 1..12),
                proptest::collection::vec(
                    (proptest::collection::vec(0u64..60, 12), 0u64..120),
                    1..6,
                ),
            ),
            1..4,
        ),
        backlog_kbps in 20.0f64..3_000.0,
    ) {
        let mut tx_rows = DataTransmitter::new();
        let mut tx_live = DataTransmitter::new();
        let (mut out_rows, mut out_live) = (Vec::new(), Vec::new());
        let mut dense_clamps = 0u64;
        for (users, slots) in &pools {
            let n = users.len();
            let snaps: Vec<UserSnapshot> = users
                .iter()
                .enumerate()
                .map(|(i, &(cap, _))| snapshot(i, cap, 1e9))
                .collect();
            let live: Vec<usize> = (0..n).filter(|&i| users[i].1).collect();
            let origin = OriginModel::RateLimited { kbps: backlog_kbps };
            let mut rx_dense = DataReceiver::new(n, origin.clone(), 1.0);
            let mut rx_rows = DataReceiver::new(n, origin.clone(), 1.0);
            let mut rx_live = DataReceiver::new(n, origin, 1.0);
            for (slot, (requests, bs_cap)) in slots.iter().enumerate() {
                // Off-list rows have no demand, so nothing is granted to
                // them. Debug builds assert a valid allocation; release
                // builds also see over-asks and count the clamps.
                let mut budget = *bs_cap;
                let alloc = Allocation(
                    (0..n)
                        .map(|i| {
                            if !users[i].1 {
                                return 0;
                            }
                            if cfg!(debug_assertions) {
                                let grant = requests[i].min(users[i].0).min(budget);
                                budget -= grant;
                                grant
                            } else {
                                requests[i]
                            }
                        })
                        .collect(),
                );
                let ctx = SlotContext {
                    slot: slot as u64,
                    tau: 1.0,
                    delta_kb: 50.0,
                    bs_cap_units: *bs_cap,
                    users: &snaps,
                    soa: None,
                };
                for rx in [&mut rx_dense, &mut rx_rows, &mut rx_live] {
                    rx.ingest_slot(slot as u64);
                }
                let dense = transmit_dense(&ctx, &alloc, &mut rx_dense, &mut dense_clamps);
                tx_rows.transmit_into(&ctx, &alloc, &mut rx_rows, &mut out_rows);
                let ctx_live = SlotContext { soa: Some(live.as_slice()), ..ctx.clone() };
                tx_live.transmit_into(&ctx_live, &alloc, &mut rx_live, &mut out_live);
                prop_assert_eq!(&out_rows, &dense, "row walk, pool of {}", n);
                prop_assert_eq!(&out_live, &dense, "live-list walk, pool of {}", n);
                prop_assert_eq!(rx_rows.export_state(), rx_dense.export_state());
                prop_assert_eq!(rx_live.export_state(), rx_dense.export_state());
            }
        }
        prop_assert_eq!(tx_rows.clamp_events(), dense_clamps);
        prop_assert_eq!(tx_live.clamp_events(), dense_clamps);
    }

    /// Unit arithmetic: floor/ceil bracket the exact quotient and scale
    /// exactly with δ.
    #[test]
    fn unit_arithmetic(kb in 0.0f64..1e7, delta in 1.0f64..500.0) {
        let u = UnitParams::new(delta);
        let fl = u.units_floor(kb);
        let ce = u.units_ceil(kb);
        prop_assert!(u.kb(fl) <= kb + 1e-6);
        prop_assert!(u.kb(ce) + 1e-6 >= kb);
        prop_assert!(ce - fl <= 1);
    }

    /// Eq. (1)/(2) caps are monotone in throughput/τ and consistent with
    /// each other.
    #[test]
    fn caps_monotone(v in 0.0f64..10_000.0, tau in 0.1f64..4.0, delta in 1.0f64..200.0) {
        let u = UnitParams::new(delta);
        let cap = u.link_cap_units(KbPerSec(v), tau);
        let cap_more = u.link_cap_units(KbPerSec(v + 100.0), tau);
        prop_assert!(cap_more >= cap);
        prop_assert!(u.kb(cap) <= v * tau + 1e-6);
    }

    /// The transmitter never over-delivers: per-user ≤ link cap KB + δ
    /// (partial last frame), aggregate ≤ BS cap, and never more than the
    /// receiver had.
    #[test]
    fn transmitter_respects_all_bounds(
        caps in proptest::collection::vec(0u64..50, 1..10),
        requests in proptest::collection::vec(0u64..50, 1..10),
        bs_cap in 0u64..200,
        backlog_kbps in 1.0f64..5_000.0,
    ) {
        let n = caps.len().min(requests.len());
        let users: Vec<UserSnapshot> =
            (0..n).map(|i| snapshot(i, caps[i], 1e9)).collect();
        let alloc = Allocation(
            (0..n)
                // Clamp requests into validity; the transmitter re-checks.
                .map(|i| requests[i].min(caps[i]))
                .scan(bs_cap, |budget, want| {
                    let grant = want.min(*budget);
                    *budget -= grant;
                    Some(grant)
                })
                .collect(),
        );
        let ctx = SlotContext {
            slot: 0,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: bs_cap,
            users: &users, soa: None,
        };
        let mut rx = DataReceiver::new(n, OriginModel::RateLimited { kbps: backlog_kbps }, 1.0);
        rx.ingest_slot(0);
        let mut tx = DataTransmitter::new();
        let deliveries = tx.transmit(&ctx, &alloc, &mut rx);
        let mut total_units = 0;
        for (d, u) in deliveries.iter().zip(&users) {
            prop_assert!(d.kb <= (u.link_cap_units as f64) * 50.0 + 1e-6);
            prop_assert!(d.kb <= backlog_kbps + 1e-6, "cannot exceed backlog");
            total_units += d.units;
        }
        let _ = total_units;
        let total_kb: f64 = deliveries.iter().map(|d| d.kb).sum();
        prop_assert!(total_kb <= bs_cap as f64 * 50.0 + 1e-6);
    }

    /// Collector: snapshots preserve ids, rates and buffers exactly; the
    /// reported link cap always equals the Eq. (1) cap of the *reported*
    /// signal.
    #[test]
    fn collector_consistency(
        sigs in proptest::collection::vec(-110.0f64..-50.0, 1..20),
        staleness in 0u64..6,
        noise in 0.0f64..6.0,
        seed in 0u64..100,
    ) {
        let n = sigs.len();
        let spec = CollectorSpec { staleness_slots: staleness, signal_noise_std_db: noise };
        let units = UnitParams::new(50.0);
        let thru = LinearRssiThroughput::paper();
        let mut c = InformationCollector::new(spec, thru, units, 1.0, n, seed);
        for slot in 0..8 {
            let raw: Vec<RawUserState> = sigs
                .iter()
                .map(|&s| RawUserState {
                    signal: Dbm(s),
                    rate_kbps: 450.0,
                    buffer_s: 2.0,
                    remaining_kb: 100.0,
                    active: true,
                    idle_s: 0.5,
                    rrc_state: RrcState::Dch,
                })
                .collect();
            let snaps = c.snapshot(slot, &raw);
            for (i, s) in snaps.iter().enumerate() {
                prop_assert_eq!(s.id, i);
                prop_assert_eq!(s.rate_kbps, 450.0);
                prop_assert_eq!(s.buffer_s, 2.0);
                let expect_cap = units.link_cap_units(thru.throughput(s.signal), 1.0);
                prop_assert_eq!(s.link_cap_units, expect_cap);
            }
        }
    }

    /// Receiver conservation: dequeued KB never exceed ingested KB, and
    /// backlog equals ingested − dequeued.
    #[test]
    fn receiver_conserves_bytes(
        rate in 1.0f64..1_000.0,
        takes in proptest::collection::vec(0.0f64..500.0, 1..30),
    ) {
        let mut rx = DataReceiver::new(1, OriginModel::RateLimited { kbps: rate }, 1.0);
        let mut ingested = 0.0;
        let mut dequeued = 0.0;
        for (slot, take) in takes.iter().enumerate() {
            rx.ingest_slot(slot as u64);
            ingested += rate;
            let (got, _) = rx.dequeue_kb(0, *take);
            prop_assert!(got <= *take + 1e-9);
            dequeued += got;
            prop_assert!((rx.backlog_kb(0) - (ingested - dequeued)).abs() < 1e-6);
        }
    }
}
