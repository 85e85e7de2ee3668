//! Property-based tests for the media substrate.

use jmso_media::{jain_index, Cdf, ClientPlayback, VideoSession};
use proptest::prelude::*;

/// Buffer invariants under a delivery pattern: occupancy never negative,
/// per-slot rebuffering in [0, τ], playback never exceeds Mᵢ, and watched
/// + rebuffer time per active slot equals τ (until the final one).
fn buffer_invariants_hold(tau: f64, total_s: f64, deliveries: &[f64]) {
    let rate = 100.0;
    let mut c = ClientPlayback::new(total_s, tau);
    for kb in deliveries {
        let remaining_before = total_s - c.played_s();
        let o = c.begin_slot();
        assert!(o.occupancy_s >= 0.0);
        assert!(o.rebuffer_s >= 0.0 && o.rebuffer_s <= tau + 1e-12);
        assert!(o.watched_s >= 0.0 && o.watched_s <= tau + 1e-12);
        if o.active {
            // Active slot: watch + stall covers exactly the playback
            // still needed this slot (τ, or less at the video end).
            let needed = tau.min(remaining_before);
            assert!((o.watched_s + o.rebuffer_s - needed).abs() < 1e-9);
        }
        assert!(c.played_s() <= total_s + 1e-9);
        c.deliver(*kb, rate);
    }
}

/// A recorded failure of `buffer_invariants`.
#[test]
fn buffer_invariants_tau_2_18_total_14_5() {
    let deliveries = [
        51.80148116170166,
        238.14828939930695,
        385.84513301288183,
        55.28309771666274,
        124.23449879086215,
        22.155155968617553,
        164.60064429364496,
        195.52661339848302,
        0.0,
        0.0,
    ];
    buffer_invariants_hold(2.176594114032993, 14.49058479305564, &deliveries);
}

proptest! {
    /// [`buffer_invariants_hold`] under arbitrary delivery patterns.
    #[test]
    fn buffer_invariants(
        tau in 0.25f64..2.5,
        total_s in 5.0f64..50.0,
        deliveries in proptest::collection::vec(0.0f64..400.0, 1..120),
    ) {
        buffer_invariants_hold(tau, total_s, &deliveries);
    }

    /// Playback-time conservation: total watched seconds never exceed the
    /// playback time of delivered data.
    #[test]
    fn watched_bounded_by_delivered(
        deliveries in proptest::collection::vec(0.0f64..300.0, 1..100),
    ) {
        let rate = 150.0;
        let mut c = ClientPlayback::new(1e6, 1.0);
        let mut delivered_s = 0.0;
        let mut watched_s = 0.0;
        for kb in &deliveries {
            let o = c.begin_slot();
            watched_s += o.watched_s;
            prop_assert!(watched_s <= delivered_s + 1e-9,
                "watched {watched_s} > delivered {delivered_s}");
            c.deliver(*kb, rate);
            delivered_s += kb / rate;
        }
    }

    /// Generous steady delivery ⇒ after startup, no further stalls.
    #[test]
    fn ample_supply_never_stalls_after_startup(tau in 0.5f64..2.0, rate in 100.0f64..600.0) {
        let mut c = ClientPlayback::new(1e6, tau);
        let mut stalls_after_start = 0.0;
        for n in 0..200u64 {
            let o = c.begin_slot();
            if n > 1 {
                stalls_after_start += o.rebuffer_s;
            }
            // Deliver exactly 2 slots' worth of playback every slot.
            c.deliver(2.0 * tau * rate, rate);
        }
        prop_assert_eq!(stalls_after_start, 0.0);
    }

    /// Session byte conservation: received never exceeds total; deliver
    /// returns exactly what was accepted.
    #[test]
    fn session_conservation(
        total in 100.0f64..10_000.0,
        chunks in proptest::collection::vec(0.0f64..800.0, 1..60),
    ) {
        let mut s = VideoSession::cbr(total, 400.0);
        let mut accepted_sum = 0.0;
        for kb in &chunks {
            accepted_sum += s.deliver(*kb);
        }
        prop_assert!((s.received_kb() - accepted_sum).abs() < 1e-9);
        prop_assert!(s.received_kb() <= total + 1e-9);
        prop_assert!((s.received_kb() + s.remaining_kb() - total).abs() < 1e-6);
    }

    /// Jain index always lies in [1/n, 1] for non-negative non-zero input.
    #[test]
    fn jain_bounds(values in proptest::collection::vec(0.0f64..100.0, 1..50)) {
        let idx = jain_index(&values);
        let n = values.len() as f64;
        prop_assert!(idx <= 1.0 + 1e-12);
        if values.iter().any(|v| *v > 0.0) {
            prop_assert!(idx >= 1.0 / n - 1e-12);
        }
    }

    /// CDF: fraction_at_or_below is monotone and hits 1 at the max sample.
    #[test]
    fn cdf_monotone(samples in proptest::collection::vec(-1e3f64..1e3, 1..200)) {
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let c = Cdf::new(samples);
        let mut prev = 0.0;
        for i in -10..=10 {
            let x = i as f64 * 100.0;
            let f = c.fraction_at_or_below(x);
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        prop_assert!((c.fraction_at_or_below(max) - 1.0).abs() < 1e-12);
    }

    /// Quantiles are order-consistent.
    #[test]
    fn cdf_quantiles_ordered(samples in proptest::collection::vec(-50.0f64..50.0, 2..100)) {
        let c = Cdf::new(samples);
        prop_assert!(c.quantile(0.25) <= c.quantile(0.5));
        prop_assert!(c.quantile(0.5) <= c.quantile(0.75));
        prop_assert!(c.quantile(0.75) <= c.quantile(1.0));
    }
}
