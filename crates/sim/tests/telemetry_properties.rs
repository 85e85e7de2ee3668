//! Property tests for the telemetry subsystem: the trace is a *ledger* of
//! the run, so its entries must reconcile exactly with the end-of-run
//! aggregates in [`jmso_sim::SimResult`], survive downsampling, and be
//! identical no matter which engine loop (active-set `run` or all-users
//! `run_reference`) produced them. (The whole-run differential of EMA's
//! greedy against the paper's Algorithm 2 table is in `engine.rs`'s
//! tests, which can swap a lane's scheduler.)

use jmso_sim::{
    ArrivalSpec, CapacitySpec, Scenario, SchedulerSpec, SignalSpec, SlotRecord, TraceRecorder,
    WorkloadSpec,
};
use proptest::prelude::*;
use serde::{JsonWriter, Serialize};

fn arb_spec() -> impl Strategy<Value = SchedulerSpec> {
    prop_oneof![
        Just(SchedulerSpec::Default),
        Just(SchedulerSpec::RtmaUnbounded),
        (700.0f64..1300.0).prop_map(SchedulerSpec::rtma),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema),
        (0.05f64..5.0).prop_map(SchedulerSpec::ema_amortized),
        Just(SchedulerSpec::RoundRobin),
        Just(SchedulerSpec::pf_default()),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1usize..6,         // users
        50u64..250,        // slots
        500.0f64..8_000.0, // capacity KB/s
        500.0f64..4_000.0, // video size KB
        arb_spec(),
        0u64..1_000,                    // seed
        prop::bool::ANY,                // markov vs sine signal
        prop::bool::ANY,                // VBR vs CBR ladder
        prop::option::of(1.0f64..30.0), // staggered arrivals
    )
        .prop_map(|(n, slots, cap, size, spec, seed, markov, vbr, stagger)| {
            let mut s = Scenario::paper_default(n);
            s.slots = slots;
            s.capacity = CapacitySpec::Constant { kbps: cap };
            s.workload = WorkloadSpec {
                size_range_kb: (size, size * 1.5),
                rate_range_kbps: (300.0, 600.0),
                vbr_levels: vbr.then(|| vec![0.7, 1.0, 1.4]),
                vbr_segment_slots: 20,
            };
            if markov {
                s.signal = SignalSpec::Markov {
                    min_dbm: -110.0,
                    max_dbm: -50.0,
                    levels: 16,
                    move_prob: 0.3,
                };
            }
            s.scheduler = spec;
            s.seed = seed;
            if let Some(mean) = stagger {
                s.arrivals = ArrivalSpec::Staggered {
                    mean_interval_slots: mean,
                };
            }
            s
        })
}

/// Relative float reconciliation: the trace sums per-slot charges in a
/// different association order than the engine's running accumulators.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The four accounting invariants, under arbitrary downsampling:
    ///
    /// 1. per-user trace energy sums to the result's per-user totals;
    /// 2. per-user rebuffering deltas telescope to the result's totals;
    /// 3. every record's allocation fits the Eq. (2) budget it was cut
    ///    from (`Σᵢ φᵢ ≤ cap`);
    /// 4. the record count is exactly `⌈slots_run / every⌉`.
    #[test]
    fn trace_reconciles_with_result(scenario in arb_scenario(), every in 1u64..8) {
        let (result, trace) = scenario.run_traced(every).unwrap();

        prop_assert_eq!(trace.meta.slots, result.slots_run);
        prop_assert_eq!(trace.meta.n_users, scenario.n_users);
        prop_assert_eq!(
            trace.records.len() as u64,
            result.slots_run.div_ceil(every),
            "one record per window, partial window flushed"
        );

        for r in &trace.records {
            prop_assert_eq!(r.alloc.len(), scenario.n_users);
            prop_assert!(r.alloc.iter().sum::<u64>() <= r.cap,
                "slot {}: allocation exceeds BS budget", r.slot);
            prop_assert!(r.q.is_empty() || r.q.len() == scenario.n_users);
            prop_assert!(r.e_mj.iter().all(|&e| e >= 0.0));
            prop_assert!(r.reb_s.iter().all(|&d| d >= -1e-12));
        }

        let e_by_user = trace.energy_by_user_mj();
        let reb_by_user = trace.rebuffer_by_user_s();
        for (i, u) in result.per_user.iter().enumerate() {
            prop_assert!(close(e_by_user[i], u.energy.total().value()),
                "user {i}: trace energy {} mJ vs result {} mJ",
                e_by_user[i], u.energy.total().value());
            prop_assert!(close(reb_by_user[i], u.rebuffer_s),
                "user {i}: trace rebuffer {} s vs result {} s",
                reb_by_user[i], u.rebuffer_s);
        }

        // The summary's run totals and cumulative curves agree too.
        let t = result.telemetry.as_ref().unwrap();
        prop_assert_eq!(t.records, trace.records.len() as u64);
        prop_assert!(close(t.energy_mj_total, result.total_energy_kj() * 1e6));
        prop_assert!(close(t.rebuffer_s_total, result.total_rebuffer_s()));
        prop_assert_eq!(t.cum_energy_mj.len(), trace.records.len());
        prop_assert!(close(*t.cum_energy_mj.last().unwrap(), t.energy_mj_total));
        prop_assert!(close(*t.cum_rebuffer_s.last().unwrap(), t.rebuffer_s_total));
        prop_assert!(t.cum_energy_mj.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        prop_assert!(t.cum_rebuffer_s.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        // Dwell covers every post-arrival user-slot exactly once; with
        // immediate arrivals that's the full n·slots·τ rectangle.
        let dwell = t.dwell_dch_s + t.dwell_fach_s + t.dwell_idle_s;
        prop_assert!(close(
            dwell,
            scenario.n_users as f64 * result.slots_run as f64 * scenario.tau
        ));
    }

    /// The active-set hot path and the all-users reference loop emit
    /// bit-identical traces — per-slot allocations, queue values, energy,
    /// rebuffering deltas and RRC transitions, not just end aggregates —
    /// including under collector staleness and noise.
    #[test]
    fn run_and_reference_traces_identical(
        scenario in arb_scenario(),
        staleness in 0u64..5,
        noisy in prop::bool::ANY,
    ) {
        let mut s = scenario;
        s.collector.staleness_slots = staleness;
        if noisy {
            s.collector.signal_noise_std_db = 3.0;
        }
        let mut rec_a = TraceRecorder::new();
        let mut rec_b = TraceRecorder::new();
        let ra = s.run_with(&mut rec_a).unwrap();
        let rb = s.run_reference_with(&mut rec_b).unwrap();
        prop_assert_eq!(ra.per_user, rb.per_user);
        prop_assert_eq!(rec_a.into_trace("x"), rec_b.into_trace("x"));
    }

    /// Downsampling is lossless for the accounting fields: window sums at
    /// `every = k` add up to the same per-user totals as the full trace,
    /// and the run totals are bit-identical (they bypass the windows).
    /// `to_jsonl` appends every record into one buffer; the daemon prints
    /// each record into its own line. The two routes must write the same
    /// bytes, or a live trace stops matching its batch twin.
    #[test]
    fn jsonl_equals_its_records_printed_one_by_one(
        scenario in arb_scenario(),
        every in 1u64..8,
    ) {
        let (_result, trace) = scenario.run_traced(every).unwrap();
        let mut lines = vec![serde_json::to_string(&trace.meta).expect("meta")];
        for record in &trace.records {
            lines.push(serde_json::to_string(record).expect("record"));
        }
        prop_assert_eq!(trace.to_jsonl(), lines.join("\n") + "\n");
    }

    #[test]
    fn downsampling_preserves_totals(scenario in arb_scenario(), every in 2u64..16) {
        let (full_r, full) = scenario.run_traced(1).unwrap();
        let (down_r, down) = scenario.run_traced(every).unwrap();
        let tf = full_r.telemetry.as_ref().unwrap();
        let td = down_r.telemetry.as_ref().unwrap();
        prop_assert_eq!(tf.energy_mj_total, td.energy_mj_total);
        prop_assert_eq!(tf.rebuffer_s_total, td.rebuffer_s_total);
        prop_assert_eq!(tf.rrc_transitions, td.rrc_transitions);
        prop_assert_eq!(tf.dwell_dch_s, td.dwell_dch_s);
        for i in 0..scenario.n_users {
            prop_assert!(close(full.energy_by_user_mj()[i], down.energy_by_user_mj()[i]));
            prop_assert!(close(full.rebuffer_by_user_s()[i], down.rebuffer_by_user_s()[i]));
        }
        // Transition lists window-concatenate to the full sequence.
        let full_rrc: Vec<_> = full.records.iter().flat_map(|r| r.rrc.clone()).collect();
        let down_rrc: Vec<_> = down.records.iter().flat_map(|r| r.rrc.clone()).collect();
        prop_assert_eq!(full_rrc, down_rrc);
    }
}

/// A record as a 1 000-user pool with a few dozen sessions live emits
/// it: per-user arrays that are nearly all zeros, the first and the last
/// user live more often than chance.
fn arb_sparse_record() -> impl Strategy<Value = SlotRecord> {
    const POOL: usize = 1_000;
    let live_user = (
        prop_oneof![Just(0), Just(POOL - 1), 0..POOL],
        0u64..500,
        0.0f64..50.0,
        prop_oneof![Just(0.0), Just(-0.0), 0.0f64..2.0],
        0.0f64..1e4,
    );
    (
        prop::collection::vec(live_user, 0..40),
        0u64..100_000,
        prop::bool::ANY, // scheduler exposes queues
    )
        .prop_map(|(live, slot, queues)| {
            let mut r = SlotRecord {
                slot,
                cap: 2_500,
                alloc: vec![0; POOL],
                e_mj: vec![0.0; POOL],
                reb_s: vec![0.0; POOL],
                q: vec![0.0; if queues { POOL } else { 0 }],
                rrc: vec![],
                deg: vec![],
                faults: vec![],
                live: Some(live.len() as u64),
                abr: vec![],
                adm: vec![],
            };
            for (user, alloc, e_mj, reb_s, q) in live {
                r.alloc[user] = alloc;
                r.e_mj[user] = e_mj;
                r.reb_s[user] = reb_s;
                if queues {
                    r.q[user] = q;
                }
            }
            r
        })
}

/// `r`'s line with every array printed the long way round: one
/// `element()` and one scalar `serialize` per number.
fn printed_element_by_element(r: &SlotRecord) -> String {
    fn array<T: Serialize>(w: &mut JsonWriter, key: &str, items: &[T]) {
        w.key(key);
        w.begin_seq();
        for item in items {
            w.element();
            item.serialize(w);
        }
        w.end_seq();
    }
    let mut w = JsonWriter::compact_into(String::new());
    w.begin_map();
    w.key("slot");
    r.slot.serialize(&mut w);
    w.key("cap");
    r.cap.serialize(&mut w);
    array(&mut w, "alloc", &r.alloc);
    array(&mut w, "e_mj", &r.e_mj);
    array(&mut w, "reb_s", &r.reb_s);
    array(&mut w, "q", &r.q);
    array(&mut w, "rrc", &r.rrc);
    w.key("live");
    r.live.serialize(&mut w);
    w.end_map();
    w.into_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The writer copies runs of zeros in a number array from a strip
    /// instead of printing them; the record line must not be able to
    /// tell.
    #[test]
    fn sparse_record_line_equals_its_fields_printed_element_by_element(
        record in arb_sparse_record(),
    ) {
        let line = serde_json::to_string(&record).expect("record");
        prop_assert!(line == printed_element_by_element(&record));
        let back: SlotRecord = serde_json::from_str(&line).expect("parse");
        prop_assert!(serde_json::to_string(&back).expect("reprint") == line);
    }
}

/// Two inputs the 10× case count of `run_and_reference_traces_identical`
/// found: a user whose playback completes with its radio already idle
/// retires in that same slot, while its row still says `active`. The
/// frozen row must say what the reference loop's fresh one says —
/// inactive — or every policy that walks all rows (EMA's `PCᵢ += τ`)
/// keeps charging a user who has left. The second input reaches the same
/// row through a noisy collector, which rebuilds it from ground truth
/// every slot.
#[test]
fn a_retired_users_row_is_inactive_like_the_reference_loops() {
    let scenario = |n, slots, kbps, v, seed, mean_interval_slots| {
        let mut s = Scenario::paper_default(n);
        s.slots = slots;
        s.capacity = CapacitySpec::Constant { kbps };
        s.signal = SignalSpec::Markov {
            min_dbm: -110.0,
            max_dbm: -50.0,
            levels: 16,
            move_prob: 0.3,
        };
        s.workload = WorkloadSpec {
            size_range_kb: (2328.790151089209, 3493.1852266338133),
            rate_range_kbps: (300.0, 600.0),
            vbr_levels: Some(vec![0.7, 1.0, 1.4]),
            vbr_segment_slots: 20,
        };
        s.scheduler = SchedulerSpec::ema(v);
        s.seed = seed;
        s.arrivals = ArrivalSpec::Staggered {
            mean_interval_slots,
        };
        s
    };
    let pass_through = scenario(
        4,
        81,
        6186.587948048361,
        0.058989156427857355,
        289,
        19.114106717490174,
    );
    let mut noisy = scenario(
        2,
        241,
        2476.936120287267,
        1.4989332419605756,
        447,
        19.326976046877363,
    );
    noisy.collector.staleness_slots = 1;
    noisy.collector.signal_noise_std_db = 3.0;
    for s in [pass_through, noisy] {
        let (mut rec_a, mut rec_b) = (TraceRecorder::new(), TraceRecorder::new());
        let ra = s.run_with(&mut rec_a).unwrap();
        let rb = s.run_reference_with(&mut rec_b).unwrap();
        assert_eq!(ra.per_user, rb.per_user);
        let (a, b) = (rec_a.into_trace("x"), rec_b.into_trace("x"));
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra, rb, "slot {}", ra.slot);
        }
        assert_eq!(a, b);
    }
}
