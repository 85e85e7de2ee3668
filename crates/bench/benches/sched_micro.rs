//! Per-slot allocation cost of every policy as the cell fills.
//!
//! Measures one `allocate()` call on a representative congested slot for
//! N ∈ {10, 20, 40, 80} users — the quantity that bounds how many cells a
//! single gateway core can schedule in real time (slots are 1 s).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use jmso_gateway::{Scheduler, SlotContext, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::ema::{slot_users, solve_dp_with, DpScratch, SlotUser};
use jmso_sched::ema_fast::{solve_greedy_with, GreedyScratch};
use jmso_sched::lyapunov::VirtualQueues;
use jmso_sched::{
    CrossLayerModels, DefaultMax, EStreamer, Ema, EmaCost, OnOff, Rtma, Salsa, Throttling,
};
use std::hint::black_box;

fn users(n: usize) -> Vec<UserSnapshot> {
    (0..n)
        .map(|id| {
            // A deterministic spread of signals/rates/buffers resembling a
            // mid-run slot of the paper scenario.
            let phase = id as f64 / n.max(1) as f64;
            UserSnapshot {
                id,
                signal: Dbm(-110.0 + 60.0 * phase),
                rate_kbps: 300.0 + 300.0 * phase,
                buffer_s: 30.0 * phase,
                remaining_kb: 1e8,
                active: true,
                link_cap_units: ((65.8 * (-110.0 + 60.0 * phase) + 7567.0) / 50.0).max(0.0) as u64,
                idle_s: 3.0 * phase,
                rrc_state: RrcState::Dch,
            }
        })
        .collect()
}

fn bench_policies(c: &mut Criterion) {
    let models = CrossLayerModels::paper();
    let mut group = c.benchmark_group("allocate_per_slot");
    for &n in &[10usize, 20, 40, 80] {
        let snaps = users(n);
        let ctx = SlotContext {
            slot: 500,
            tau: 1.0,
            delta_kb: 50.0,
            bs_cap_units: 400,
            users: &snaps,
            soa: None,
        };
        let mut policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(DefaultMax::new()),
            Box::new(Rtma::unbounded()),
            Box::new(Ema::new(0.3, models)),
            Box::new(Throttling::new(1.25)),
            Box::new(OnOff::new(10.0, 40.0)),
            Box::new(Salsa::new(1.0, 3.0, 0.2)),
            Box::new(EStreamer::new(5.0, 60.0)),
        ];
        for pol in policies.iter_mut() {
            group.bench_with_input(BenchmarkId::new(pol.name().to_string(), n), &n, |b, _| {
                b.iter(|| black_box(pol.allocate(black_box(&ctx))))
            });
        }
    }
    group.finish();
}

/// Two participant sets for one contended slot (P = 40, C = 400, mixed
/// starved/surplus queues), identical but for user 0's queue value, so
/// alternating them keeps either solver from seeing the same input twice
/// in a row.
fn micro_parts() -> (Vec<SlotUser>, Vec<SlotUser>) {
    let snaps = users(40);
    let ctx = SlotContext {
        slot: 500,
        tau: 1.0,
        delta_kb: 50.0,
        bs_cap_units: 400,
        users: &snaps,
        soa: None,
    };
    let models = CrossLayerModels::paper();
    let cost = EmaCost::new(1.0, &models, &ctx);
    let mut queues = VirtualQueues::new(40);
    for i in 0..40 {
        queues.update(i, 1.0, (i % 5) as f64 * 0.6);
    }
    let parts_a = slot_users(&cost, &ctx, &queues);
    queues.update(0, 0.5, 0.0);
    let parts_b = slot_users(&cost, &ctx, &queues);
    (parts_a, parts_b)
}

/// The EMA per-slot solvers in isolation: the production greedy and the
/// paper's Algorithm 2 table it is pinned against.
fn bench_solvers(c: &mut Criterion) {
    let (parts_a, parts_b) = micro_parts();
    let mut group = c.benchmark_group("solver_micro");

    let mut scratch = DpScratch::default();
    let mut flip = false;
    group.bench_function("Algorithm 2 reference (P=40,C=400)", |b| {
        b.iter(|| {
            flip = !flip;
            let parts = if flip { &parts_a } else { &parts_b };
            black_box(solve_dp_with(black_box(parts), 400, &mut scratch).len())
        })
    });

    let mut greedy = GreedyScratch::default();
    group.bench_function("solve_greedy (P=40,C=400)", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let parts = if flip { &parts_a } else { &parts_b };
            black_box(solve_greedy_with(black_box(parts), 400, &mut greedy).len())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_policies, bench_solvers);
criterion_main!(benches);
