//! Criterion-free hot-path smoke bench.
//!
//! Runs one paper-default 40-user cell (10 000 slots, τ = 1 s, S = 20 MB/s)
//! per scheduler and prints one JSON line per row:
//!
//! ```text
//! {"sched": "EMA(V=1)", "slots_per_sec": 123456.7}
//! ```
//!
//! The output is recorded as `BENCH_PR10.json` at the repo root so slot-loop
//! regressions show up as a diff, without the Criterion machinery (or its
//! multi-minute runtime); `scripts/bench-regress.sh` diffs a fresh run
//! against that baseline. Timings cover the full `Scenario::run` hot path —
//! collector snapshot, scheduler allocate, transmitter delivery, receiver
//! playback — which is zero-allocation per slot after warm-up.
//!
//! Every scenario row reports the **best of ten** runs (criterion-style
//! minimum, not mean; `HOTPATH_REPS` overrides, `HOTPATH_VERBOSE` prints
//! every rep). A single-run row is a lottery on this box: the first run
//! in a fresh process is fast, the second is reliably the *slowest*
//! (allocator and branch-predictor state from run one is the worst case),
//! later runs wander within a ±8 % noise band, and the wandering takes
//! ~5–10 reps to visit its floor. The minimum is the stable,
//! reproducible statistic and is what the regression gate compares.
//!
//! Beyond the per-scheduler paper cells, three rows target the active-set
//! engine specifically: a **late-phase** cell whose 8 MB–3.2 GB video mix
//! retires ~80 % of its 40 sessions in the first half of the horizon
//! (timed through both `run` and the all-users `run_reference` loop, so
//! the retirement speedup is visible as a ratio in one file), and a
//! four-cell multicell run exercising the membership-list context build.
//! A **traced** Default row runs the same cell under a capturing
//! `TraceRecorder`, so the telemetry subsystem's overhead is visible as a
//! ratio against the plain Default row.

use jmso_bench::common::paper_cell;
use jmso_gateway::{SlotContext, UserSnapshot};
use jmso_radio::rrc::RrcState;
use jmso_radio::Dbm;
use jmso_sched::ema::{slot_users, solve_dp_with, DpScratch, SlotUser};
use jmso_sched::ema_fast::{solve_greedy_with, GreedyScratch};
use jmso_sched::lyapunov::VirtualQueues;
use jmso_sched::{CrossLayerModels, EmaCost};
use jmso_sim::{
    AbrPolicy, AbrSpec, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec, FaultEvent,
    FaultSpec, MultiCellScenario, Scenario, SchedulerSpec, SessionLength, TraceRecorder,
};
use std::hint::black_box;
use std::time::Instant;

/// The paper cell with a bimodal-ish workload: sizes uniform in
/// 8 MB–3.2 GB at 300–600 KB/s, so most sessions finish mid-run while
/// the largest videos keep the cell busy to the end.
fn late_phase_cell() -> Scenario {
    let mut s = paper_cell(40, 375.0).with_seed(42);
    s.workload.size_range_kb = (8_000.0, 3_200_000.0);
    s
}

/// Two 40-user participant sets for the solver micro rows, identical but
/// for user 0's queue value, so no call repeats the previous input.
fn micro_parts() -> (Vec<SlotUser>, Vec<SlotUser>) {
    let snaps: Vec<UserSnapshot> = (0..40)
        .map(|id| {
            let phase = id as f64 / 40.0;
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
        .collect();
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
        // Mixed pressure: some users starved (positive PC), some surplus.
        queues.update(i, 1.0, (i % 5) as f64 * 0.6);
    }
    let parts_a = slot_users(&cost, &ctx, &queues);
    queues.update(0, 0.5, 0.0);
    let parts_b = slot_users(&cost, &ctx, &queues);
    (parts_a, parts_b)
}

/// Row filter: `hotpath <substring>` runs only the rows whose label
/// contains the substring (no argument runs everything). This is the
/// profiling entry point `scripts/profile.sh` uses to pin one row under
/// the profiler without paying for the rest of the suite.
fn row_enabled(label: &str) -> bool {
    match std::env::args().nth(1) {
        Some(f) => label.contains(&f),
        None => true,
    }
}

fn report(label: &str, slots_run: u64, elapsed_s: f64) {
    let slots_per_sec = (slots_run as f64 / elapsed_s * 10.0).round() / 10.0;
    println!(
        "{{\"sched\": {}, \"slots_per_sec\": {slots_per_sec}}}",
        serde_json::to_string(label).expect("label serializes"),
    );
}

/// Run `body` `HOTPATH_REPS` times (default 10) and report the fastest
/// (see module docs for why the minimum, not a single run, is the right
/// statistic on this host).
fn report_best_of(label: &str, body: impl FnMut() -> u64) {
    report_best_of_default(label, 10, body);
}

/// [`report_best_of`] with a row-specific default rep count
/// (`HOTPATH_REPS` still overrides) — the 100 000-user large-live rows run
/// seconds per rep, so ten of them would dominate the whole bench.
fn report_best_of_default(label: &str, default_reps: usize, mut body: impl FnMut() -> u64) {
    if !row_enabled(label) {
        return;
    }
    let reps: usize = std::env::var("HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_reps);
    let mut slots_run = 0;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        slots_run = body();
        let rep = start.elapsed().as_secs_f64();
        if std::env::var("HOTPATH_VERBOSE").is_ok() {
            eprintln!("  {label}: rep {:.1} slots/s", slots_run as f64 / rep);
        }
        best = best.min(rep);
    }
    report(label, slots_run, best);
}

fn main() {
    let specs = [
        SchedulerSpec::Default,
        SchedulerSpec::RtmaUnbounded,
        SchedulerSpec::rtma(900.0),
        SchedulerSpec::ema_dp(1.0),
        SchedulerSpec::ema_fast(1.0),
        SchedulerSpec::throttling_default(),
        SchedulerSpec::onoff_default(),
        SchedulerSpec::salsa_default(),
        SchedulerSpec::estreamer_default(),
        SchedulerSpec::RoundRobin,
        SchedulerSpec::pf_default(),
    ];
    for spec in specs {
        let scenario = paper_cell(40, 375.0)
            .with_seed(42)
            .with_scheduler(spec.clone());
        // The DP row runs ~10× slower than the rest, which makes its
        // best-of-N the most noise-prone statistic in the suite (the
        // BENCH_PR8 snapshot recorded it 32% low during a host-wide slow
        // period — see DESIGN.md §7); double its reps so one quiet
        // window is enough to land on the true floor.
        let reps = if spec.label().starts_with("EMA(") {
            20
        } else {
            10
        };
        report_best_of_default(&spec.label(), reps, || {
            scenario.run().expect("hotpath run").slots_run
        });
    }

    let late = late_phase_cell();
    report_best_of("late-phase Default", || {
        late.run().expect("late-phase run").slots_run
    });
    report_best_of("late-phase Default (reference)", || {
        late.run_reference()
            .expect("late-phase reference run")
            .slots_run
    });

    // EMA on the same retiring workload: the late phase is where the
    // active-set engine shrinks P, so these rows show how the greedy's
    // pricing pass and take-all path scale as the cell drains (versus the
    // full-cell rows above). Both specs build the same solver.
    for spec in [SchedulerSpec::ema_dp(1.0), SchedulerSpec::ema_fast(1.0)] {
        let late = late_phase_cell().with_scheduler(spec.clone());
        report_best_of(&format!("late-phase {}", spec.label()), || {
            late.run().expect("late-phase EMA run").slots_run
        });
    }

    // Solver micro rows: one representative contended slot (P = 40,
    // C = 400, mixed starved/surplus queues), solved repeatedly over two
    // inputs differing in one queue value. The first row times the
    // paper's Algorithm 2 table, which is the test oracle and not a
    // production path; the greedy row prices the take-all fast path. The
    // reported number is solver calls per second.
    if row_enabled("micro") {
        let (parts_a, parts_b) = micro_parts();
        let mut scratch = DpScratch::default();
        let iters = 400u64;
        let start = Instant::now();
        for i in 0..iters {
            let parts = if i % 2 == 0 { &parts_a } else { &parts_b };
            black_box(solve_dp_with(black_box(parts), 400, &mut scratch));
        }
        report(
            "micro Algorithm 2 reference (P=40,C=400)",
            iters,
            start.elapsed().as_secs_f64(),
        );

        let mut greedy = GreedyScratch::default();
        let iters = 2_000_000u64;
        let start = Instant::now();
        for i in 0..iters {
            let parts = if i % 2 == 0 { &parts_a } else { &parts_b };
            black_box(solve_greedy_with(black_box(parts), 400, &mut greedy));
        }
        report(
            "micro solve_greedy (P=40,C=400)",
            iters,
            start.elapsed().as_secs_f64(),
        );
    }

    // Telemetry overhead row: the same Default cell with a capturing
    // TraceRecorder attached (every slot). The per-scheduler rows above
    // all run the NullRecorder path, so the traced/untraced ratio bounds
    // the recorder's cost on the hot loop.
    let scenario = paper_cell(40, 375.0).with_seed(42);
    report_best_of("Default (traced)", || {
        let mut rec = TraceRecorder::new();
        scenario.run_with(&mut rec).expect("traced run").slots_run
    });

    // Fault-injection overhead row: the same Default cell with an active
    // declared fault plan (deep fade, link outage, a capacity dip, one
    // departure, one late arrival). The rows above all run without a
    // plan — one branch per hook point — so the faulted / plain ratio
    // bounds what consulting a plan costs the hot loop.
    let mut scenario = paper_cell(40, 375.0).with_seed(42);
    scenario.faults = FaultSpec::Declared {
        events: vec![
            FaultEvent::DeepFade {
                user: 3,
                from_slot: 1_000,
                until_slot: 3_000,
                depth_db: 20.0,
            },
            FaultEvent::LinkOutage {
                user: 7,
                from_slot: 2_000,
                until_slot: 4_000,
            },
            FaultEvent::CapDegradation {
                from_slot: 5_000,
                until_slot: 7_000,
                factor: 0.6,
            },
            FaultEvent::Departure {
                user: 11,
                slot: 6_000,
            },
            FaultEvent::LateArrival {
                user: 5,
                delay_slots: 500,
            },
        ],
    };
    report_best_of("Default + faults", || {
        scenario.run().expect("faulted run").slots_run
    });

    // ABR overhead row: the same Default cell with a three-rung ladder
    // under the buffer-based policy. The per-scheduler rows all run the
    // constant-bitrate path, so the ABR / plain ratio bounds what chunk
    // accounting, rung decisions and session rescaling add per slot.
    let mut scenario = paper_cell(40, 375.0).with_seed(42);
    scenario.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        chunk_slots: 4,
        policy: AbrPolicy::BufferBased {
            low_s: 4.0,
            high_s: 12.0,
        },
        initial_rung: None,
    });
    report_best_of("Default + ABR", || {
        scenario.run().expect("abr run").slots_run
    });

    // Admission overhead row: a 1 000-user open-system cell whose Poisson
    // arrivals all pass through the feasibility controller. Prices the
    // end-of-slot admission tick on the incrementally-maintained
    // `n_active`/`rate_sum` aggregates (O(1) per candidate), plus the
    // arrival-gated live lists that skip not-yet-arrived users entirely.
    let mut scenario = paper_cell(1_000, 375.0).with_seed(42);
    scenario.slots = 2_000;
    scenario.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 1.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 200.0 }),
    };
    scenario.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    report_best_of_default("open-system + admission", 3, || {
        scenario.run().expect("admission run").slots_run
    });

    let mc = MultiCellScenario {
        base: paper_cell(40, 375.0).with_seed(42),
        n_cells: 4,
        handover_prob: 0.05,
    };
    report_best_of("multicell Default x4", || {
        mc.run().expect("multicell run").result.slots_run
    });

    // Sweep-runner row: a 32-cell Default grid on 8 worker-pool threads.
    // Slots aggregate over every cell, so this prices the persistent
    // pool's dispatch plus the chunked-cursor queue, not just one run.
    let grid: Vec<Scenario> = (0..32)
        .map(|i| {
            let mut s = paper_cell(10, 375.0).with_seed(42 + i as u64);
            s.slots = 2_000;
            s
        })
        .collect();
    report_best_of("sweep 8-thread", || {
        let results = jmso_sim::run_scenarios(&grid, 8).expect("sweep run");
        results.iter().map(|r| r.slots_run).sum()
    });

    // Large-live row: a closed 100 000-user Default cell with 500 KB/s
    // of BS capacity per user, so every user is in flight and granted
    // for all 120 slots — the workload where the per-user phases (A:
    // radio and playback, C: accounting) are nearly the whole slot and
    // set-up is a few percent of the rep. The label keeps the width it
    // was first recorded at, so the committed baseline row still pairs.
    let mut large = paper_cell(100_000, 375.0).with_seed(42);
    large.slots = 120;
    large.capacity = CapacitySpec::Constant {
        kbps: 500.0 * large.n_users as f64,
    };
    report_best_of_default("large-live 100k (shards=1)", 3, || {
        large.run().expect("large-live run").slots_run
    });
}
