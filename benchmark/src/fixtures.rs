//! Fixtures: public entry points of single layers, timed directly.
//!
//! Each fixture runs in the traced pass of the one workload whose
//! end-to-end metrics it should explain (its "home", see README); on the
//! other workloads the metric reads 0.

use crate::metrics::{Outcome, Sample};
use crate::proc::nproc;
use crate::stats::median;
use jmso_gateway::collector::RawUserState;
use jmso_gateway::{
    declared_rate_from_request, parse_command, AdmissionContext, AdmissionController,
    AdmissionSpec, Allocation, CollectorSpec, DataReceiver, DataTransmitter, GwStatus,
    InformationCollector, OriginModel, SlotContext, SvcState, UnitParams, UserSnapshot,
};
use jmso_gateway_svc::{handle_connection, Command, CommandBus, FanOut};
use jmso_media::{generate_sessions, ClientPlayback, WorkloadSpec};
use jmso_radio::rrc::RrcState;
use jmso_radio::{Dbm, LinearRssiThroughput, SignalModel, SignalSpec};
use jmso_sched::ema::{slot_users, solve_dp_with, DpScratch};
use jmso_sched::lyapunov::VirtualQueues;
use jmso_sched::{CrossLayerModels, EmaCost, SchedulerSpec};
use jmso_sim::{
    EngineCheckpoint, MultiCellScenario, NullRecorder, RunOutcome, Scenario, SimError,
    SlotRecorder, SpinBarrier, TraceRecorder, WorkerPool,
};
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// The paper's closed cell (§VI): `n` users, 10 000 one-second slots,
/// S = 20 MB/s, videos of mean 375 MB at 300–600 KB/s.
pub fn paper_cell(n: usize, seed: u64) -> Scenario {
    let mut s = Scenario::paper_default(n).with_seed(seed);
    s.workload = WorkloadSpec::paper_default().with_mean_size_mb(375.0);
    s
}

/// Wall-clock time a fixture spends per metric.
const FIXTURE_BUDGET: Duration = Duration::from_millis(60);

/// Median time per operation, ns. `f` does `ops` operations per call and
/// returns how long they took; it is called until the budget is used, at
/// least five times after one untimed call.
fn ns_per_op(ops: u64, mut f: impl FnMut() -> Duration) -> Sample {
    f();
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 5 || (t0.elapsed() < FIXTURE_BUDGET && samples.len() < 10_000) {
        samples.push(f().as_nanos() as f64 / ops as f64);
    }
    Sample {
        value: median(&samples),
        n: samples.len(),
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed(), v)
}

fn set(out: &mut Outcome, name: &str, s: Sample) {
    out.set(name, s.value, s.n);
}

/// Median seconds of `f` over `reps` calls.
fn median_s<E>(reps: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<Sample, E> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(Sample {
        value: median(&samples),
        n: reps,
    })
}

fn snapshots(n: usize) -> Vec<UserSnapshot> {
    (0..n)
        .map(|id| {
            let phase = id as f64 / n as f64;
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

/// Home `cell-default`: the `radio`, `media` and `gateway` calls the
/// serial slot loop makes per user, and the loops no workload runs.
pub fn cell_default(seed: u64, out: &mut Outcome) -> Result<(), SimError> {
    let mut sig = SignalSpec::paper_default().build_kind(0, 40, seed);
    let mut block = [Dbm(0.0); 32];
    let mut slot = 0u64;
    let s = ns_per_op(32 * 64, || {
        timed(|| {
            for _ in 0..64 {
                sig.sample_into(slot, &mut block);
                slot += 32;
                black_box(&block);
            }
        })
        .0
    });
    set(out, "radio.signal.sample_ns", s);

    let thru = LinearRssiThroughput::paper();
    let sigs: Vec<Dbm> = (0..1024)
        .map(|i| Dbm(-110.0 + 60.0 * i as f64 / 1024.0))
        .collect();
    let mut kbps = vec![0.0f64; sigs.len()];
    let s = ns_per_op(sigs.len() as u64, || {
        timed(|| {
            thru.throughput_into(black_box(&sigs), &mut kbps);
            black_box(&kbps);
        })
        .0
    });
    set(out, "radio.kernels.throughput_ns", s);

    let mut playback = ClientPlayback::new(1e12, 1.0);
    let s = ns_per_op(1024, || {
        timed(|| {
            for _ in 0..1024 {
                black_box(playback.begin_slot());
                playback.deliver(450.0, 450.0);
            }
        })
        .0
    });
    set(out, "media.buffer.advance_ns", s);

    let models = CrossLayerModels::paper();
    let n = 1_000;
    let mut collector = InformationCollector::new(
        CollectorSpec::perfect(),
        models.throughput,
        UnitParams::new(50.0),
        1.0,
        n,
        seed,
    );
    let raw: Vec<RawUserState> = snapshots(n)
        .iter()
        .map(|u| RawUserState {
            signal: u.signal,
            rate_kbps: u.rate_kbps,
            buffer_s: u.buffer_s,
            remaining_kb: u.remaining_kb,
            active: u.active,
            idle_s: u.idle_s,
            rrc_state: u.rrc_state,
        })
        .collect();
    let mut snaps = Vec::with_capacity(n);
    let mut slot = 0u64;
    let s = ns_per_op(n as u64, || {
        timed(|| {
            collector.snapshot_into(slot, black_box(&raw), &mut snaps);
            slot += 1;
            black_box(&snaps);
        })
        .0
    });
    set(out, "gateway.collector.snapshot_ns_per_user", s);

    // 40 grants of 10 units fill the paper cell's C = 400.
    let users = snapshots(40);
    let ctx = SlotContext {
        slot: 0,
        tau: 1.0,
        delta_kb: 50.0,
        bs_cap_units: 400,
        users: &users,
        soa: None,
    };
    let alloc = Allocation(vec![10; 40]);
    let mut rx = DataReceiver::new(40, OriginModel::Infinite, 1.0);
    rx.ingest_slot(0);
    let mut tx = DataTransmitter::new();
    let mut deliveries = Vec::with_capacity(40);
    let s = ns_per_op(40 * 16, || {
        timed(|| {
            for _ in 0..16 {
                tx.transmit_into(&ctx, black_box(&alloc), &mut rx, &mut deliveries);
                black_box(&deliveries);
            }
        })
        .0
    });
    set(out, "gateway.transmitter.transmit_ns_per_grant", s);

    // TraceRecorder ÷ NullRecorder on the workload's own cell.
    let cell = paper_cell(40, seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (d, r) = timed(|| cell.run_with(&mut NullRecorder));
        plain.push(r?.slots_run as f64 / d.as_secs_f64());
        let mut rec = TraceRecorder::new();
        let (d, r) = timed(|| cell.run_with(&mut rec));
        traced.push(r?.slots_run as f64 / d.as_secs_f64());
    }
    out.set("sim.trace.ratio", median(&traced) / median(&plain), 5);

    // Four cells of the workload's size with handover, 2 000 slots.
    let mut base = paper_cell(40, seed);
    base.slots = 2_000;
    let mc = MultiCellScenario {
        base,
        n_cells: 4,
        handover_prob: 0.05,
    };
    let mut rates = Vec::new();
    for _ in 0..3 {
        let (d, r) = timed(|| mc.run());
        rates.push(r?.result.slots_run as f64 / d.as_secs_f64());
    }
    out.set("sim.multicell.slots_per_s", median(&rates), 3);

    let grid: Vec<Scenario> = (0..8)
        .map(|i| {
            let mut s = paper_cell(10, seed + i);
            s.slots = 2_000;
            s
        })
        .collect();
    let mut rates = Vec::new();
    for _ in 0..3 {
        let (d, r) = timed(|| jmso_sim::run_scenarios(&grid, nproc().min(2)));
        let user_slots: u64 = r?.iter().map(|r| r.slots_run * 10).sum();
        rates.push(user_slots as f64 / d.as_secs_f64());
    }
    out.set("sim.sweep.user_slots_per_s", median(&rates), 3);
    Ok(())
}

/// Collects the scheduler latency the engine itself reports per slot.
struct SchedLatency(Vec<f64>);

impl SlotRecorder for SchedLatency {
    fn enabled(&self) -> bool {
        true
    }

    fn record_sched_latency_ns(&mut self, ns: u64) {
        self.0.push(ns as f64);
    }
}

/// Home `cell-ema`: each paper scheduler's `allocate_into` at P = 40,
/// C = 400 inside a 2 000-slot closed cell (the engine times the call
/// for any enabled recorder), and the DP solver on cold inputs.
pub fn cell_ema(seed: u64, out: &mut Outcome) -> Result<(), SimError> {
    let specs = [
        ("sched.default.allocate_ns", SchedulerSpec::Default),
        ("sched.rtma.allocate_ns", SchedulerSpec::rtma(900.0)),
        ("sched.ema.allocate_ns", SchedulerSpec::ema_dp(1.0)),
        ("sched.ema_fast.allocate_ns", SchedulerSpec::ema_fast(1.0)),
    ];
    for (name, spec) in specs {
        let mut cell = paper_cell(40, seed).with_scheduler(spec);
        cell.slots = 2_000;
        let mut rec = SchedLatency(Vec::with_capacity(2_000));
        cell.run_with(&mut rec)?;
        out.set(name, median(&rec.0), rec.0.len());
    }

    // One contended slot with mixed starved and surplus queues; two
    // inputs that differ in one queue value alternate, so the solver's
    // warm-start cache never answers.
    let users = snapshots(40);
    let ctx = SlotContext {
        slot: 500,
        tau: 1.0,
        delta_kb: 50.0,
        bs_cap_units: 400,
        users: &users,
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
    let mut scratch = DpScratch::default();
    let s = ns_per_op(64, || {
        timed(|| {
            for i in 0..64 {
                let parts = if i % 2 == 0 { &parts_a } else { &parts_b };
                black_box(solve_dp_with(black_box(parts), 400, &mut scratch));
            }
        })
        .0
    });
    set(out, "sched.ema.solve_dp_cold_ns", s);
    Ok(())
}

/// Home `open-sharded`: the parts of set-up, the admission ruling and
/// the pool barrier. `scenario` is the workload's own.
pub fn open_sharded(scenario: &Scenario, out: &mut Outcome) -> Result<(), SimError> {
    let (n, seed) = (scenario.n_users, scenario.seed);
    let plan = median_s(3, || {
        black_box(scenario.arrivals.compile(n, seed));
        black_box(generate_sessions(&scenario.workload, n, seed));
        Ok::<(), SimError>(())
    })?;
    set(out, "sim.build.plan_s", plan);
    // `Scenario::driver` builds plan, engine and loop state; what is not
    // plan is engine.
    let build = median_s(3, || {
        scenario
            .driver(&mut NullRecorder, None)
            .map(|d| drop(black_box(d)))
    })?;
    out.set("sim.build.engine_s", (build.value - plan.value).max(0.0), 3);

    let s = ns_per_op(20_000, || {
        timed(|| black_box(generate_sessions(&scenario.workload, 20_000, seed))).0
    });
    set(out, "media.workload.gen_ns_per_user", s);

    let spec = AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    };
    let mut controller = AdmissionController::new(spec, 1024);
    let ctx = AdmissionContext {
        eps_s: 0.1,
        omega_hat_s: 2.0,
        phi_hat_mj: 500.0,
    };
    let s = ns_per_op(1024, || {
        timed(|| {
            for user in 0..1024 {
                black_box(controller.decide(user, black_box(&ctx)));
            }
        })
        .0
    });
    set(out, "gateway.admission.decide_ns", s);

    let width = nproc().min(2);
    let pool = WorkerPool::new(width - 1);
    let barrier = SpinBarrier::new(width);
    let rounds = 10_000u64;
    let s = ns_per_op(rounds, || {
        timed(|| {
            pool.broadcast(width, &|_p| {
                for _ in 0..rounds {
                    barrier.wait();
                }
            })
        })
        .0
    });
    set(out, "sim.pool.barrier_ns", s);
    Ok(())
}

/// An in-memory stream: reads come from `input`, writes go to `output`.
struct Duplex {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Home `gateway-live`: protocol parsing and DPI per event, the
/// connection handler over an in-memory stream with a stand-in engine
/// thread answering on the bus, the bus and the fan-out on their own,
/// and checkpointing at the workload's mid-run state.
pub fn gateway_live(
    batch: &Scenario,
    feed_line: &(String, usize),
    request: &str,
    ckpt_path: &std::path::Path,
    out: &mut Outcome,
) -> Result<(), SimError> {
    let (line, events) = feed_line;
    let s = ns_per_op(*events as u64, || {
        timed(|| black_box(parse_command(black_box(line)))).0
    });
    set(out, "gateway.protocol.parse_ns_per_event", s);
    let s = ns_per_op(64, || {
        timed(|| {
            for _ in 0..64 {
                black_box(declared_rate_from_request(black_box(request))).ok();
            }
        })
        .0
    });
    set(out, "gateway.dpi.rate_ns_per_event", s);

    let bus = CommandBus::new(256);
    let fanout = FanOut::new();
    let (tx, _rx) = sync_channel(1);
    let s = ns_per_op(128, || {
        timed(|| {
            for _ in 0..128 {
                let _ = bus.push(Command::Start { reply: tx.clone() });
            }
            black_box(bus.drain());
        })
        .0
    });
    set(out, "svc.bus.push_drain_ns", s);

    let cmds = 2_000usize;
    let status = GwStatus {
        state: SvcState::Running,
        slot: 7,
        slots: batch.slots,
        watching: 30,
        policy: "stall".into(),
        dropped_slots: 0,
        dropped_subscribers: 0,
        last_checkpoint_slot: Some(0),
        warnings: Vec::new(),
    };
    let stop = AtomicBool::new(false);
    let mut stream = Duplex {
        input: Cursor::new("{\"cmd\":\"status\"}\n".repeat(cmds).into_bytes()),
        output: Vec::new(),
    };
    let elapsed = std::thread::scope(|scope| {
        scope.spawn(|| {
            // SeqCst: the flag orders nothing but itself; the default.
            while !stop.load(Ordering::SeqCst) {
                for cmd in bus.wait(Duration::from_millis(5)) {
                    if let Command::Status { reply } = cmd {
                        let _ = reply.send(status.clone());
                    }
                }
            }
        });
        let (d, ()) = timed(|| handle_connection(&mut stream, &bus, &fanout));
        stop.store(true, Ordering::SeqCst);
        d
    });
    let replies = String::from_utf8_lossy(&stream.output);
    let ok = replies.matches("\"ok\":true").count();
    out.op(ok == cmds, || {
        format!("in-memory connection answered {ok} of {cmds} commands")
    });
    out.set(
        "svc.conn.handle_ns_per_cmd",
        elapsed.as_nanos() as f64 / cmds as f64,
        cmds,
    );

    // Checkpoint cost where the daemon pays it: mid-run, under the
    // recorder it runs with, so the sidecar carries the trace so far.
    let fresh = || TraceRecorder::new().with_live_counts();
    let mut rec = fresh();
    let RunOutcome::Paused(ck) = batch.run_until(&mut rec, batch.slots / 2)? else {
        out.op(false, || "the run ended before its midpoint".into());
        return Ok(());
    };
    let mut json_len = 0;
    let to_json = median_s(3, || ck.to_json().map(|j| json_len = j.len()))?;
    set(out, "sim.ckpt.to_json_ms", scale(to_json, 1e3));
    out.set("sim.ckpt.bytes", json_len as f64, 1);
    let write = median_s(3, || ck.write_file(ckpt_path))?;
    set(out, "sim.ckpt.write_ms", scale(write, 1e3));
    let restore = median_s(3, || {
        let ck = EngineCheckpoint::read_file(ckpt_path)?;
        batch
            .driver(&mut fresh(), Some(&ck))
            .map(|d| drop(black_box(d)))
    })?;
    set(out, "sim.ckpt.restore_ms", scale(restore, 1e3));
    let _ = std::fs::remove_file(ckpt_path);

    // One slot record of the workload, as the engine thread serialises
    // and broadcasts it per slot.
    let record = rec
        .records()
        .last()
        .map(|r| serde_json::to_string(r).unwrap_or_default());
    let record = record.unwrap_or_default();
    out.set("svc.fanout.record_bytes", record.len() as f64, 1);
    let rx = fanout.subscribe(4_096);
    let s = ns_per_op(256, || {
        let (d, ()) = timed(|| {
            for _ in 0..256 {
                black_box(fanout.broadcast(black_box(&record)));
            }
        });
        while rx.try_recv().is_ok() {}
        d
    });
    set(out, "svc.fanout.broadcast_ns_per_line", s);
    Ok(())
}

fn scale(s: Sample, by: f64) -> Sample {
    Sample {
        value: s.value * by,
        n: s.n,
    }
}
