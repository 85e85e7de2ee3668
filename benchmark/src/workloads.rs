//! The three batch workloads. Each is a scenario, a run path and the
//! correctness checks that go with it; `batch` does the measuring.

use crate::batch::{results_digest, Batch, RepTiming, RunPath};
use crate::fixtures::{self, paper_cell};
use crate::metrics::{Outcome, PER_LAYER};
use crate::proc::nproc;
use crate::spans::SpanStore;
use crate::stats::median;
use crate::{expected_digest, spans_path, SPAN_CAP};
use jmso_sched::SchedulerSpec;
use jmso_sim::{AdmissionSpec, ArrivalSpec, Scenario, SessionLength, SimError, WorkerPool};

/// Cells a `cell-*` run rotates over, all with seeds made from `--seed`.
const CELL_INPUTS: u64 = 8;

/// `cell-default` and `cell-ema`: the paper's closed cell, serial loop.
pub fn cell(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, SimError> {
    let spec = match workload {
        "cell-ema" => SchedulerSpec::ema_dp(1.0),
        _ => SchedulerSpec::Default,
    };
    let batch = Batch {
        inputs: (0..CELL_INPUTS)
            .map(|j| {
                let cell_seed = seed.wrapping_mul(CELL_INPUTS).wrapping_add(j);
                paper_cell(40, cell_seed).with_scheduler(spec.clone())
            })
            .collect(),
        path: RunPath::Serial,
        warmup_reps: CELL_INPUTS as usize,
        min_reps: 2 * CELL_INPUTS as usize,
        extra_setups: 15,
    };
    let reference = |out: &mut Outcome, got: &str| -> Result<(), SimError> {
        let mut references = Vec::new();
        for input in &batch.inputs {
            references.push(input.run_reference()?);
        }
        out.op(got == results_digest(&references), || {
            "results differ from run_reference's".into()
        });
        Ok(())
    };
    if !trace {
        let (mut out, firsts) = batch.end_to_end(seconds);
        let got = results_digest(&firsts);
        // After measuring: the reference runs' memory is not the workload's.
        reference(&mut out, &got)?;
        check_committed(&mut out, workload, seed, &got);
        return Ok(out);
    }
    let mut out = Outcome::new(&PER_LAYER);
    let mut store = SpanStore::new(SPAN_CAP);
    // Half the time for the workload; the fixtures take a fixed amount.
    let traced = batch.traced(seconds * 0.5, &mut store, &mut out)?;
    reference(&mut out, &traced.results_digest)?;
    check_committed(&mut out, workload, seed, &traced.results_digest);
    match workload {
        "cell-ema" => fixtures::cell_ema(seed, &mut out)?,
        _ => fixtures::cell_default(seed, &mut out)?,
    }
    write_spans(
        &mut out,
        &store,
        workload,
        &traced.header(workload, seed, &store),
    );
    Ok(out)
}

/// `open-sharded`'s scenario: an open system on a large pool.
///
/// Poisson arrivals at 50 per slot with exponential sessions of mean 200
/// slots settle at about 10 000 users in flight; the pool only has to
/// outlast the horizon's arrivals; the rest of it is walked all the same.
/// Sized so that a rep (build included) takes about half a second and a
/// run holds some forty: the steady estimators need reps to window.
pub fn open_scenario(seed: u64) -> Scenario {
    let mut s = paper_cell(OPEN_POOL, seed);
    s.slots = OPEN_SLOTS;
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 0.02,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 200.0 }),
    };
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s
}

const OPEN_POOL: usize = 100_000;
const OPEN_SLOTS: u64 = 400;

/// `open-sharded`: `run_sharded_on` at width 2 (capped at the machine's
/// parallelism) on a pool the harness owns.
pub fn open_sharded(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, SimError> {
    let width = nproc().min(2);
    let pool = WorkerPool::new(width - 1);
    let batch = Batch {
        inputs: vec![open_scenario(seed)],
        path: RunPath::Sharded { pool: &pool, width },
        warmup_reps: 1,
        min_reps: 3,
        extra_setups: 0,
    };
    if !trace {
        let (mut out, firsts) = batch.end_to_end(seconds);
        check_committed(&mut out, "open-sharded", seed, &results_digest(&firsts));
        return Ok(out);
    }
    let mut out = Outcome::new(&PER_LAYER);
    let mut store = SpanStore::new(SPAN_CAP);
    let traced = batch.traced(seconds * 0.4, &mut store, &mut out)?;
    check_committed(&mut out, "open-sharded", seed, &traced.results_digest);

    // The serial loop on the same scenario: the digest the sharded loop
    // must reproduce, and the base of the width's speed-up.
    let serial = Batch {
        path: RunPath::Serial,
        inputs: batch.inputs.clone(),
        warmup_reps: 0,
        min_reps: 1,
        extra_setups: 0,
    };
    let mut serial_speeds = Vec::new();
    for _ in 0..3 {
        let (timing, result) = serial.timed_rep(0)?;
        out.op(results_digest([&result]) == traced.results_digest, || {
            format!("width-{width} result differs from the serial run's")
        });
        serial_speeds.push(timing.slots_per_s());
    }
    let sharded: Vec<f64> = traced.untraced.iter().map(RepTiming::slots_per_s).collect();
    out.set(
        "sim.shard.speedup",
        median(&sharded) / median(&serial_speeds),
        sharded.len(),
    );

    fixtures::open_sharded(&batch.inputs[0], &mut out)?;
    write_spans(
        &mut out,
        &store,
        "open-sharded",
        &traced.header("open-sharded", seed, &store),
    );
    Ok(out)
}

/// Seed 42's outputs are committed; other seeds rest on the
/// self-consistency checks alone.
pub fn check_committed(out: &mut Outcome, workload: &str, seed: u64, got: &str) {
    if seed == 42 {
        let want = expected_digest(workload);
        out.op(want.as_deref() == Some(got), || {
            format!("seed-42 digest {got} is not the committed {want:?}")
        });
    }
}

pub fn write_spans(out: &mut Outcome, store: &SpanStore, workload: &str, header: &str) {
    let path = spans_path(workload);
    let written = store.write_jsonl(&path, header);
    out.op(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
}
