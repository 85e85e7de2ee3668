//! The three batch workloads share one runner: repeat whole `Scenario`
//! runs back to back, rotating over the workload's inputs, split each
//! rep into set-up, steady state and finish through a recorder, and
//! check every rep's result.

use crate::metrics::{Outcome, END_TO_END};
use crate::proc::self_peak_rss_mb;
use crate::spans::{SetupClock, SlotTotals, SpanRecorder, SpanStore};
use crate::stats::{digest, mean, median, steady_high, steady_low};
use jmso_sim::{Scenario, SimError, SimResult, SlotRecorder, WorkerPool, NEVER_DEPARTS};
use std::time::Instant;

/// Which public run path a rep takes.
pub enum RunPath<'a> {
    /// `Scenario::run_with`: the serial slot loop.
    Serial,
    /// `Scenario::run_sharded_on` on a caller-owned pool.
    Sharded { pool: &'a WorkerPool, width: usize },
}

pub struct Batch<'a> {
    /// The workload's inputs, all made from `--seed`. Rep `r` runs input
    /// `r mod len`: how much a scenario costs per slot depends on its
    /// seed (the EMA cell's by ±15 %), and a metric averaged over several
    /// inputs depends on it far less.
    pub inputs: Vec<Scenario>,
    pub path: RunPath<'a>,
    /// Untimed reps before measuring (caches, lazy set-up).
    pub warmup_reps: usize,
    /// Reps measured even when one of them outlasts `--seconds`.
    pub min_reps: usize,
    /// Set-up-only calls after each rep of the end-to-end pass (serial
    /// path). A 40-user cell sets up in 10 µs, once per rep and with
    /// whatever the run left in the caches: one sample per rep swings
    /// ±50 % between runs. Setting up several times more per rep, as the
    /// driver's contract suggests, steadies `setup_s`.
    pub extra_setups: usize,
}

/// One untraced rep, split at the recorder's `begin_run` / `end_run`.
pub struct RepTiming {
    pub setup_s: f64,
    pub steady_s: f64,
    pub finish_s: f64,
    pub total_s: f64,
    pub slots: u64,
    pub allocs: u64,
}

impl RepTiming {
    pub fn slots_per_s(&self) -> f64 {
        self.slots as f64 / self.steady_s
    }
}

/// What the traced pass hands back to the workload that called it.
pub struct Traced {
    pub untraced: Vec<RepTiming>,
    pub traced_slots_per_s: f64,
    pub results_digest: String,
}

/// A `SimResult`'s digest. The telemetry summary carries wall-clock
/// scheduler latencies, so it is left out; every other field is
/// simulated state and must repeat exactly.
pub fn result_digest(r: &SimResult) -> String {
    let mut r = r.clone();
    r.telemetry = None;
    digest(serde_json::to_string(&r).unwrap_or_default().as_bytes())
}

/// One digest for the results of all inputs, in input order.
pub fn results_digest<'r>(results: impl IntoIterator<Item = &'r SimResult>) -> String {
    let each: Vec<String> = results.into_iter().map(result_digest).collect();
    digest(each.join(" ").as_bytes())
}

/// Session events in a scenario's compiled plan that fall inside the
/// horizon: what a batch run of it ingests.
fn plan_events(s: &Scenario) -> u64 {
    let plan = s.arrivals.compile(s.n_users, s.seed);
    let arrivals = plan.arrivals.iter().filter(|&&a| a < s.slots).count();
    let departures = plan
        .departures
        .iter()
        .filter(|&&d| d != NEVER_DEPARTS && d < s.slots)
        .count();
    (arrivals + departures) as u64
}

impl Batch<'_> {
    pub fn run_rep<R: SlotRecorder + Send>(
        &self,
        input: usize,
        rec: &mut R,
    ) -> Result<SimResult, SimError> {
        let scenario = &self.inputs[input];
        match self.path {
            RunPath::Serial => scenario.run_with(rec),
            RunPath::Sharded { pool, width } => scenario.run_sharded_on(pool, width, rec),
        }
    }

    pub fn timed_rep(&self, input: usize) -> Result<(RepTiming, SimResult), SimError> {
        let mut clock = SetupClock::default();
        let t_call = Instant::now();
        let result = self.run_rep(input, &mut clock)?;
        let t_ret = Instant::now();
        let begin = clock.begin.unwrap_or(t_call);
        let end = clock.end.unwrap_or(t_ret);
        let timing = RepTiming {
            setup_s: (begin - t_call).as_secs_f64(),
            steady_s: (t_ret - begin).as_secs_f64(),
            finish_s: (t_ret - end).as_secs_f64(),
            total_s: (t_ret - t_call).as_secs_f64(),
            slots: result.slots_run,
            allocs: clock.allocs_at_end - clock.allocs_at_begin,
        };
        Ok((timing, result))
    }

    /// Set-up alone, seconds: `Scenario::driver` is the serial run
    /// path's own build (validate, engine, loop state, `begin_run`); the
    /// driver is dropped unstepped.
    fn setup_only(&self, input: usize) -> Result<f64, SimError> {
        let mut clock = SetupClock::default();
        let t_call = Instant::now();
        let driver = self.inputs[input].driver(&mut clock, None)?;
        let begin = clock.begin.unwrap_or(t_call);
        drop(driver);
        Ok((begin - t_call).as_secs_f64())
    }

    fn warm_up(&self) {
        for rep in 0..self.warmup_reps {
            let _ = self.timed_rep(rep % self.inputs.len());
        }
    }

    /// The end-to-end pass: tracing off, reps until `seconds` have been
    /// measured. Returns the outcome and each input's first result.
    ///
    /// Each metric is, per input, the steady value of its reps (see
    /// `stats::steady_low`), and then the mean over the inputs.
    pub fn end_to_end(&self, seconds: f64) -> (Outcome, Vec<SimResult>) {
        let mut out = Outcome::new(&END_TO_END);
        self.warm_up();
        let k = self.inputs.len();
        let mut reps: Vec<Vec<RepTiming>> = (0..k).map(|_| Vec::new()).collect();
        let mut setups: Vec<Vec<f64>> = (0..k).map(|_| Vec::new()).collect();
        let mut firsts: Vec<SimResult> = Vec::with_capacity(k);
        let t0 = Instant::now();
        let mut rep = 0;
        while rep < self.min_reps.max(k) || t0.elapsed().as_secs_f64() < seconds {
            let input = rep % k;
            match self.timed_rep(input) {
                Ok((timing, result)) => {
                    match firsts.get(input) {
                        Some(first) => out.op(*first == result, || {
                            format!("rep {rep} differs from the first rep of input {input}")
                        }),
                        None => {
                            out.op(true, String::new);
                            firsts.push(result);
                        }
                    }
                    setups[input].push(timing.setup_s);
                    reps[input].push(timing);
                }
                Err(e) => {
                    out.op(false, || format!("rep {rep} returned Err: {e}"));
                    break;
                }
            }
            for _ in 0..self.extra_setups {
                match self.setup_only(input) {
                    Ok(s) => setups[input].push(s),
                    Err(e) => out.op(false, || format!("set-up returned Err: {e}")),
                }
            }
            rep += 1;
        }
        // Taken before the correctness checks, whose reference runs are
        // not the workload.
        let rss = self_peak_rss_mb();
        out.notes.push(format!("{rep} reps over {k} inputs"));
        let per_input = |steady: fn(&[f64]) -> f64, f: &dyn Fn(usize, &RepTiming) -> f64| {
            let each: Vec<f64> = reps
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.is_empty())
                .map(|(j, r)| steady(&r.iter().map(|t| f(j, t)).collect::<Vec<f64>>()))
                .collect();
            mean(&each)
        };
        let setup: Vec<f64> = setups.iter().map(|s| steady_low(s)).collect();
        out.set("setup_s", mean(&setup), setups.iter().map(Vec::len).sum());
        out.set(
            "slots_per_s",
            per_input(steady_high, &|_, r| r.slots_per_s()),
            rep,
        );
        out.set("peak_rss_mb", rss, 1);
        // Batch readings of the two service metrics (README "Metrics"):
        // a batch caller issues one command, the run, whose round trip
        // is call → result, and the session events it ingests are the
        // plan's.
        let events: Vec<f64> = self.inputs.iter().map(|s| plan_events(s) as f64).collect();
        out.set(
            "ingest_events_per_s",
            per_input(steady_high, &|j, r| events[j] / r.total_s),
            rep,
        );
        out.set(
            "cmd_rtt_p50_us",
            per_input(steady_low, &|_, r| r.total_s * 1e6),
            rep,
        );
        (out, firsts)
    }

    /// The traced pass: untraced and traced reps alternate (so drift
    /// hits both alike) until `seconds` are used, and the per-layer
    /// metrics every batch workload has are set on `out`.
    pub fn traced(
        &self,
        seconds: f64,
        store: &mut SpanStore,
        out: &mut Outcome,
    ) -> Result<Traced, SimError> {
        self.warm_up();
        let k = self.inputs.len();
        let mut untraced: Vec<RepTiming> = Vec::new();
        let mut traced_slot_ns: Vec<f64> = Vec::new();
        let mut totals = SlotTotals::default();
        let mut firsts: Vec<(SimResult, SlotTotals)> = Vec::with_capacity(k);
        let t0 = Instant::now();
        let mut rep = 0u32;
        while (rep as usize) < self.min_reps.max(k) || t0.elapsed().as_secs_f64() < seconds {
            let input = rep as usize % k;
            let (timing, plain) = self.timed_rep(input)?;
            untraced.push(timing);

            let run_span = store.open("run", 0, rep);
            let loop_span = store.open("sim.loop", run_span, rep);
            let mut rec = SpanRecorder::new(store, rep, loop_span);
            let t_call = Instant::now();
            let result = self.run_rep(input, &mut rec)?;
            let t_ret = Instant::now();
            let (begin, end) = (rec.begin.unwrap_or(t_call), rec.end.unwrap_or(t_ret));
            let rep_totals = std::mem::take(&mut rec.totals);
            store.set_times(loop_span, begin, end);
            store.set_times(run_span, t_call, t_ret);
            store.add("sim.build", run_span, rep, t_call, begin);
            store.add("sim.finish", run_span, rep, end, t_ret);

            traced_slot_ns.push((t_ret - begin).as_secs_f64() * 1e9 / result.slots_run as f64);
            out.op(result == plain, || {
                format!("traced rep {rep} differs from the untraced one")
            });
            match firsts.get(input) {
                None => firsts.push((result, rep_totals.clone())),
                Some((first, counts)) => {
                    out.op(*first == result && same_counts(counts, &rep_totals), || {
                        format!(
                            "rep {rep}: result or work counts differ from input {input}'s first"
                        )
                    })
                }
            }
            add_totals(&mut totals, rep_totals);
            rep += 1;
        }

        totals.report(out);

        let n = untraced.len();
        let col = |f: fn(&RepTiming) -> f64| untraced.iter().map(f).collect::<Vec<f64>>();
        let plain_slot_ns = median(&col(|r| r.steady_s * 1e9 / r.slots as f64));
        out.set("sim.finish_s", median(&col(|r| r.finish_s)), n);
        // Untraced and traced reps pair up one to one, so the traced
        // reps' user-slot count is the untraced reps' too.
        let steady_ns = col(|r| r.steady_s).iter().sum::<f64>() * 1e9;
        out.set(
            "sim.user_slot_ns",
            steady_ns / totals.live_user_slots.max(1) as f64,
            n,
        );
        out.set(
            "sim.allocs_per_slot",
            median(&col(|r| r.allocs as f64 / r.slots as f64)),
            n,
        );
        out.set(
            "trace.overhead_ratio",
            median(&traced_slot_ns) / plain_slot_ns,
            n,
        );
        // Work counts: one rep of each input, summed. Every rep of an
        // input repeats its counts exactly (checked above).
        let sum = |f: fn(&SlotTotals) -> u64| firsts.iter().map(|(_, t)| f(t)).sum::<u64>() as f64;
        out.set("sim.slots_run", sum(|t| t.slots), k);
        out.set("sim.live_user_slots", sum(|t| t.live_user_slots), k);
        out.set("sim.units_granted", sum(|t| t.units_granted), k);
        out.set("sim.adm.admitted", sum(|t| t.admitted), k);
        out.set("sim.adm.deferred", sum(|t| t.deferred), k);
        out.set("sim.adm.rejected", sum(|t| t.rejected), k);
        Ok(Traced {
            untraced,
            traced_slots_per_s: 1e9 / median(&traced_slot_ns),
            results_digest: results_digest(firsts.iter().map(|(r, _)| r)),
        })
    }
}

fn same_counts(a: &SlotTotals, b: &SlotTotals) -> bool {
    (
        a.slots,
        a.live_user_slots,
        a.units_granted,
        a.admitted,
        a.deferred,
        a.rejected,
    ) == (
        b.slots,
        b.live_user_slots,
        b.units_granted,
        b.admitted,
        b.deferred,
        b.rejected,
    )
}

fn add_totals(sum: &mut SlotTotals, mut rep: SlotTotals) {
    sum.slots += rep.slots;
    sum.pre_ns += rep.pre_ns;
    sum.sample_collect_ns += rep.sample_collect_ns;
    sum.allocate_ns += rep.allocate_ns;
    sum.transmit_account_ns += rep.transmit_account_ns;
    sum.live_user_slots += rep.live_user_slots;
    sum.step_ns.append(&mut rep.step_ns);
}

/// Header object of a spans file: what `report` needs besides the spans.
pub fn spans_header(
    workload: &str,
    seed: u64,
    untraced_slots_per_s: f64,
    traced_slots_per_s: f64,
    store: &SpanStore,
) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"untraced_slots_per_s\":{untraced_slots_per_s},\
         \"traced_slots_per_s\":{traced_slots_per_s},\"spans_kept\":{},\"spans_dropped\":{}}}",
        store.kept(),
        store.dropped
    )
}

impl Traced {
    /// The header of this pass's spans file.
    pub fn header(&self, workload: &str, seed: u64, store: &SpanStore) -> String {
        let plain: Vec<f64> = self.untraced.iter().map(RepTiming::slots_per_s).collect();
        spans_header(
            workload,
            seed,
            median(&plain),
            self.traced_slots_per_s,
            store,
        )
    }
}
