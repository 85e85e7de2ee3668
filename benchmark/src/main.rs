//! The repository benchmark. See `benchmark/README.md` for every
//! workload and metric by name; `benchmark/run.sh` builds the program
//! under test and this harness, then runs it:
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, result object last
//! run.sh [--seed N] [--seconds S]                        all workloads, both passes
//! run.sh --aa [--seed N] [--seconds S]                   the full set twice, compared
//! run.sh report [workload…]                              self-time table from the spans
//! ```

mod alloc;
mod batch;
mod feed;
mod fixtures;
mod live;
mod metrics;
mod proc;
mod report;
mod spans;
mod stats;
mod workloads;

use metrics::{num, Outcome, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS};
use serde::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Spans kept per run; the rest are counted (see `SpanStore`).
pub const SPAN_CAP: usize = 120_000;

/// Where spans files and a run's scratch files go.
pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

pub fn spans_path(workload: &str) -> PathBuf {
    out_dir().join(format!("{workload}.spans.jsonl"))
}

/// The committed seed-42 output digest of `workload`.
pub fn expected_digest(workload: &str) -> Option<String> {
    let v: Value = serde_json::from_str(include_str!("../expected/seed42.json")).ok()?;
    match v.get(workload) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {name} {v:?}")),
    }
}

/// One workload, one pass, in this process.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "cell-default" | "cell-ema" => {
            workloads::cell(workload, seed, seconds, trace).map_err(|e| e.to_string())
        }
        "open-sharded" => workloads::open_sharded(seed, seconds, trace).map_err(|e| e.to_string()),
        "gateway-live" if trace => live::traced(seed, seconds),
        "gateway-live" => live::end_to_end(seed, seconds),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

/// A child run's result: the parsed object and whether it exited 0.
struct ChildRun {
    metrics: Vec<(String, f64)>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

/// Run one workload in a child process of its own, so that its peak RSS
/// and allocator state are its own. The child's report is echoed.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stdout = stdout.trim_end();
    let (report, last) = stdout.rsplit_once('\n').unwrap_or(("", stdout));
    println!("{report}");
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {}: {}",
            u8::from(trace),
            output.status
        ));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("result object: {e:?}"))?;
    let count = |k: &str| match v.get(k) {
        Some(Value::U64(n)) => *n,
        _ => 0,
    };
    let metrics = v.get("metrics").and_then(Value::as_map).unwrap_or_default();
    Ok(ChildRun {
        metrics: metrics
            .iter()
            .map(|(name, m)| (name.clone(), num(m.get("value"))))
            .collect(),
        correct: v.get("correct") == Some(&Value::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
    })
}

fn metric(run: &ChildRun, name: &str) -> f64 {
    run.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Every workload, end-to-end pass then traced pass. Returns the runs
/// in `WORKLOADS` order, (end-to-end, traced) each.
fn run_set(seed: u64, seconds: f64) -> Result<Vec<(ChildRun, ChildRun)>, String> {
    let mut set = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}: end-to-end pass (tracing off), seed {seed}, {seconds} s");
        let e2e = run_child(workload, seed, seconds, false)?;
        println!("== {workload}: traced pass");
        let traced = run_child(workload, seed, seconds, true)?;
        set.push((e2e, traced));
    }
    Ok(set)
}

fn all_correct(set: &[(ChildRun, ChildRun)]) -> bool {
    let mut ok = true;
    for (workload, (e2e, traced)) in WORKLOADS.iter().zip(set) {
        for (pass, run) in [("end-to-end", e2e), ("traced", traced)] {
            println!(
                "{workload:<14} {pass:<10} correct={} attempted={} failed={}",
                run.correct, run.attempted, run.failed
            );
            ok &= run.correct;
        }
    }
    ok
}

/// The predictions the workloads were chosen to separate. A miss is
/// reported, not failed: it says the workloads no longer isolate the
/// layers, which is a finding about the benchmark, not about outputs.
fn predictions(set: &[(ChildRun, ChildRun)]) {
    for (workload, (_, traced)) in WORKLOADS.iter().zip(set) {
        let share = metric(traced, "sched.share");
        let (holds, want) = match *workload {
            "cell-ema" => (share >= 0.8, ">= 0.8"),
            _ => (share < 0.5, "< 0.5"),
        };
        let verdict = if holds {
            "as predicted"
        } else {
            "NOT as predicted"
        };
        println!("sched.share on {workload:<14} {share:.3} (predicted {want}): {verdict}");
    }
}

/// (name, better, bound) of each end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(Value::Seq(items)) = v.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let text_of = |m: &Value, k: &str| match m.get(k) {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    };
    Ok(items
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "better"),
                num(m.get("bound")),
            )
        })
        .collect())
}

/// `--aa`: the full set twice on the same build. Prints each end-to-end
/// metric's relative difference (second run against first, positive =
/// worse) beside its bound, and checks that the exact counts repeat.
fn aa(seed: u64, seconds: f64) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = run_set(seed, seconds)?;
    let second = run_set(seed, seconds)?;
    let mut ok = all_correct(&first) & all_correct(&second);
    println!("\nA/A: same build, same seed; worse-by is the second run against the first");
    println!(
        "{:<14} {:<22} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse-by", "bound"
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for (name, better, bound) in &bounds {
            let (a, b) = (metric(&first[i].0, name), metric(&second[i].0, name));
            let worse_by = if better == "higher" {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse_by <= *bound {
                "within"
            } else {
                "OUTSIDE"
            };
            println!(
                "{workload:<14} {name:<22} {a:>16.6} {b:>16.6} {:>8.2}% {:>6.0}% {verdict}",
                worse_by * 100.0,
                bound * 100.0
            );
            ok &= worse_by <= *bound;
        }
        for name in EXACT_COUNTS {
            let (a, b) = (metric(&first[i].1, name), metric(&second[i].1, name));
            if a != b {
                println!("{workload:<14} {name:<22} {a:>16} {b:>16}  count DIFFERS");
                ok = false;
            }
        }
    }
    println!("exact counts compared: {}", EXACT_COUNTS.join(", "));
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "report") {
        return if report::run(&args[1..]) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let parsed = (|| {
        Ok::<_, String>((
            parse(&args, "--seed", 42u64)?,
            parse(&args, "--seconds", 20.0f64)?,
            parse(&args, "--trace", 0u8)? != 0,
        ))
    })();
    let (seed, seconds, trace) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("jmso-benchmark: {e}");
            return ExitCode::from(2);
        }
    };

    let ok = if let Some(workload) = flag(&args, "--workload") {
        match run_one(workload, seed, seconds, trace) {
            Ok(out) => {
                let table = if trace {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                println!(
                    "{workload} seed {seed}: {} metrics, value unit n=samples",
                    table.len()
                );
                print!("{}", out.table_text());
                for failure in &out.check_failures {
                    println!("FAILED: {failure}");
                }
                println!("{}", out.json_line());
                Ok(out.correct())
            }
            Err(e) => Err(e),
        }
    } else if args.iter().any(|a| a == "--aa") {
        aa(seed, seconds)
    } else {
        run_set(seed, seconds).map(|set| {
            println!();
            predictions(&set);
            all_correct(&set)
        })
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("jmso-benchmark: a correctness check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("jmso-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
