//! `jmso-sim` — run, calibrate and sweep simulation scenarios from JSON.
//!
//! ```text
//! jmso-sim template [N]                         print a paper-default scenario (N users)
//! jmso-sim run <scenario.json> [--out r.json] [--per-user u.csv]
//!              [--trace t.jsonl] [--trace-every N]
//!              [--ckpt c.json --ckpt-every K] [--resume c.json]
//!              [--abr 0.5,0.75,1.0] [--admission always|feasible[:k=v,...]]
//!                                               run one scenario, print a summary;
//!                                               --trace records per-slot telemetry
//!                                               (JSONL, downsampled to every Nth slot);
//!                                               --ckpt writes a resumable checkpoint
//!                                               sidecar every K slots; --resume
//!                                               continues from such a sidecar;
//!                                               --abr overrides the scenario with a
//!                                               bitrate ladder of the given native-rate
//!                                               multipliers (default buffer-based
//!                                               policy); --admission overrides the
//!                                               admission spec — "always" or
//!                                               "feasible" with optional v=/omega=/
//!                                               phi=/defer= options
//! jmso-sim calibrate <scenario.json>            measure the Default reference points
//! jmso-sim fit-v <scenario.json> --omega <s>    fit EMA's V to a rebuffering bound
//! jmso-sim sweep <scenario.json> --seeds 1,2,3 [--threads T]
//!                                               rerun across seeds in parallel
//! ```
//!
//! Scenarios are the serde `Scenario` structure (see `jmso-sim` docs);
//! `template` emits a valid starting point.
//!
//! Exit codes: 0 on success, **2** for invalid input (usage errors,
//! unparseable files, scenario/fault-plan validation — the message names
//! the offending field), **1** for runtime failures (trace/checkpoint
//! I/O, restore mismatches).

use jmso_sim::{
    calibrate_default, fit_v_for_omega, run_scenarios, AbrSpec, AdmissionSpec, BitrateLadder,
    CheckpointError, EngineCheckpoint, NullRecorder, Scenario, SimError, SimResult, SlotRecorder,
    TraceError,
};
use std::fmt;
use std::path::Path;
use std::process::ExitCode;

/// CLI-level error: invalid input exits 2, runtime failure exits 1.
enum CliError {
    /// Bad flags, missing arguments, unreadable/unparseable input files.
    Usage(String),
    /// Typed simulation error (validation, trace I/O, checkpointing).
    Sim(SimError),
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            // Invalid input — the scenario itself (or the command line)
            // is at fault, and the message names the field.
            CliError::Usage(_) | CliError::Sim(SimError::Scenario(_)) => 2,
            // Runtime failure (I/O, checkpoint restore).
            CliError::Sim(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Sim(e) => e.fmt(f),
        }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<TraceError> for CliError {
    fn from(e: TraceError) -> Self {
        CliError::Sim(SimError::Trace(e))
    }
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        CliError::Sim(SimError::Checkpoint(e))
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("template") => cmd_template(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("fit-v") => cmd_fit_v(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        _ => {
            eprintln!(
                "usage: jmso-sim template [N] | run <scenario.json> [--out r.json] \
                 [--trace t.jsonl] [--trace-every N] [--ckpt c.json --ckpt-every K] \
                 [--resume c.json] [--abr 0.5,0.75,1.0] \
                 [--admission always|feasible[:k=v,...]] | \
                 calibrate <scenario.json> | fit-v <scenario.json> --omega <s> | \
                 sweep <scenario.json> --seeds 1,2,3 [--threads T]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load_scenario(path: &str) -> Result<Scenario, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| CliError::Usage(format!("parsing {path}: {e:?}")))
}

/// `--abr 0.5,0.75,1.0` — a ladder of native-rate multipliers with the
/// default chunking and (buffer-based) policy; full control over the
/// policy lives in the scenario JSON's `abr` object.
fn parse_abr(s: &str) -> Result<AbrSpec, String> {
    let multipliers: Vec<f64> = s
        .split(',')
        .map(|m| {
            m.trim()
                .parse()
                .map_err(|e| format!("bad --abr rung {m:?}: {e}"))
        })
        .collect::<Result<_, String>>()?;
    Ok(AbrSpec {
        ladder: BitrateLadder { multipliers },
        ..AbrSpec::single_rung()
    })
}

/// `--admission always` or
/// `--admission feasible[:v=2,omega=0.05,phi=500,defer=30]`.
fn parse_admission(s: &str) -> Result<AdmissionSpec, String> {
    if s == "always" {
        return Ok(AdmissionSpec::AlwaysAdmit);
    }
    let rest = s.strip_prefix("feasible").ok_or_else(|| {
        format!("bad --admission {s:?}: expected \"always\" or \"feasible[:k=v,...]\"")
    })?;
    let mut v = 1.0;
    let mut omega_s = None;
    let mut phi_mj = None;
    let mut max_defer_slots = 30;
    if let Some(kvs) = rest.strip_prefix(':') {
        for kv in kvs.split(',') {
            let (key, val) = kv
                .split_once('=')
                .ok_or_else(|| format!("bad --admission option {kv:?}: expected k=v"))?;
            let parse = |what: &str| {
                val.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad --admission {what}: {e}"))
            };
            match key.trim() {
                "v" => v = parse("v")?,
                "omega" => omega_s = Some(parse("omega")?),
                "phi" => phi_mj = Some(parse("phi")?),
                "defer" => {
                    max_defer_slots = val
                        .trim()
                        .parse()
                        .map_err(|e| format!("bad --admission defer: {e}"))?
                }
                other => {
                    return Err(format!(
                        "bad --admission option {other:?}: expected v, omega, phi or defer"
                    ))
                }
            }
        }
    } else if !rest.is_empty() {
        return Err(format!(
            "bad --admission {s:?}: expected \"always\" or \"feasible[:k=v,...]\""
        ));
    }
    Ok(AdmissionSpec::Feasibility {
        v,
        omega_s,
        phi_mj,
        max_defer_slots,
    })
}

fn summarize(r: &SimResult) {
    println!("scheduler            : {}", r.scheduler);
    println!("users                : {}", r.n_users());
    println!(
        "slots run / configured: {} / {}",
        r.slots_run, r.slots_configured
    );
    println!("completion rate      : {:.2}", r.completion_rate());
    println!(
        "rebuffering          : {:.1} s total, {:.1} s/user, {:.1} ms per active slot",
        r.total_rebuffer_s(),
        r.mean_rebuffer_per_user_s(),
        r.avg_rebuffer_per_active_slot() * 1000.0
    );
    println!(
        "  startup / midstream: {:.1} s / {:.1} s",
        r.total_startup_s(),
        r.total_midstream_rebuffer_s()
    );
    println!(
        "energy               : {:.2} kJ total ({:.1}% tail), {:.0} mJ per active user-slot",
        r.total_energy_kj(),
        100.0 * r.tail_fraction(),
        r.avg_energy_per_active_slot_mj()
    );
}

fn cmd_template(args: &[String]) -> Result<(), CliError> {
    let n: usize = args
        .first()
        .map(|s| s.parse().map_err(|e| format!("bad N: {e}")))
        .transpose()?
        .unwrap_or(40);
    let scenario = Scenario::paper_default(n);
    println!(
        "{}",
        serde_json::to_string_pretty(&scenario).map_err(|e| format!("{e:?}"))?
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or("run: missing <scenario.json>")?;
    let mut scenario = load_scenario(path)?;
    if let Some(spec) = flag_value(args, "--abr") {
        scenario.abr = Some(parse_abr(spec)?);
    }
    if let Some(spec) = flag_value(args, "--admission") {
        scenario.admission = Some(parse_admission(spec)?);
    }
    let trace_path = flag_value(args, "--trace");
    let every: u64 = flag_value(args, "--trace-every")
        .map(|s| s.parse().map_err(|e| format!("bad --trace-every: {e}")))
        .transpose()?
        .unwrap_or(1);
    let ckpt_path = flag_value(args, "--ckpt");
    let ckpt_every: Option<u64> = flag_value(args, "--ckpt-every")
        .map(|s| s.parse().map_err(|e| format!("bad --ckpt-every: {e}")))
        .transpose()?;
    let ckpt = match (ckpt_path, ckpt_every) {
        (Some(path), Some(every)) => Some((path, every)),
        (None, None) => None,
        _ => return Err("run: --ckpt and --ckpt-every must be given together".into()),
    };
    let resume_path = flag_value(args, "--resume");
    if resume_path.is_some() && ckpt.is_some() {
        return Err("run: --resume cannot be combined with --ckpt".into());
    }

    let result = if let Some(out) = trace_path {
        // Traced runs use the same recorder for checkpointing, so a
        // checkpoint taken here resumes (with --trace) seamlessly; live
        // service runs use it too, and the SVC gate diffs the two.
        let mut rec = scenario.trace_recorder(every);
        let result = run_one(&scenario, &mut rec, resume_path, ckpt)?;
        let trace = rec.into_trace(&result.scheduler);
        trace.write_jsonl(Path::new(out))?;
        println!("wrote {out} ({} records)", trace.records.len());
        result
    } else {
        run_one(&scenario, &mut NullRecorder, resume_path, ckpt)?
    };
    summarize(&result);
    for w in &result.warnings {
        println!("warning: {w}");
    }
    if let Some(t) = &result.telemetry {
        println!("{}", jmso_sim::report::telemetry_text(t));
    }
    if let Some(out) = flag_value(args, "--out") {
        let json = serde_json::to_string_pretty(&result).map_err(|e| format!("{e:?}"))?;
        std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(out) = flag_value(args, "--per-user") {
        jmso_sim::report::per_user_table(&result)
            .write_csv(std::path::Path::new(out))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// The run `cmd_run`'s flags select, under whichever recorder watches it.
fn run_one<R: SlotRecorder>(
    scenario: &Scenario,
    rec: &mut R,
    resume_path: Option<&str>,
    ckpt: Option<(&str, u64)>,
) -> Result<SimResult, CliError> {
    Ok(match (resume_path, ckpt) {
        (Some(ckpt), _) => {
            let ck = EngineCheckpoint::read_file(Path::new(ckpt))?;
            println!("resuming from {ckpt} (slot {})", ck.slot());
            scenario.resume_from(rec, &ck)?
        }
        (None, Some((ckpt, every))) => {
            scenario.run_checkpointed_with(rec, every, Path::new(ckpt))?
        }
        (None, None) => scenario.run_with(rec)?,
    })
}

fn cmd_calibrate(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or("calibrate: missing <scenario.json>")?;
    let scenario = load_scenario(path)?;
    let cal = calibrate_default(&scenario)?;
    println!(
        "{}",
        serde_json::to_string_pretty(&cal).map_err(|e| format!("{e:?}"))?
    );
    println!(
        "\nΦ for α ∈ {{0.8, 1.0, 1.2}}: {:.1} / {:.1} / {:.1} mJ",
        cal.phi_for_alpha(0.8),
        cal.phi_for_alpha(1.0),
        cal.phi_for_alpha(1.2)
    );
    println!(
        "Ω for β ∈ {{0.8, 1.0, 1.2}}: {:.4} / {:.4} / {:.4} s per active slot",
        cal.omega_for_beta(0.8),
        cal.omega_for_beta(1.0),
        cal.omega_for_beta(1.2)
    );
    Ok(())
}

fn cmd_fit_v(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or("fit-v: missing <scenario.json>")?;
    let omega: f64 = flag_value(args, "--omega")
        .ok_or("fit-v: missing --omega <seconds per active slot>")?
        .parse()
        .map_err(|e| format!("bad --omega: {e}"))?;
    let scenario = load_scenario(path)?;
    let (v, measured) = fit_v_for_omega(&scenario, omega, 0.02, 100.0, 10)?;
    println!(
        "fitted V = {v:.4} (measured rebuffering {measured:.4} s per active slot, bound {omega})"
    );
    if measured > omega {
        println!("warning: even the smallest V violates the bound; Ω is infeasible here");
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or("sweep: missing <scenario.json>")?;
    let seeds: Vec<u64> = flag_value(args, "--seeds")
        .ok_or("sweep: missing --seeds 1,2,3")?
        .split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("bad seed: {e}")))
        .collect::<Result<_, String>>()?;
    let threads: usize = flag_value(args, "--threads")
        .map(|s| s.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?
        .unwrap_or(0);
    let scenario = load_scenario(path)?;
    let cells: Vec<Scenario> = seeds.iter().map(|&s| scenario.with_seed(s)).collect();
    let results = run_scenarios(&cells, threads)?;
    println!("seed  rebuf_s/user  energy_kj  completion");
    for (seed, r) in seeds.iter().zip(&results) {
        println!(
            "{seed:<5} {:>12.1} {:>10.2} {:>11.2}",
            r.mean_rebuffer_per_user_s(),
            r.total_energy_kj(),
            r.completion_rate()
        );
    }
    let mean_rebuf = results
        .iter()
        .map(|r| r.mean_rebuffer_per_user_s())
        .sum::<f64>()
        / results.len() as f64;
    let mean_kj = results.iter().map(|r| r.total_energy_kj()).sum::<f64>() / results.len() as f64;
    println!("mean  {mean_rebuf:>12.1} {mean_kj:>10.2}");
    Ok(())
}
