//! Golden-trace snapshot tests: small contended scenarios (RTMA, EMA
//! and EMA-fast, 3 users, 200 slots, seed 42) are traced every slot and
//! the JSONL export is diffed byte-for-byte against committed files under
//! `tests/golden/`.
//!
//! Any engine, scheduler, RRC or serialization change that shifts a
//! single allocation unit, millijoule, queue value or float formatting
//! decision shows up here as a line-level diff. To bless intentional
//! changes run `scripts/regen-golden.sh` (which reruns this harness with
//! `REGEN_GOLDEN=1` so the scenario definitions live in exactly one
//! place) and review the diff before committing.

use jmso_sim::{
    AbrPolicy, AbrSpec, AdmissionSpec, ArrivalSpec, BitrateLadder, CapacitySpec, EngineCheckpoint,
    FaultEvent, FaultSpec, MultiCellResult, MultiCellScenario, NullRecorder, RunOutcome, Scenario,
    SchedulerSpec, SessionLength, SidecarPrinter, SlotDriver, SlotTrace, TailPricing,
    TraceRecorder, WorkloadSpec,
};
use rand::{RngExt, SeedableRng, StdRng};
use std::path::PathBuf;

/// The golden cell: 3 users at 300–600 KB/s competing for a constant
/// 900 KB/s — undersized on purpose so allocation, rebuffering deltas and
/// RRC transitions all stay busy for the whole 200-slot horizon.
fn golden_scenario(spec: SchedulerSpec) -> Scenario {
    let mut s = Scenario::paper_default(3);
    s.slots = 200;
    s.seed = 42;
    s.capacity = CapacitySpec::Constant { kbps: 900.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (60_000.0, 120_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.scheduler = spec;
    s
}

/// The faulted golden cell: the same contended scenario under EMA with a
/// clamped virtual queue, plus a declared fault plan that exercises every
/// single-cell event kind. The trace must carry the injected fault notes
/// and the scheduler's degradation events, so this file pins both the
/// fault semantics and their telemetry encoding.
fn faulted_golden_scenario() -> Scenario {
    let mut s = golden_scenario(SchedulerSpec::Ema {
        v: 1.0,
        tail: TailPricing::PerSlot,
        reference_dp: false,
        pc_clamp: Some(5.0),
    });
    s.faults = FaultSpec::Declared {
        events: vec![
            FaultEvent::DeepFade {
                user: 0,
                from_slot: 20,
                until_slot: 60,
                depth_db: 25.0,
            },
            FaultEvent::LinkOutage {
                user: 1,
                from_slot: 80,
                until_slot: 120,
            },
            FaultEvent::CapDegradation {
                from_slot: 100,
                until_slot: 150,
                factor: 0.4,
            },
            FaultEvent::Departure { user: 2, slot: 160 },
        ],
    };
    s
}

/// The ABR golden cell: the same contended Default-scheduler scenario
/// with a three-rung ladder and a buffer-based policy. 900 KB/s against
/// three 300–600 KB/s streams keeps buffers pinned low, so the clients
/// ratchet down — the trace pins the rung-switch records (`abr`) and
/// every allocation shift the reduced rates cause downstream.
fn abr_golden_scenario() -> Scenario {
    let mut s = golden_scenario(SchedulerSpec::Default);
    s.abr = Some(AbrSpec {
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
    s
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden_scenario(name: &str, scenario: &Scenario) {
    let (result, trace) = scenario.run_traced(1).unwrap();
    assert_eq!(trace.meta.slots, result.slots_run);
    assert_eq!(trace.meta.n_users, 3);
    check_golden_trace(name, &trace);
}

fn check_golden_trace(name: &str, trace: &SlotTrace) {
    let jsonl = trace.to_jsonl();

    let path = golden_path(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &jsonl).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run scripts/regen-golden.sh",
            path.display()
        )
    });
    if golden != jsonl {
        // Point at the first diverging line instead of dumping both files.
        for (i, (want, got)) in golden.lines().zip(jsonl.lines()).enumerate() {
            assert_eq!(
                want,
                got,
                "{name}: trace diverges from golden at line {} \
                 (run scripts/regen-golden.sh to bless intentional changes)",
                i + 1
            );
        }
        panic!(
            "{name}: trace length changed: golden has {} lines, new trace has {}",
            golden.lines().count(),
            jsonl.lines().count()
        );
    }

    // The committed bytes must also parse back to the exact trace the run
    // produced (guards the parser against schema drift the diff can't see).
    assert_eq!(&SlotTrace::from_jsonl(&golden).unwrap(), trace);
}

#[test]
fn rtma_trace_matches_golden() {
    check_golden_scenario(
        "rtma.trace.jsonl",
        &golden_scenario(SchedulerSpec::RtmaUnbounded),
    );
}

#[test]
fn ema_trace_matches_golden() {
    check_golden_scenario(
        "ema.trace.jsonl",
        &golden_scenario(SchedulerSpec::ema_dp(1.0)),
    );
}

#[test]
fn ema_fast_trace_matches_golden() {
    check_golden_scenario(
        "ema_fast.trace.jsonl",
        &golden_scenario(SchedulerSpec::ema_fast(1.0)),
    );
}

/// `ema_fast` names the same policy and solver as `ema`, so the two
/// committed goldens may differ in their header line (which carries the
/// scheduler name) and nowhere else.
#[test]
fn ema_and_ema_fast_golden_bodies_are_equal() {
    let read = |name| std::fs::read_to_string(golden_path(name)).unwrap();
    let (ema, fast) = (read("ema.trace.jsonl"), read("ema_fast.trace.jsonl"));
    assert_ne!(
        ema.lines().next(),
        fast.lines().next(),
        "headers name the spec"
    );
    assert_eq!(ema.lines().count(), fast.lines().count());
    for (i, (a, b)) in ema.lines().zip(fast.lines()).enumerate().skip(1) {
        assert_eq!(a, b, "golden bodies diverge at line {}", i + 1);
    }
}

#[test]
fn abr_trace_matches_golden() {
    let scenario = abr_golden_scenario();
    check_golden_scenario("abr.trace.jsonl", &scenario);

    // Beyond byte equality: the congested cell must actually switch
    // rungs, or the golden is pinning a ladder nobody climbs.
    let (_, trace) = scenario.run_traced(1).unwrap();
    assert!(
        trace.to_jsonl().contains("\"abr\""),
        "abr golden carries no rung-switch records — ABR is not reaching telemetry"
    );
}

#[test]
fn faulted_trace_matches_golden() {
    let scenario = faulted_golden_scenario();
    check_golden_scenario("faulted.trace.jsonl", &scenario);

    // Beyond byte equality: the fault plan must actually leave its marks
    // in the trace — injected fault notes and scheduler degradations.
    let (_, trace) = scenario.run_traced(1).unwrap();
    let jsonl = trace.to_jsonl();
    assert!(
        jsonl.contains("\"faults\""),
        "faulted golden carries no fault notes — injection is not reaching telemetry"
    );
    assert!(
        jsonl.contains("\"deg\""),
        "faulted golden carries no degradation events — pc_clamp never fired"
    );
}

/// The multicell golden: three of the contended golden cells, twelve
/// roaming users, best-effort RTMA with a binding Φ, and a fault plan
/// that takes one cell out and fades one user — so the one trace carries
/// handovers, per-cell budgets, fault notes, degradation events and RRC
/// transitions, in the order the multicell stepper emits them.
#[test]
fn multicell_trace_matches_golden() {
    let mut base = golden_scenario(SchedulerSpec::Rtma {
        phi_mj: 400.0,
        best_effort: true,
    });
    base.n_users = 12;
    base.slots = 400;
    base.faults = FaultSpec::Declared {
        events: vec![
            FaultEvent::CellOutage {
                cell: 1,
                from_slot: 50,
                until_slot: 120,
            },
            FaultEvent::DeepFade {
                user: 4,
                from_slot: 200,
                until_slot: 260,
                depth_db: 25.0,
            },
        ],
    };
    let mc = MultiCellScenario {
        base,
        n_cells: 3,
        handover_prob: 0.1,
    };
    let (result, trace) = mc.run_traced(1).unwrap();
    assert_eq!(trace.meta.slots, result.result.slots_run);
    assert_eq!(trace.meta.n_users, 12);
    assert!(result.handovers > 0, "nobody roamed");
    check_golden_trace("multicell.trace.jsonl", &trace);

    let jsonl = trace.to_jsonl();
    for key in ["\"faults\"", "\"rrc\":[{", "\"deg\""] {
        assert!(jsonl.contains(key), "multicell golden carries no {key}");
    }
}

/// FNV-1a, 16 hex digits (the digest `benchmark/expected/` uses).
fn fnv1a(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Everything a multicell run reports that is not wall-clock, as JSON.
fn multicell_result_json(r: &MultiCellResult) -> String {
    [
        serde_json::to_string(&r.result.per_user).unwrap(),
        serde_json::to_string(&r.result.slots_run).unwrap(),
        serde_json::to_string(&r.result.fairness_series).unwrap(),
        serde_json::to_string(&r.result.power_series_j).unwrap(),
        serde_json::to_string(&r.handovers).unwrap(),
        serde_json::to_string(&r.mean_cell_occupancy).unwrap(),
    ]
    .join("\n")
}

/// The scenarios behind `tests/golden/multicell.digests`: four policies ×
/// {2, 3, 8} cells × three handover rates × {fault-free, a generated plan
/// plus one cell outage and one cell degradation}, series on, the cell
/// budget off the δ grid in a third of them and a single-rung ladder in
/// a fifth — then the twelve runs behind `exp_multicell`'s four rows.
fn multicell_digest_scenarios() -> Vec<(String, MultiCellScenario)> {
    let specs = [
        ("default", SchedulerSpec::Default),
        ("rtma", SchedulerSpec::RtmaUnbounded),
        (
            "rtma400",
            SchedulerSpec::Rtma {
                phi_mj: 400.0,
                best_effort: true,
            },
        ),
        ("ema_fast", SchedulerSpec::ema_fast(0.5)),
    ];
    let mut out = Vec::new();
    for (name, spec) in &specs {
        for n_cells in [2usize, 3, 8] {
            for p in [0.0, 0.05, 0.3] {
                for faulted in [false, true] {
                    let k = out.len();
                    let mut base = golden_scenario(spec.clone());
                    base.n_users = 2 * n_cells + 3;
                    base.slots = 300;
                    base.seed = 42 + k as u64;
                    base.record_series = true;
                    base.capacity = CapacitySpec::Constant {
                        kbps: [900.0, 937.0, 1_210.5][k % 3],
                    };
                    if k % 5 == 0 {
                        base.abr = Some(AbrSpec {
                            ladder: BitrateLadder {
                                multipliers: vec![1.0],
                            },
                            chunk_slots: 4,
                            policy: AbrPolicy::BufferBased {
                                low_s: 4.0,
                                high_s: 12.0,
                            },
                            initial_rung: None,
                        });
                    }
                    if faulted {
                        let mut events = FaultSpec::Generated {
                            seed: k as u64,
                            n_events: 6,
                        }
                        .events(base.n_users, base.slots);
                        events.push(FaultEvent::CellDegradation {
                            cell: n_cells - 1,
                            from_slot: 30,
                            until_slot: 140,
                            factor: 0.37,
                        });
                        events.push(FaultEvent::CellOutage {
                            cell: 0,
                            from_slot: 100,
                            until_slot: 130,
                        });
                        base.faults = FaultSpec::Declared { events };
                    }
                    let label = format!(
                        "{name}/cells={n_cells}/p={p}/{}",
                        if faulted { "faulted" } else { "clean" }
                    );
                    out.push((
                        label,
                        MultiCellScenario {
                            base,
                            n_cells,
                            handover_prob: p,
                        },
                    ));
                }
            }
        }
    }
    for p in [0.0, 0.005, 0.02, 0.05] {
        for (name, spec) in [
            ("default", SchedulerSpec::Default),
            ("rtma", SchedulerSpec::RtmaUnbounded),
            ("ema_fast", SchedulerSpec::ema_fast(0.5)),
        ] {
            let mut base = Scenario::paper_default(40);
            base.workload = WorkloadSpec::paper_default().with_mean_size_mb(350.0);
            base.capacity = CapacitySpec::Constant { kbps: 5_000.0 };
            base.scheduler = spec;
            out.push((
                format!("exp_multicell/{name}/p={p}"),
                MultiCellScenario {
                    base,
                    n_cells: 4,
                    handover_prob: p,
                },
            ));
        }
    }
    out
}

/// `tests/golden/multicell.digests` was written by the two-engine tree
/// (commit fef6461, before `multicell.rs` became a front of the one
/// engine): per scenario, a digest of the result and one of the full
/// per-slot trace. Every multicell run path must still print them.
#[test]
fn multicell_digests_match_parent() {
    let mut lines = String::new();
    for (label, mc) in multicell_digest_scenarios() {
        let (traced, trace) = mc.run_traced(1).unwrap();
        let result = multicell_result_json(&traced);
        assert_eq!(
            multicell_result_json(&mc.run().unwrap()),
            result,
            "{label}: run"
        );
        lines += &format!(
            "{label} {} {}\n",
            fnv1a(result.as_bytes()),
            fnv1a(trace.to_jsonl().as_bytes())
        );
    }

    let path = golden_path("multicell.digests");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap();
    for (want, got) in golden.lines().zip(lines.lines()) {
        assert_eq!(want, got, "a multicell run moved");
    }
    assert_eq!(golden.lines().count(), lines.lines().count());
}

/// The open sidecar's cell: Poisson arrivals every other slot into room
/// for about two sessions, a three-rung ABR ladder, feasibility
/// admission that defers up to 30 slots, and a generated fault plan.
fn open_sidecar_scenario() -> Scenario {
    let mut s = Scenario::paper_default(200);
    s.slots = 300;
    s.seed = 11;
    s.capacity = CapacitySpec::Constant { kbps: 1_200.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (2_000.0, 3_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    s.arrivals = ArrivalSpec::Poisson {
        mean_interval_slots: 2.0,
        diurnal: None,
        session_slots: Some(SessionLength::Exponential { mean_slots: 20.0 }),
    };
    s.abr = Some(AbrSpec {
        ladder: BitrateLadder {
            multipliers: vec![0.5, 0.75, 1.0],
        },
        ..AbrSpec::single_rung()
    });
    s.admission = Some(AdmissionSpec::Feasibility {
        v: 1.0,
        omega_s: None,
        phi_mj: None,
        max_defer_slots: 30,
    });
    s.faults = FaultSpec::Generated {
        seed: 5,
        n_events: 8,
    };
    s
}

/// The closed VBR sidecar's cell: eight users on the five-level ladder
/// of the VBR ablation, contending for a constant 2.4 MB/s.
fn vbr_sidecar_scenario() -> Scenario {
    let mut s = Scenario::paper_default(8);
    s.slots = 300;
    s.seed = 3;
    s.capacity = CapacitySpec::Constant { kbps: 2_400.0 };
    s.workload = WorkloadSpec {
        size_range_kb: (60_000.0, 120_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: Some(vec![0.75, 1.25, 1.0, 0.85, 1.15]),
        vbr_segment_slots: 30,
    };
    s.scheduler = SchedulerSpec::ema_fast(1.0);
    s
}

/// The untraced sidecar of `scenario` at the top of `slot`, as JSON.
fn sidecar_json(scenario: &Scenario, slot: u64) -> String {
    match scenario.run_until(&mut NullRecorder, slot).unwrap() {
        RunOutcome::Paused(ck) => ck.to_json().unwrap(),
        RunOutcome::Done(_) => panic!("the run ended before slot {slot}"),
    }
}

/// `tests/golden/sidecar.digests`: the bytes of two mid-run sidecars,
/// an open cell's at slot 200 (with deferred arrivals outstanding) and
/// a closed VBR cell's at slot 150. A change to what a sidecar carries
/// or how it prints shows up here.
#[test]
fn sidecar_digests_match() {
    let open = sidecar_json(&open_sidecar_scenario(), 200);
    // Not vacuous: a deferred user is due at the next slot, and the
    // admission state carries their count.
    assert!(
        open.contains("\"arrival_slot\":201"),
        "no deferral outstanding"
    );
    let vbr = sidecar_json(&vbr_sidecar_scenario(), 150);
    assert!(vbr.contains("\"rates_kbps\":["), "not a VBR cell");
    let lines = format!(
        "open/slot=200 {}\nvbr/slot=150 {}\n",
        fnv1a(open.as_bytes()),
        fnv1a(vbr.as_bytes())
    );

    let path = golden_path("sidecar.digests");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run scripts/regen-golden.sh",
            path.display()
        )
    });
    assert_eq!(golden, lines, "a sidecar's bytes moved");
}

/// Step `driver` to the end as the daemon does — records drained after
/// every slot — and at every slot boundary print the sidecar three ways:
/// the derived `Serialize` layout, `to_json`, and `printer`, which reuses
/// the rows of the sidecar it printed before. All three must agree byte
/// for byte. Returns the sidecar of `stop_at` and the rows reused.
fn print_every_boundary(
    mut driver: SlotDriver,
    rec: &mut TraceRecorder,
    printer: &mut SidecarPrinter,
    stop_at: u64,
) -> (Option<EngineCheckpoint>, usize) {
    let (mut kept, mut reused) = (None, 0);
    loop {
        let ck = driver.checkpoint(rec).unwrap();
        let cold = ck.to_json().unwrap();
        if ck.slot() == stop_at {
            assert_eq!(cold, serde_json::to_string(&ck).unwrap(), "slot {stop_at}");
            kept = Some(ck.clone());
        }
        let slot = ck.slot();
        assert!(*printer.print(ck) == cold, "slot {slot}");
        reused += printer.reused_rows();
        if driver.is_finished() {
            return (kept, reused);
        }
        driver.step(rec);
        rec.take_records();
    }
}

/// The reusing sidecar printer equals a cold `to_json` at every slot
/// boundary of the open sidecar cell (Poisson churn, ABR, deferred
/// admissions, faults) and of the ABR golden cell; then again after a
/// resume from a sidecar of a random slot, with the printer carried over
/// from the first run and with a fresh one.
#[test]
fn reusing_sidecar_printer_equals_to_json() {
    let mut rng = StdRng::seed_from_u64(41);
    for scenario in [open_sidecar_scenario(), abr_golden_scenario()] {
        let resume_at = rng.random_range(1..scenario.slots);
        let mut rec = scenario.trace_recorder(1);
        let driver = scenario.driver(&mut rec, None).unwrap();
        let mut printer = SidecarPrinter::default();
        let (ck, reused) = print_every_boundary(driver, &mut rec, &mut printer, resume_at);
        assert!(reused > 0, "no row was ever reused");
        let ck = ck.unwrap_or_else(|| panic!("the run ended before slot {resume_at}"));
        for mut printer in [printer, SidecarPrinter::default()] {
            let mut rec = scenario.trace_recorder(1);
            let driver = scenario.driver(&mut rec, Some(&ck)).unwrap();
            print_every_boundary(driver, &mut rec, &mut printer, u64::MAX);
        }
    }
}
