//! Extension experiments beyond the paper's figures:
//!
//! * [`exp_theorem1`] — empirical validation of Theorem 1's scalings
//!   (energy gap shrinks like B/V, queue/rebuffering grows at most
//!   linearly in V);
//! * [`exp_baselines`] — RTMA/EMA against the classical cellular
//!   schedulers (round-robin, proportional-fair) the paper does not
//!   compare with, isolating the value of the cross-layer video signals;
//! * [`exp_startup`] — the startup-versus-mid-stream split of Eq. (8)'s
//!   rebuffering for every policy.

use crate::common::{paper_cell, FigureOutput};
use jmso_sched::{drift_bound_b, SchedulerSpec};
use jmso_sim::report::Table;
use jmso_sim::{
    calibrate_default, fit_v_for_omega, parallel_map, ArrivalSpec, MultiCellScenario, Scenario,
};

/// Theorem 1 validation: sweep V and report the measured per-slot energy
/// `E(n)` and queue/rebuffering against the bound terms. Theorem 1 says
/// `PE∞ ≤ E* + B/V` and `PC∞ ≤ (B + V·E*)/ε`: the energy excess over the
/// best observed should shrink no slower than ∝ 1/V, and rebuffering
/// should grow at most ∝ V.
pub fn exp_theorem1() -> FigureOutput {
    let scenario = paper_cell(40, 350.0);
    let vs = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];
    let results = parallel_map(&vs, 0, |&v| {
        scenario
            .with_scheduler(SchedulerSpec::ema(v))
            .run()
            .expect("theorem1 run")
    });
    let b = theorem1_b(&scenario);
    // E* is unknown; the smallest measured per-slot energy upper-bounds it.
    let e_star_ub = results
        .iter()
        .map(|r| r.total_energy().total().value() / r.slots_run as f64)
        .fold(f64::INFINITY, f64::min);

    let mut t = Table::new(vec![
        "v",
        "pe_mj_per_slot",
        "pe_excess_over_best",
        "b_over_v",
        "pc_s_per_slot",
        "rebuf_per_user_s",
    ]);
    for (v, r) in vs.iter().zip(&results) {
        let pe = r.total_energy().total().value() / r.slots_run as f64;
        let pc = r.total_rebuffer_s() / r.slots_run as f64;
        t.push(vec![
            *v,
            pe,
            pe - e_star_ub,
            b / v,
            pc,
            r.mean_rebuffer_per_user_s(),
        ]);
    }
    FigureOutput {
        id: "exp_theorem1",
        title: format!(
            "Theorem 1 scalings at N=40 (B = {b:.0} s²; energy excess ≲ B/V, rebuffering ≲ ∝V)"
        ),
        table: t,
    }
}

/// Theorem 1's drift constant B for `scenario`'s cell. t_max is the
/// largest playback time one slot's shard can carry: the best link
/// (4 277 KB/s) at the lowest rate (300 KB/s).
fn theorem1_b(scenario: &Scenario) -> f64 {
    drift_bound_b(scenario.n_users, scenario.tau, 4277.0 / 300.0)
}

/// RTMA/EMA vs the classical cellular schedulers (extension baselines).
pub fn exp_baselines() -> FigureOutput {
    let users = [20usize, 30, 40];
    let rows = parallel_map(&users, 0, |&n| {
        let scenario = paper_cell(n, 350.0);
        let cal = calibrate_default(&scenario).expect("calibration");
        let run = |spec: SchedulerSpec| scenario.with_scheduler(spec).run().expect("run");
        let rr = run(SchedulerSpec::RoundRobin);
        let pf = run(SchedulerSpec::pf_default());
        let rtma = run(SchedulerSpec::rtma(cal.phi_for_alpha(1.0)));
        let (v, _) =
            fit_v_for_omega(&scenario, cal.omega_for_beta(1.0), 0.02, 100.0, 9).expect("fit");
        let ema = run(SchedulerSpec::ema(v));
        vec![
            n as f64,
            rr.mean_rebuffer_per_user_s(),
            pf.mean_rebuffer_per_user_s(),
            rtma.mean_rebuffer_per_user_s(),
            rr.total_energy_kj(),
            pf.total_energy_kj(),
            ema.total_energy_kj(),
        ]
    });
    let mut t = Table::new(vec![
        "users",
        "rr_rebuf_s",
        "pf_rebuf_s",
        "rtma_rebuf_s",
        "rr_kj",
        "pf_kj",
        "ema_b1_kj",
    ]);
    for row in rows {
        t.push(row);
    }
    FigureOutput {
        id: "exp_baselines",
        title: "RTMA/EMA vs classical cellular schedulers (round-robin, proportional-fair)".into(),
        table: t,
    }
}

/// Multi-cell deployment with roaming users: 4 cells of 5 MB/s each, 40
/// users total (same aggregate capacity as the paper cell), handover
/// probability swept. The framework claim under test: one scheduler
/// instance per BS still beats Default when users roam between
/// schedulers mid-session.
pub fn exp_multicell() -> FigureOutput {
    let probs = [0.0, 0.005, 0.02, 0.05];
    let rows = parallel_map(&probs, 0, |&p| {
        let mut base = paper_cell(40, 350.0);
        base.capacity = jmso_sim::CapacitySpec::Constant { kbps: 5_000.0 };
        let run = |spec: SchedulerSpec| {
            let mc = MultiCellScenario {
                base: base.with_scheduler(spec),
                n_cells: 4,
                handover_prob: p,
            };
            mc.run().expect("multicell run")
        };
        let default = run(SchedulerSpec::Default);
        let rtma = run(SchedulerSpec::RtmaUnbounded);
        let ema = run(SchedulerSpec::ema(0.5));
        vec![
            p,
            default.result.mean_rebuffer_per_user_s(),
            rtma.result.mean_rebuffer_per_user_s(),
            default.result.total_energy_kj(),
            ema.result.total_energy_kj(),
            rtma.handovers as f64,
        ]
    });
    let mut t = Table::new(vec![
        "handover_prob",
        "default_rebuf_s",
        "rtma_rebuf_s",
        "default_kj",
        "ema_v0.5_kj",
        "handovers",
    ]);
    for row in rows {
        t.push(row);
    }
    FigureOutput {
        id: "exp_multicell",
        title: "4-cell deployment with roaming users (per-cell schedulers), N=40".into(),
        table: t,
    }
}

/// Staggered session arrivals: the paper synchronizes all starts; real
/// cells see churn. Sweep the mean inter-arrival gap and check the
/// headline comparisons survive desynchronization.
pub fn exp_arrivals() -> FigureOutput {
    let gaps = [0.0, 10.0, 30.0, 60.0];
    let rows = parallel_map(&gaps, 0, |&gap| {
        let mut scenario = paper_cell(40, 350.0);
        if gap > 0.0 {
            scenario.arrivals = ArrivalSpec::Staggered {
                mean_interval_slots: gap,
            };
        }
        let cal = calibrate_default(&scenario).expect("calibration");
        let run = |spec: SchedulerSpec| scenario.with_scheduler(spec).run().expect("run");
        let default = run(SchedulerSpec::Default);
        let rtma = run(SchedulerSpec::rtma(cal.phi_for_alpha(1.0)));
        let ema = run(SchedulerSpec::ema(0.5));
        vec![
            gap,
            default.mean_rebuffer_per_user_s(),
            rtma.mean_rebuffer_per_user_s(),
            default.total_energy_kj(),
            ema.total_energy_kj(),
        ]
    });
    let mut t = Table::new(vec![
        "mean_gap_slots",
        "default_rebuf_s",
        "rtma_rebuf_s",
        "default_kj",
        "ema_v0.5_kj",
    ]);
    for row in rows {
        t.push(row);
    }
    FigureOutput {
        id: "exp_arrivals",
        title: "Staggered session arrivals (mean inter-arrival gap, slots), N=40".into(),
        table: t,
    }
}

/// Startup vs mid-stream split of Eq. (8)'s rebuffering per policy, N=40.
pub fn exp_startup() -> FigureOutput {
    let scenario = paper_cell(40, 350.0);
    let cal = calibrate_default(&scenario).expect("calibration");
    let specs: Vec<(f64, SchedulerSpec)> = vec![
        (0.0, SchedulerSpec::Default),
        (1.0, SchedulerSpec::rtma(cal.phi_for_alpha(1.0))),
        (2.0, SchedulerSpec::ema(0.5)),
        (3.0, SchedulerSpec::onoff_default()),
        (4.0, SchedulerSpec::estreamer_default()),
        (5.0, SchedulerSpec::RoundRobin),
    ];
    let results = parallel_map(&specs, 0, |(_, spec)| {
        scenario.with_scheduler(spec.clone()).run().expect("run")
    });
    let mut t = Table::new(vec![
        "policy_idx",
        "total_rebuf_s",
        "startup_s",
        "midstream_s",
    ]);
    for ((idx, _), r) in specs.iter().zip(&results) {
        t.push(vec![
            *idx,
            r.total_rebuffer_s(),
            r.total_startup_s(),
            r.total_midstream_rebuffer_s(),
        ]);
    }
    FigureOutput {
        id: "exp_startup",
        title: "Startup vs mid-stream rebuffering split, N=40 (rows: Default, RTMA, EMA(V=0.5), ON-OFF, EStreamer, RoundRobin)".into(),
        table: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `exp_theorem1`'s `b_over_v` column at V = 2, by hand: N = 40,
    /// τ = 1 s, t_max = 4277/300 s, so B/V = ½·40·(1 + 4277²/300²)/2
    /// = 2042.525 444….
    #[test]
    fn theorem1_b_over_v_by_hand() {
        let scenario = paper_cell(40, 350.0);
        assert_eq!(scenario.tau, 1.0);
        let b_over_v = theorem1_b(&scenario) / 2.0;
        assert!((b_over_v - 2_042.525_444_444).abs() < 1e-6, "{b_over_v}");
    }
}
