//! EMA evaluation figures (paper Figs. 6–9).

use crate::common::{
    cdf_table, paper_cell, stats_over_seeds, FigureOutput, SIZE_SWEEP, USER_SWEEP,
};
use jmso_sim::report::Table;
use jmso_sim::{
    calibrate_default, fit_v_for_omega, parallel_map, Scenario, SchedulerSpec, SimResult,
};

/// Bisection bracket/steps for the Ω → V fit (see `sim::fit_v_for_omega`).
const V_LO: f64 = 0.02;
const V_HI: f64 = 100.0;
const V_ITERS: u32 = 9;

/// EMA spec meeting the rebuffering bound β·R_Default on this scenario.
fn ema_spec_for_beta(scenario: &Scenario, beta: f64) -> SchedulerSpec {
    let cal = calibrate_default(scenario).expect("calibration");
    let omega = cal.omega_for_beta(beta);
    let (v, _) = fit_v_for_omega(scenario, omega, V_LO, V_HI, V_ITERS).expect("fit V");
    SchedulerSpec::ema(v)
}

/// EMA spec meeting an explicit per-active-slot rebuffering bound.
fn ema_spec_for_omega(scenario: &Scenario, omega_s: f64) -> SchedulerSpec {
    let (v, _) = fit_v_for_omega(scenario, omega_s, V_LO, V_HI, V_ITERS).expect("fit V");
    SchedulerSpec::ema(v)
}

fn cdf_cell() -> Scenario {
    let mut s = paper_cell(40, 350.0);
    s.record_series = true;
    s
}

fn run_pair(scenario: &Scenario, spec: SchedulerSpec) -> (SimResult, SimResult) {
    let cells = [scenario.clone(), scenario.with_scheduler(spec)];
    let mut out = parallel_map(&cells[..], 0, |s| s.run().expect("cdf run")).into_iter();
    (out.next().unwrap(), out.next().unwrap())
}

/// Fig. 6 — CDF of the per-slot Jain fairness index, Default vs EMA
/// (N = 40, 350 MB, β = 1).
pub fn fig6() -> FigureOutput {
    let scenario = cdf_cell();
    let spec = ema_spec_for_beta(&scenario, 1.0);
    let (default, ema) = run_pair(&scenario, spec);
    FigureOutput {
        id: "fig6",
        title: "CDF of per-slot Jain fairness index (N=40, 350 MB, β=1)".into(),
        table: cdf_table(
            "fairness",
            vec![
                ("default", default.fairness_series),
                ("ema", ema.fairness_series),
                ("default_w10", default.fairness_window_series),
                ("ema_w10", ema.fairness_window_series),
            ],
            41,
        ),
    }
}

/// Fig. 7 — CDF of per-slot total power (J across all users), Default vs
/// EMA (N = 40, 350 MB, β = 1). Only slots with any active session are
/// compared (after every session ends the series is all-zero padding).
pub fn fig7() -> FigureOutput {
    let scenario = cdf_cell();
    let spec = ema_spec_for_beta(&scenario, 1.0);
    let (default, ema) = run_pair(&scenario, spec);
    let live = |r: &SimResult| -> Vec<f64> {
        r.power_series_j
            .iter()
            .copied()
            .filter(|p| *p > 1e-9)
            .collect()
    };
    FigureOutput {
        id: "fig7",
        title: "CDF of per-slot total power (J), Default vs EMA (N=40, β=1)".into(),
        table: cdf_table(
            "power_j",
            vec![("default", live(&default)), ("ema", live(&ema))],
            41,
        ),
    }
}

/// Shared body of Figs. 8a/8b: total energy (kJ), Default vs EMA at
/// β ∈ {1.2, 1, 0.8}.
fn fig8_body(
    id: &'static str,
    title: String,
    x_label: &str,
    cells: Vec<(f64, Scenario)>,
) -> FigureOutput {
    let rows = parallel_map(&cells, 0, |(x, scenario)| {
        let run = |spec: SchedulerSpec| stats_over_seeds(scenario, &spec).energy_total_kj;
        vec![
            *x,
            run(SchedulerSpec::Default),
            run(ema_spec_for_beta(scenario, 1.2)),
            run(ema_spec_for_beta(scenario, 1.0)),
            run(ema_spec_for_beta(scenario, 0.8)),
        ]
    });
    let mut table = Table::new(vec![
        x_label.to_string(),
        "default".into(),
        "ema_b1.2".into(),
        "ema_b1.0".into(),
        "ema_b0.8".into(),
    ]);
    for row in rows {
        table.push(row);
    }
    FigureOutput { id, title, table }
}

/// Fig. 8a — total energy (kJ) vs user number, EMA β ∈ {1.2, 1.0, 0.8}.
pub fn fig8a() -> FigureOutput {
    let cells = USER_SWEEP
        .iter()
        .map(|&n| (n as f64, paper_cell(n, 350.0)))
        .collect();
    fig8_body(
        "fig8a",
        "Total energy (kJ) vs user number, EMA β ∈ {1.2, 1.0, 0.8}".into(),
        "users",
        cells,
    )
}

/// Fig. 8b — total energy (kJ) vs mean data amount (MB), N=30.
pub fn fig8b() -> FigureOutput {
    let cells = SIZE_SWEEP
        .iter()
        .map(|&mb| (mb, paper_cell(30, mb)))
        .collect();
    fig8_body(
        "fig8b",
        "Total energy (kJ) vs data amount (MB), N=30, EMA β ∈ {1.2, 1.0, 0.8}".into(),
        "data_mb",
        cells,
    )
}

/// Figs. 9a/9b — Default vs SALSA vs EStreamer vs EMA (Ω = EStreamer's
/// rebuffering) over the user sweep: (a) energy per active user-slot (mJ),
/// (b) rebuffering per active user-slot (ms).
pub fn fig9() -> (FigureOutput, FigureOutput) {
    let cells: Vec<(f64, Scenario)> = USER_SWEEP
        .iter()
        .map(|&n| (n as f64, paper_cell(n, 350.0)))
        .collect();
    let rows = parallel_map(&cells, 0, |(x, scenario)| {
        let stats = |spec: SchedulerSpec| stats_over_seeds(scenario, &spec);
        let estreamer = stats(SchedulerSpec::estreamer_default());
        // The paper sets Ω to EStreamer's measured rebuffering.
        let ema_spec = ema_spec_for_omega(scenario, estreamer.rebuf_per_active_ms / 1000.0);
        (
            *x,
            stats(SchedulerSpec::Default),
            stats(SchedulerSpec::salsa_default()),
            estreamer,
            stats(ema_spec),
        )
    });

    let mut energy = Table::new(vec!["users", "default", "salsa", "estreamer", "ema"]);
    let mut rebuf = Table::new(vec!["users", "default", "salsa", "estreamer", "ema"]);
    for (x, d, s, e, m) in rows {
        energy.push(vec![
            x,
            d.energy_per_active_mj,
            s.energy_per_active_mj,
            e.energy_per_active_mj,
            m.energy_per_active_mj,
        ]);
        rebuf.push(vec![
            x,
            d.rebuf_per_active_ms,
            s.rebuf_per_active_ms,
            e.rebuf_per_active_ms,
            m.rebuf_per_active_ms,
        ]);
    }
    (
        FigureOutput {
            id: "fig9a",
            title: "Energy per active user-slot (mJ) vs user number (Ω = EStreamer's rebuffering)"
                .into(),
            table: energy,
        },
        FigureOutput {
            id: "fig9b",
            title: "Rebuffering per active user-slot (ms) vs user number".into(),
            table: rebuf,
        },
    )
}
