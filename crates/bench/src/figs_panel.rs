//! Fig. 10 (the rebuffering–energy panel) and the paper's headline claims.

use crate::common::{paper_cell, FigureOutput, SEEDS, USER_SWEEP};
use jmso_sim::report::Table;
use jmso_sim::{calibrate_default, fit_v_for_omega, parallel_map, SchedulerSpec};

/// Fig. 10 — the "rebuffering time"–"energy" panel: for each user count
/// in 20..40, the (total energy, total rebuffering) point reached by
/// Default, RTMA (α = 1) and EMA (β = 1). RTMA's points drift along the
/// rebuffering axis, EMA's along the energy axis — the paper's headline
/// visual for the two complementary modes.
pub fn fig10() -> FigureOutput {
    let cells: Vec<usize> = USER_SWEEP.to_vec();
    let rows = parallel_map(&cells, 0, |&n| {
        let scenario = paper_cell(n, 350.0);
        let cal = calibrate_default(&scenario).expect("calibration");
        let run = |spec: SchedulerSpec| scenario.with_scheduler(spec).run().expect("fig10 run");
        let default = run(SchedulerSpec::Default);
        let rtma = run(SchedulerSpec::rtma(cal.phi_for_alpha(1.0)));
        let (v, _) =
            fit_v_for_omega(&scenario, cal.omega_for_beta(1.0), 0.02, 100.0, 9).expect("fit V");
        let ema = run(SchedulerSpec::ema(v));
        vec![
            n as f64,
            default.total_energy().total().joules(),
            default.total_rebuffer_s() / n as f64,
            rtma.total_energy().total().joules(),
            rtma.total_rebuffer_s() / n as f64,
            ema.total_energy().total().joules(),
            ema.total_rebuffer_s() / n as f64,
        ]
    });
    let mut table = Table::new(vec![
        "users",
        "default_energy_j",
        "default_rebuf_s",
        "rtma_energy_j",
        "rtma_rebuf_s",
        "ema_energy_j",
        "ema_rebuf_s",
    ]);
    for row in rows {
        table.push(row);
    }
    FigureOutput {
        id: "fig10",
        title: "Rebuffering–energy panel: Default vs RTMA(α=1) vs EMA(β=1), N ∈ 20..40".into(),
        table,
    }
}

/// How many seeds the headline runs: [`SEEDS`] first, then 1, 2, ….
const HEADLINE_SEEDS: usize = 30;

/// Student's t at 97.5 % with `HEADLINE_SEEDS − 1` = 29 degrees of
/// freedom: the half-width factor of a two-sided 95 % interval.
const T_975_29: f64 = 2.045_229_642;
const _: () = assert!(HEADLINE_SEEDS == 30, "T_975_29 is for 30 seeds");

/// The paper's number for each claim, in the table's row order (%).
const PAPER_PCT: [f64; 6] = [68.0, 68.0, 68.0, 48.0, 48.0, 27.0];

/// The headline's seeds, [`SEEDS`] first.
fn headline_seeds() -> Vec<u64> {
    SEEDS
        .iter()
        .copied()
        .chain(1..)
        .take(HEADLINE_SEEDS)
        .collect()
}

/// The `verdict` column's codes, from the 95 % interval `[lo, hi]` of a
/// claim whose paper number is `paper`: 2 *reproduced* (the interval's
/// low end clears the paper's number), 1 *borderline* (the interval
/// contains it), 0 *direction only* (the interval lies below it but
/// above 0), −1 *not reproduced* (the interval reaches 0).
fn verdict(lo: f64, hi: f64, paper: f64) -> f64 {
    if lo >= paper {
        2.0
    } else if hi >= paper {
        1.0
    } else if lo > 0.0 {
        0.0
    } else {
        -1.0
    }
}

/// The six headline reductions on one seed, in the table's row order (%).
fn headline_claims(seed: u64) -> [f64; 6] {
    let scenario = paper_cell(40, 350.0).with_seed(seed);
    let cal = calibrate_default(&scenario).expect("calibration");
    let run = |spec: SchedulerSpec| scenario.with_scheduler(spec).run().expect("headline run");

    let default = run(SchedulerSpec::Default);
    let throttling = run(SchedulerSpec::throttling_default());
    let onoff = run(SchedulerSpec::onoff_default());
    let salsa = run(SchedulerSpec::salsa_default());
    let estreamer = run(SchedulerSpec::estreamer_default());
    let rtma = run(SchedulerSpec::rtma(cal.phi_for_alpha(1.0)));
    // The paper's two EMA claims use two different bounds: the ≥48 % vs
    // Default/SALSA claim is at β = 1 (Ω = Default's rebuffering, §VI-B
    // Fig. 8); the ≥27 % vs EStreamer claim sets Ω to EStreamer's
    // rebuffering (§VI-B Fig. 9).
    let (v_beta1, _) =
        fit_v_for_omega(&scenario, cal.omega_for_beta(1.0), 0.02, 100.0, 9).expect("fit V");
    let ema_beta1 = run(SchedulerSpec::ema(v_beta1));
    let (v_est, _) = fit_v_for_omega(
        &scenario,
        estreamer.avg_rebuffer_per_active_slot(),
        0.02,
        100.0,
        9,
    )
    .expect("fit V");
    let ema_est = run(SchedulerSpec::ema(v_est));

    let pct = |ours: f64, theirs: f64| 100.0 * (1.0 - ours / theirs.max(1e-12));
    [
        pct(rtma.total_rebuffer_s(), default.total_rebuffer_s()),
        pct(rtma.total_rebuffer_s(), throttling.total_rebuffer_s()),
        pct(rtma.total_rebuffer_s(), onoff.total_rebuffer_s()),
        pct(ema_beta1.total_energy_kj(), default.total_energy_kj()),
        pct(ema_beta1.total_energy_kj(), salsa.total_energy_kj()),
        pct(ema_est.total_energy_kj(), estreamer.total_energy_kj()),
    ]
}

/// The paper's headline claims, §VI summary:
///
/// * RTMA reduces rebuffering by ≥ 68 % vs Default / Throttling / ON-OFF;
/// * EMA reduces energy by ≥ 48 % vs Default / SALSA and ≥ 27 % vs
///   EStreamer.
///
/// Measured at N = 40 (the paper's most congested point) on the paper
/// workload, once per seed: `SEEDS`, then 1, 2, … up to 30 seeds. One
/// row per claim, in that order: the paper's number, the mean reduction
/// and its 95 % interval, the range over the seeds, the share of seeds
/// at or above the paper's number (%), and the verdict code (2
/// reproduced, 1 borderline, 0 direction only, −1 not reproduced).
pub fn headline() -> FigureOutput {
    let per_seed = parallel_map(&headline_seeds(), 0, |&seed| headline_claims(seed));
    let mut table = Table::new(vec![
        "claim",
        "paper_pct",
        "mean_pct",
        "ci95_lo_pct",
        "ci95_hi_pct",
        "min_pct",
        "max_pct",
        "seeds_at_paper_pct",
        "verdict",
    ]);
    for (k, &paper) in PAPER_PCT.iter().enumerate() {
        let xs: Vec<f64> = per_seed.iter().map(|claims| claims[k]).collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let half = T_975_29 * (var / n).sqrt();
        let (lo, hi) = (mean - half, mean + half);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let at_paper = xs.iter().filter(|&&x| x >= paper).count() as f64;
        table.push(vec![
            (k + 1) as f64,
            paper,
            mean,
            lo,
            hi,
            min,
            max,
            100.0 * at_paper / n,
            verdict(lo, hi, paper),
        ]);
    }
    FigureOutput {
        id: "headline",
        title: format!(
            "Headline claims at N=40 over {HEADLINE_SEEDS} seeds (paper: RTMA ≥68 % rebuffering reduction, EMA ≥48 %/≥27 % energy reduction)"
        ),
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The name EXPERIMENTS.md gives a [`verdict`] code.
    fn verdict_name(code: f64) -> &'static str {
        match code as i8 {
            2 => "reproduced",
            1 => "borderline",
            0 => "direction only",
            _ => "not reproduced",
        }
    }

    /// EXPERIMENTS.md's headline table, row by row, is what
    /// `results/headline.csv` holds: the prose cannot drift from the file.
    #[test]
    fn experiments_md_quotes_the_headline_csv() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let csv = std::fs::read_to_string(format!("{root}/results/headline.csv")).unwrap();
        let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
        let want: Vec<[String; 5]> = csv
            .lines()
            .skip(1)
            .map(|line| {
                let v: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
                let seeds = (v[7] * HEADLINE_SEEDS as f64 / 100.0).round();
                [
                    format!("≥ {:.0} %", v[1]),
                    format!("{:.1} [{:.1}, {:.1}] %", v[2], v[3], v[4]),
                    format!("{:.1}–{:.1} %", v[5], v[6]),
                    format!("{seeds}/{HEADLINE_SEEDS}"),
                    verdict_name(v[8]).to_string(),
                ]
            })
            .collect();
        let got: Vec<Vec<&str>> = doc
            .split("## Headline claims")
            .nth(1)
            .unwrap()
            .lines()
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .map(|l| l.split('|').map(str::trim).skip(2).take(5).collect())
            .collect();
        let shown = want
            .iter()
            .map(|cells| format!("| … | {} |", cells.join(" | ")))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(got.len(), want.len(), "one row per claim:\n{shown}");
        for (row, cells) in got.iter().zip(&want) {
            assert_eq!(row[..4], cells[..4], "the file reads:\n{shown}");
            // A verdict may carry a pointer to its divergence, `(D1)`.
            let verdict = row[4].split(" (").next().unwrap();
            assert_eq!(verdict, cells[4], "the file reads:\n{shown}");
        }
    }

    #[test]
    fn verdicts_follow_the_interval() {
        assert_eq!(verdict_name(verdict(70.0, 75.0, 68.0)), "reproduced");
        assert_eq!(verdict_name(verdict(68.0, 75.0, 68.0)), "reproduced");
        assert_eq!(verdict_name(verdict(60.0, 68.0, 68.0)), "borderline");
        assert_eq!(verdict_name(verdict(1.0, 67.9, 68.0)), "direction only");
        assert_eq!(verdict_name(verdict(-1.0, 67.9, 68.0)), "not reproduced");
        assert_eq!(headline_seeds()[..3], SEEDS);
        assert_eq!(headline_seeds().len(), HEADLINE_SEEDS);
    }
}
