//! Ablations beyond the paper: sensitivity of the headline results to the
//! modeling choices DESIGN.md calls out (frame size δ, RSSI noise,
//! collector fidelity, channel model, EMA tail pricing, RRC profile, VBR).
//!
//! Each ablation fixes the paper cell (N = 40, 350 MB mean) and varies one
//! axis, reporting the metrics the headline claims rest on: Default/RTMA
//! rebuffering and Default/EMA energy.

use crate::common::{paper_cell, FigureOutput};
use jmso_sim::report::Table;
use jmso_sim::{
    calibrate_default, parallel_map, Scenario, SchedulerSpec, SignalSpec, TailPricing, WorkloadSpec,
};

/// Per-cell summary used by most ablations.
struct Row {
    default_rebuf_s: f64,
    rtma_rebuf_s: f64,
    default_kj: f64,
    ema_kj: f64,
}

fn measure(scenario: &Scenario) -> Row {
    let cal = calibrate_default(scenario).expect("calibration");
    let default = scenario.run().expect("default");
    let rtma = scenario
        .with_scheduler(SchedulerSpec::rtma(cal.phi_for_alpha(1.0)))
        .run()
        .expect("rtma");
    let ema = scenario
        .with_scheduler(SchedulerSpec::ema(0.5))
        .run()
        .expect("ema");
    Row {
        default_rebuf_s: default.mean_rebuffer_per_user_s(),
        rtma_rebuf_s: rtma.mean_rebuffer_per_user_s(),
        default_kj: default.total_energy_kj(),
        ema_kj: ema.total_energy_kj(),
    }
}

fn table_of(x_label: &str, xs: &[f64], rows: Vec<Row>) -> Table {
    let mut t = Table::new(vec![
        x_label.to_string(),
        "default_rebuf_s".into(),
        "rtma_rebuf_s".into(),
        "default_kj".into(),
        "ema_v0.5_kj".into(),
    ]);
    for (x, r) in xs.iter().zip(rows) {
        t.push(vec![
            *x,
            r.default_rebuf_s,
            r.rtma_rebuf_s,
            r.default_kj,
            r.ema_kj,
        ]);
    }
    t
}

/// Frame-size sensitivity: the paper leaves δ to the spreading factor; the
/// headline results should not hinge on our 50 KB default.
pub fn abl_delta() -> FigureOutput {
    let deltas = [10.0, 25.0, 50.0, 100.0, 200.0];
    let cells: Vec<Scenario> = deltas
        .iter()
        .map(|&d| {
            let mut s = paper_cell(40, 350.0);
            s.delta_kb = d;
            s
        })
        .collect();
    let rows = parallel_map(&cells, 0, measure);
    FigureOutput {
        id: "abl_delta",
        title: "Sensitivity to frame size δ (KB), N=40".into(),
        table: table_of("delta_kb", &deltas, rows),
    }
}

/// RSSI noise sensitivity (the paper's "30 dBm noise" is ambiguous —
/// DESIGN.md §3): vary σ and watch the headline metrics.
pub fn abl_noise() -> FigureOutput {
    let sigmas = [0.0, 4.0, 8.0, 12.0, 16.0];
    let cells: Vec<Scenario> = sigmas
        .iter()
        .map(|&noise| {
            let mut s = paper_cell(40, 350.0);
            s.signal = SignalSpec::Sine {
                mean_dbm: -80.0,
                amplitude_db: 30.0,
                period_slots: 600.0,
                noise_std_db: noise,
            };
            s
        })
        .collect();
    let rows = parallel_map(&cells, 0, measure);
    FigureOutput {
        id: "abl_noise",
        title: "Sensitivity to RSSI noise σ (dB), N=40".into(),
        table: table_of("noise_db", &sigmas, rows),
    }
}

/// Collector fidelity: stale and noisy channel reports (real gateways read
/// RSSI from measurement reports, not ground truth).
pub fn abl_collector() -> FigureOutput {
    let configs = [(0u64, 0.0f64), (2, 0.0), (4, 2.0), (8, 4.0), (16, 8.0)];
    let cells: Vec<Scenario> = configs
        .iter()
        .map(|&(staleness, noise)| {
            let mut s = paper_cell(40, 350.0);
            s.collector = jmso_sim::CollectorSpec {
                staleness_slots: staleness,
                signal_noise_std_db: noise,
            };
            s
        })
        .collect();
    let rows = parallel_map(&cells, 0, measure);
    let xs: Vec<f64> = configs.iter().map(|&(st, _)| st as f64).collect();
    FigureOutput {
        id: "abl_collector",
        title: "Sensitivity to collector staleness (slots; noise grows with it), N=40".into(),
        table: table_of("staleness_slots", &xs, rows),
    }
}

/// Channel-model ablation: the paper's sine vs a memoryless-ish Markov
/// chain. Rows: 0 = sine, 1 = Markov.
pub fn abl_signal() -> FigureOutput {
    let cells: Vec<Scenario> = vec![paper_cell(40, 350.0), {
        let mut s = paper_cell(40, 350.0);
        s.signal = SignalSpec::Markov {
            min_dbm: -110.0,
            max_dbm: -50.0,
            levels: 16,
            move_prob: 0.3,
        };
        s
    }];
    let rows = parallel_map(&cells, 0, measure);
    FigureOutput {
        id: "abl_signal",
        title: "Channel model ablation (row 0 = paper sine, row 1 = Markov chain), N=40".into(),
        table: table_of("model_idx", &[0.0, 1.0], rows),
    }
}

/// EMA tail-pricing ablation: literal Eq. (5) per-slot increment vs the
/// gap-amortized variant, across V.
pub fn abl_tail() -> FigureOutput {
    let vs = [0.1, 0.5, 2.0, 8.0];
    let scenario = paper_cell(40, 350.0);
    let cells: Vec<(f64, TailPricing)> = vs
        .iter()
        .flat_map(|&v| {
            [
                (v, TailPricing::PerSlot),
                (v, TailPricing::amortized_default()),
            ]
        })
        .collect();
    let results = parallel_map(&cells, 0, |(v, tail)| {
        scenario
            .with_scheduler(SchedulerSpec::Ema {
                v: *v,
                tail: *tail,
                pc_clamp: None,
            })
            .run()
            .expect("ema run")
    });
    let mut t = Table::new(vec![
        "v",
        "perslot_kj",
        "perslot_rebuf_s",
        "amortized_kj",
        "amortized_rebuf_s",
    ]);
    for (i, &v) in vs.iter().enumerate() {
        let per = &results[2 * i];
        let amo = &results[2 * i + 1];
        t.push(vec![
            v,
            per.total_energy_kj(),
            per.mean_rebuffer_per_user_s(),
            amo.total_energy_kj(),
            amo.mean_rebuffer_per_user_s(),
        ]);
    }
    FigureOutput {
        id: "abl_tail",
        title: "EMA idle-slot pricing: literal Eq. (5) vs gap-amortized, N=40".into(),
        table: t,
    }
}

/// RRC-profile ablation: the paper's 3G machine vs the LTE two-state
/// profile ("we can obtain similar results in LTE networks", §VI).
/// Rows: 0 = 3G, 1 = LTE.
pub fn abl_lte() -> FigureOutput {
    let cells: Vec<Scenario> = vec![paper_cell(40, 350.0), {
        let mut s = paper_cell(40, 350.0);
        s.models.rrc = jmso_radio::RrcConfig::lte();
        s
    }];
    let rows = parallel_map(&cells, 0, measure);
    FigureOutput {
        id: "abl_lte",
        title: "RRC profile ablation (row 0 = 3G, row 1 = LTE), N=40".into(),
        table: table_of("profile_idx", &[0.0, 1.0], rows),
    }
}

/// Slot-model fidelity: compare Eq. (3)'s slot-level energy against a
/// frame-by-frame simulation with the signal drifting *within* each slot
/// along the paper's sine. The paper's slot aggregation is sound exactly
/// when this error is negligible.
pub fn abl_frames() -> FigureOutput {
    use jmso_radio::{Dbm, FrameLevelLink};
    let link = FrameLevelLink::paper(50.0);
    // The paper's sine: −80 ± 30 dBm over 600 slots. Within-slot drift at
    // slot n is sig(n+1) − sig(n); measure the energy aggregation error at
    // representative phases and shard sizes.
    let sig = |n: f64| -80.0 + 30.0 * (std::f64::consts::TAU * n / 600.0).sin();
    let mut t = Table::new(vec![
        "phase_slots",
        "sig_dbm",
        "drift_db_per_slot",
        "err_500kb_pct",
        "err_2300kb_pct",
    ]);
    for phase in [0.0, 75.0, 150.0, 225.0, 300.0, 450.0] {
        let s0 = sig(phase);
        let s1 = sig(phase + 1.0);
        t.push(vec![
            phase,
            s0,
            s1 - s0,
            100.0 * link.aggregation_error(Dbm(s0), Dbm(s1), 500.0),
            100.0 * link.aggregation_error(Dbm(s0), Dbm(s1), 2300.0),
        ]);
    }
    FigureOutput {
        id: "abl_frames",
        title: "Slot-model energy error vs frame-level simulation (paper sine drift)".into(),
        table: t,
    }
}

/// Workload ablation: CBR vs ±25 % VBR segments. Rows: 0 = CBR, 1 = VBR.
pub fn abl_vbr() -> FigureOutput {
    let cells: Vec<Scenario> = vec![paper_cell(40, 350.0), {
        let mut s = paper_cell(40, 350.0);
        s.workload = WorkloadSpec {
            vbr_levels: Some(vec![0.75, 1.25, 1.0, 0.85, 1.15]),
            ..WorkloadSpec::paper_default().with_mean_size_mb(350.0)
        };
        s
    }];
    let rows = parallel_map(&cells, 0, measure);
    FigureOutput {
        id: "abl_vbr",
        title: "Workload ablation (row 0 = CBR, row 1 = ±25 % VBR), N=40".into(),
        table: table_of("workload_idx", &[0.0, 1.0], rows),
    }
}
