//! Trade-off explorer: sweep RTMA's α and EMA's V on one workload and
//! print the (energy, rebuffering) frontier each policy traces — the
//! experiment behind the paper's Fig. 10 "rebuffering–energy panel".
//!
//! Run with:
//! ```text
//! cargo run --release --example tradeoff_explorer
//! ```

use jmso::sim::{calibrate_default, parallel_map, Scenario, SchedulerSpec, WorkloadSpec};

fn main() {
    let mut scenario = Scenario::paper_default(12);
    scenario.slots = 2_000;
    scenario.capacity = jmso::sim::CapacitySpec::Constant { kbps: 6_000.0 };
    scenario.workload = WorkloadSpec {
        size_range_kb: (30_000.0, 60_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };

    let cal = calibrate_default(&scenario).expect("calibrate");
    let default = scenario.run().expect("default");
    println!(
        "Default            : energy {:>6.2} kJ   rebuffer/user {:>6.1} s",
        default.total_energy_kj(),
        default.mean_rebuffer_per_user_s()
    );

    // RTMA traces the frontier by tightening/loosening the energy budget α.
    let alphas = [0.8, 0.9, 1.0, 1.1, 1.2];
    let rtma_specs: Vec<SchedulerSpec> = alphas
        .iter()
        .map(|&a| SchedulerSpec::rtma(cal.phi_for_alpha(a)))
        .collect();
    let rtma_results = parallel_map(&rtma_specs, 0, |spec| {
        scenario.with_scheduler(spec.clone()).run().expect("rtma")
    });
    println!("\nRTMA frontier (tune α = Φ/E_Default):");
    for (a, r) in alphas.iter().zip(&rtma_results) {
        println!(
            "  α = {a:<4}: energy {:>6.2} kJ   rebuffer/user {:>6.1} s",
            r.total_energy_kj(),
            r.mean_rebuffer_per_user_s()
        );
    }

    // EMA traces it by the Lyapunov weight V.
    let vs = [0.02, 0.05, 0.1, 0.3, 1.0];
    let ema_specs: Vec<SchedulerSpec> = vs.iter().map(|&v| SchedulerSpec::ema(v)).collect();
    let ema_results = parallel_map(&ema_specs, 0, |spec| {
        scenario.with_scheduler(spec.clone()).run().expect("ema")
    });
    println!("\nEMA frontier (tune V — larger saves more energy):");
    for (v, r) in vs.iter().zip(&ema_results) {
        println!(
            "  V = {v:<5}: energy {:>6.2} kJ   rebuffer/user {:>6.1} s",
            r.total_energy_kj(),
            r.mean_rebuffer_per_user_s()
        );
    }
}
