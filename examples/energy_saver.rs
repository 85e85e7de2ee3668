//! Energy saver: run EMA against Default, SALSA and EStreamer on the same
//! workload and compare energy (with the tail share broken out) and
//! rebuffering — the experiment behind the paper's Fig. 9.
//!
//! Run with:
//! ```text
//! cargo run --release --example energy_saver
//! ```

use jmso::sim::{fit_v_for_omega, Scenario, SchedulerSpec, SimResult, WorkloadSpec};

fn describe(tag: &str, r: &SimResult) {
    println!(
        "{tag:<22} energy {:>7.2} kJ (tail {:>4.1}%)   rebuffer/user {:>7.1} s",
        r.total_energy_kj(),
        100.0 * r.tail_fraction(),
        r.mean_rebuffer_per_user_s(),
    );
}

fn main() {
    // 12 users on a 6 MB/s cell, ~40 MB videos (a scaled-down paper cell).
    let mut scenario = Scenario::paper_default(12);
    scenario.slots = 2_000;
    scenario.capacity = jmso::sim::CapacitySpec::Constant { kbps: 6_000.0 };
    scenario.workload = WorkloadSpec {
        size_range_kb: (30_000.0, 60_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };

    let default = scenario.run().expect("default");
    let salsa = scenario
        .with_scheduler(SchedulerSpec::salsa_default())
        .run()
        .expect("salsa");
    let estreamer = scenario
        .with_scheduler(SchedulerSpec::estreamer_default())
        .run()
        .expect("estreamer");

    // The paper sets EMA's rebuffering bound Ω to EStreamer's rebuffering,
    // then lets the Lyapunov weight V maximize energy savings within it.
    let omega = estreamer.avg_rebuffer_per_active_slot();
    let (v, _) = fit_v_for_omega(&scenario, omega, 0.02, 400.0, 10).expect("fit V");
    let ema = scenario
        .with_scheduler(SchedulerSpec::ema(v))
        .run()
        .expect("ema");

    println!("Scheduler              total energy          mean rebuffering");
    describe("Default", &default);
    describe("SALSA", &salsa);
    describe("EStreamer", &estreamer);
    describe(&format!("EMA (V={v:.3})"), &ema);

    let vs = |r: &SimResult| 100.0 * (1.0 - ema.total_energy_kj() / r.total_energy_kj());
    println!(
        "\nEMA energy reduction: {:.0}% vs Default, {:.0}% vs SALSA, {:.0}% vs EStreamer",
        vs(&default),
        vs(&salsa),
        vs(&estreamer)
    );
}
