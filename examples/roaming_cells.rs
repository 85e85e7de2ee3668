//! Roaming cells: a four-cell deployment with users handing over between
//! base stations mid-session — the "one scheduler per BS" deployment the
//! paper's framework section describes, under mobility it never evaluated.
//!
//! Run with:
//! ```text
//! cargo run --release --example roaming_cells
//! ```

use jmso::sim::{CapacitySpec, MultiCellScenario, Scenario, SchedulerSpec, WorkloadSpec};

fn build(p_handover: f64, spec: SchedulerSpec) -> MultiCellScenario {
    let mut base = Scenario::paper_default(16);
    base.slots = 3_000;
    // Four cells of 2 MB/s each: same aggregate provisioning ratio as the
    // paper's single 20 MB/s cell with 40 users.
    base.capacity = CapacitySpec::Constant { kbps: 2_000.0 };
    base.workload = WorkloadSpec {
        size_range_kb: (40_000.0, 80_000.0),
        rate_range_kbps: (300.0, 600.0),
        vbr_levels: None,
        vbr_segment_slots: 30,
    };
    base.scheduler = spec;
    MultiCellScenario {
        base,
        n_cells: 4,
        handover_prob: p_handover,
    }
}

fn main() {
    println!("16 users roaming across 4 cells (2 MB/s each):\n");
    println!(
        "{:>14} {:>10} {:>16} {:>14} {:>12}",
        "handover_prob", "handovers", "default_rebuf_s", "rtma_rebuf_s", "ema_kj"
    );
    for p in [0.0, 0.01, 0.05] {
        let default = build(p, SchedulerSpec::Default).run().expect("default");
        let rtma = build(p, SchedulerSpec::RtmaUnbounded).run().expect("rtma");
        let ema = build(p, SchedulerSpec::ema(0.3)).run().expect("ema");
        println!(
            "{:>14} {:>10} {:>16.1} {:>14.1} {:>12.2}",
            p,
            rtma.handovers,
            default.result.mean_rebuffer_per_user_s(),
            rtma.result.mean_rebuffer_per_user_s(),
            ema.result.total_energy_kj(),
        );
    }

    // Show cell occupancy balance at the highest mobility.
    let m = build(0.05, SchedulerSpec::RtmaUnbounded)
        .run()
        .expect("run");
    println!(
        "\nMean users per cell at p=0.05: {:?}",
        m.mean_cell_occupancy
            .iter()
            .map(|o| (o * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
}
