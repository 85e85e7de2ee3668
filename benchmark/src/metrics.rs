//! The benchmark's vocabulary: workload and metric names with their
//! units, and the result a run prints. `BENCHMARK.json` and
//! `README.md` list the same names; a unit test keeps the three in step.

use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = ["cell-default", "cell-ema", "open-sharded", "gateway-live"];

/// End-to-end metrics: (name, unit). Printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("slots_per_s", "slots/s"),
    ("peak_rss_mb", "MB"),
    ("ingest_events_per_s", "events/s"),
    ("cmd_rtt_p50_us", "us"),
];

/// Per-layer metrics: (name, unit). Printed by every `--trace 1` run; a
/// metric whose layer does no work on the workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("radio.signal.sample_ns", "ns"),
    ("radio.kernels.throughput_ns", "ns"),
    ("media.buffer.advance_ns", "ns"),
    ("media.workload.gen_ns_per_user", "ns"),
    ("gateway.collector.snapshot_ns_per_user", "ns"),
    ("gateway.transmitter.transmit_ns_per_grant", "ns"),
    ("gateway.admission.decide_ns", "ns"),
    ("gateway.protocol.parse_ns_per_event", "ns"),
    ("gateway.dpi.rate_ns_per_event", "ns"),
    ("sched.default.allocate_ns", "ns"),
    ("sched.rtma.allocate_ns", "ns"),
    ("sched.ema.allocate_ns", "ns"),
    ("sched.ema_fast.allocate_ns", "ns"),
    ("sched.ema.solve_dp_cold_ns", "ns"),
    ("sched.share", "ratio"),
    ("sim.phase.pre_ns", "ns"),
    ("sim.phase.sample_collect_ns", "ns"),
    ("sim.phase.allocate_ns", "ns"),
    ("sim.phase.transmit_account_ns", "ns"),
    ("sim.finish_s", "s"),
    ("sim.step_p50_us", "us"),
    ("sim.step_p99_us", "us"),
    ("sim.user_slot_ns", "ns"),
    ("sim.allocs_per_slot", "count"),
    ("sim.slots_run", "count"),
    ("sim.live_user_slots", "count"),
    ("sim.units_granted", "count"),
    ("sim.adm.admitted", "count"),
    ("sim.adm.deferred", "count"),
    ("sim.adm.rejected", "count"),
    ("sim.build.plan_s", "s"),
    ("sim.build.engine_s", "s"),
    ("sim.shard.speedup", "ratio"),
    ("sim.pool.barrier_ns", "ns"),
    ("sim.trace.ratio", "ratio"),
    ("sim.trace.bytes_per_slot", "bytes"),
    ("sim.ckpt.to_json_ms", "ms"),
    ("sim.ckpt.write_ms", "ms"),
    ("sim.ckpt.restore_ms", "ms"),
    ("sim.ckpt.bytes", "bytes"),
    ("sim.multicell.slots_per_s", "slots/s"),
    ("sim.sweep.user_slots_per_s", "1/s"),
    ("svc.feed_rtt_p50_us", "us"),
    ("svc.feed_rtt_p99_us", "us"),
    ("svc.conn.handle_ns_per_cmd", "ns"),
    ("svc.bus.push_drain_ns", "ns"),
    ("svc.cmd_rtt_p99_us", "us"),
    ("svc.slot_gap_p50_us", "us"),
    ("svc.slot_gap_p99_us", "us"),
    ("svc.fanout.broadcast_ns_per_line", "ns"),
    ("svc.fanout.record_bytes", "bytes"),
    ("svc.ckpt_pause_p50_ms", "ms"),
    ("svc.ckpt_count", "count"),
    ("svc.vs_batch_ratio", "ratio"),
    ("svc.restart_gap_ms", "ms"),
    ("svc.rejects", "count"),
    ("svc.evictions", "count"),
    ("svc.dropped_slots", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer metrics that are counts of simulated work: they must repeat
/// exactly between two runs of the same code and seed (`--aa` checks).
pub const EXACT_COUNTS: [&str; 10] = [
    "sim.slots_run",
    "sim.live_user_slots",
    "sim.units_granted",
    "sim.adm.admitted",
    "sim.adm.deferred",
    "sim.adm.rejected",
    "svc.ckpt_count",
    "svc.rejects",
    "svc.evictions",
    "svc.dropped_slots",
];

/// A JSON number as `f64`; 0 for anything else.
pub fn num(v: Option<&serde::Value>) -> f64 {
    match v {
        Some(serde::Value::U64(n)) => *n as f64,
        Some(serde::Value::I64(n)) => *n as f64,
        Some(serde::Value::F64(x)) => *x,
        _ => 0.0,
    }
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// What one run of one workload reports.
pub struct Outcome {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Sample>,
    /// Operations attempted (reps, commands, slots, streams, checks).
    pub attempted: u64,
    /// Operations that failed; see README "Failure accounting".
    pub failed: u64,
    /// Correctness checks that did not hold, in words.
    pub check_failures: Vec<String>,
    /// How large the run was, in words, printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![Sample { value: 0.0, n: 0 }; table.len()],
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. The name must be in the run's table: a typo is a
    /// harness bug, not a runtime condition.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let i = self
            .table
            .iter()
            .position(|(m, _)| *m == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's table"));
        // A ratio over no samples is NaN, which JSON cannot carry.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values[i] = Sample { value, n };
    }

    /// One operation attempted; `ok` false counts it as failed and keeps
    /// the reason.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// Human-readable lines: name, value, unit, sample count.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        for ((name, unit), s) in self.table.iter().zip(&self.values) {
            let _ = writeln!(out, "  {name:<44} {:>18.6} {unit:<9} n={}", s.value, s.n);
        }
        out
    }

    /// The contract's result object, on one line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, ((name, unit), s)) in self.table.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                s.value
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Seq(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no list {key}");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json`, `README.md` and the tables above name the same
    /// workloads and metrics with the same units.
    #[test]
    fn benchmark_json_matches_tables() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        let text =
            std::fs::read_to_string(format!("{root}/BENCHMARK.json")).expect("BENCHMARK.json");
        let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
        let w: Vec<String> = names(&v, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(w, WORKLOADS);
        let readme =
            std::fs::read_to_string(format!("{root}/benchmark/README.md")).expect("README");
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::new(&END_TO_END);
        o.set("setup_s", 0.5, 3);
        o.op(true, String::new);
        let v: Value = serde_json::from_str(&o.json_line()).expect("parses");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::U64(1)));
        assert!(v.get("metrics").and_then(|m| m.get("setup_s")).is_some());
    }
}
