//! `report`: the per-layer self-time table and the tracing overhead,
//! read back from the spans files a traced pass wrote.

use crate::metrics::{self, WORKLOADS};
use crate::spans_path;
use serde::Value;
use std::collections::BTreeMap;

fn num(v: &Value, key: &str) -> f64 {
    metrics::num(v.get(key))
}

#[derive(Default)]
struct Row {
    count: u64,
    total_ns: f64,
    self_ns: f64,
}

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover. Returns (name → row) and the header object.
fn self_times(text: &str) -> Result<(BTreeMap<String, Row>, Value), String> {
    let mut lines = text.lines();
    let header: Value = serde_json::from_str(lines.next().ok_or("empty spans file")?)
        .map_err(|e| format!("header: {e:?}"))?;
    // (name, parent, duration); ids are line numbers, so index = id - 1.
    let mut spans: Vec<(String, usize, f64)> = Vec::new();
    for (i, line) in lines.enumerate() {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("span {}: {e:?}", i + 1))?;
        let name = match v.get("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("span {} has no name", i + 1)),
        };
        spans.push((
            name,
            num(&v, "parent") as usize,
            num(&v, "end_ns") - num(&v, "start_ns"),
        ));
    }
    let mut covered = vec![0.0f64; spans.len()];
    for (_, parent, duration) in &spans {
        if let Some(c) = parent.checked_sub(1).and_then(|p| covered.get_mut(p)) {
            *c += duration;
        }
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for ((name, _, duration), covered) in spans.iter().zip(&covered) {
        let row = rows.entry(name.clone()).or_default();
        row.count += 1;
        row.total_ns += duration;
        row.self_ns += (duration - covered).max(0.0);
    }
    Ok((rows, header))
}

/// Print the table for each named workload (all four by default).
/// Returns false when a spans file is missing or malformed.
pub fn run(names: &[String]) -> bool {
    let all: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    let names = if names.is_empty() { &all } else { names };
    let mut ok = true;
    for workload in names {
        let path = spans_path(workload);
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| self_times(&text));
        let (rows, header) = match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: {e} (run the traced pass first)", path.display());
                ok = false;
                continue;
            }
        };
        println!("== {workload}: self time per span, from {}", path.display());
        println!(
            "   spans kept {} dropped {} (dropped spans are in the metrics' totals, not here)",
            num(&header, "spans_kept"),
            num(&header, "spans_dropped")
        );
        let whole: f64 = rows.values().map(|r| r.self_ns).sum();
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        let mut sorted: Vec<(&String, &Row)> = rows.iter().collect();
        sorted.sort_by(|a, b| b.1.self_ns.total_cmp(&a.1.self_ns));
        println!(
            "   {:<28} {:>9} {:>14} {:>14} {:>7}",
            "span", "count", "total ms", "self ms", "self %"
        );
        for (name, r) in sorted {
            println!(
                "   {name:<28} {:>9} {:>14.3} {:>14.3} {:>6.1}%",
                r.count,
                r.total_ns / 1e6,
                r.self_ns / 1e6,
                100.0 * r.self_ns / whole
            );
            // The layer is the name's first component; the harness's own
            // `run` span has none.
            let layer = name.split_once('.').map_or("harness", |(layer, _)| layer);
            *by_layer.entry(layer).or_default() += r.self_ns;
        }
        println!("   per layer:");
        for (layer, ns) in by_layer {
            println!(
                "   {layer:<28} {:>14.3} ms {:>6.1}%",
                ns / 1e6,
                100.0 * ns / whole
            );
        }
        let plain = num(&header, "untraced_slots_per_s");
        let traced = num(&header, "traced_slots_per_s");
        println!(
            "   tracing overhead: {plain:.1} slots/s untraced, {traced:.1} traced, \
             slot time ratio {:.3} (base: untraced)\n",
            plain / traced
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let text = "{\"spans_kept\":3}\n\
            {\"id\":1,\"parent\":0,\"name\":\"run\",\"rep\":0,\"start_ns\":0,\"end_ns\":100}\n\
            {\"id\":2,\"parent\":1,\"name\":\"sim.step\",\"rep\":0,\"slot\":0,\"start_ns\":10,\"end_ns\":60}\n\
            {\"id\":3,\"parent\":2,\"name\":\"sched.allocate\",\"rep\":0,\"slot\":0,\"start_ns\":20,\"end_ns\":50}\n";
        let (rows, header) = self_times(text).expect("parses");
        assert_eq!(num(&header, "spans_kept"), 3.0);
        assert_eq!(rows["run"].self_ns, 50.0);
        assert_eq!(rows["sim.step"].self_ns, 20.0);
        assert_eq!(rows["sched.allocate"].self_ns, 30.0);
    }
}
