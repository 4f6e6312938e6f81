//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step, and [`Metrics::into_result`] refuses to print a
//! result whose metric set differs from the catalogue.

use racer_results::Value;

/// Shapes of `racer_cpu::workloads::standard_suite`, in suite order.
pub const SHAPES: [&str; 6] = [
    "alu-chain",
    "branchy",
    "squash-storm",
    "memory-stream",
    "div-race",
    "smt-contention",
];

/// Lab scenarios of the `lab-paper` workload: every registered scenario
/// except the search (its own workload) and the wall-clock perf baseline.
pub const LAB_SCENARIOS: [&str; 17] = [
    "fig03_plru_walk",
    "fig07_repetition",
    "fig08_granularity_add",
    "fig09_granularity_mul",
    "fig10_reorder_distribution",
    "fig11_arbitrary_replacement",
    "fig12_arithmetic",
    "table_granularity",
    "table_par_seq",
    "spectre_back_eval",
    "eviction_set_eval",
    "countermeasures_eval",
    "detection_eval",
    "noise_sensitivity_eval",
    "timer_mitigations_eval",
    "window_ablation_eval",
    "smt_contention_eval",
];

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`): name and unit, in emission order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("isa.decode.calls".into(), "count");
    add("isa.decode.ns_per_instr".into(), "ns");
    add("mem.l1_hit_ns".into(), "ns");
    add("mem.dram_miss_ns".into(), "ns");
    add("mem.cow_private_kb".into(), "KiB");
    for s in SHAPES {
        add(format!("mem.{s}.l1d_hit_rate"), "ratio");
        add(format!("mem.{s}.llc_hit_rate"), "ratio");
    }
    for s in SHAPES {
        add(format!("cpu.{s}.minstr_per_s"), "Minstr/s");
        add(format!("cpu.{s}.host_ns_per_cycle"), "ns");
        add(format!("cpu.{s}.cycles"), "count");
        add(format!("cpu.{s}.committed"), "count");
        add(format!("cpu.{s}.squashed"), "count");
    }
    add("engine.snapshot_us".into(), "us");
    add("engine.fork_us".into(), "us");
    add("engine.run_many.ms_per_prog".into(), "ms");
    add("engine.cache.hits".into(), "count");
    add("engine.cache.misses".into(), "count");
    add("engine.cache.hit_rate".into(), "ratio");
    add("host.cpu_util".into(), "ratio");
    add("host.calib_ns".into(), "ns");
    add("trace.overhead_s".into(), "s");
    for s in LAB_SCENARIOS {
        add(format!("lab.{s}.s"), "s");
    }
    add("search.step_s".into(), "s");
    add("search.evaluate_ms".into(), "ms");
    add("search.lower_us".into(), "us");
    add("search.candidates".into(), "count");
    add("search.archive_cells".into(), "count");
    add("results.write_ms".into(), "ms");
    add("results.parse_ms".into(), "ms");
    add("results.kb".into(), "KiB");
    add("lab.write_atomic_ms".into(), "ms");
    m
}

/// Metric values collected by one run, in emission order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, Value, &'static str)>,
}

impl Metrics {
    /// Record a measured value.
    pub fn float(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values
            .push((name.to_string(), Value::Float(value), unit));
    }

    /// Record an exact count.
    pub fn count(&mut self, name: &str, value: u64, unit: &'static str) {
        self.values
            .push((name.to_string(), Value::from(value), unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    /// Errors when the recorded names or units differ from `catalogue`.
    pub fn into_result(
        self,
        catalogue: &[(String, &'static str)],
        attempted: u64,
        failed: u64,
    ) -> Result<Value, String> {
        let got: Vec<(&str, &str)> = self
            .values
            .iter()
            .map(|(n, _, u)| (n.as_str(), *u))
            .collect();
        let want: Vec<(&str, &str)> = catalogue.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        if got != want {
            return Err(format!("metric set differs from the catalogue: {got:?}"));
        }
        let mut metrics = Value::object();
        for (name, value, unit) in self.values {
            metrics.insert(
                &name,
                Value::object().with("value", value).with("unit", unit),
            );
        }
        Ok(Value::object()
            .with("correct", failed == 0)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics))
    }
}

/// The end-to-end catalogue in the shape [`Metrics::into_result`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_within_caps() {
        let layer = per_layer();
        assert!(END_TO_END.len() <= 16);
        assert!(layer.len() <= 128);
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layer.iter().map(|(n, _)| n.clone()));
        names.extend(crate::Workload::ALL.iter().map(|w| w.name().to_string()));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for (_, u) in END_TO_END
            .iter()
            .copied()
            .chain(layer.iter().map(|(n, u)| (n.as_str(), *u)))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("string")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(end_to_end()));
        assert_eq!(listed("per_layer"), own(per_layer()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_rejects_a_missing_metric() {
        let mut m = Metrics::default();
        m.float("wall_s", 1.5, "s");
        assert!(m.into_result(&end_to_end(), 1, 0).is_err());
    }
}
