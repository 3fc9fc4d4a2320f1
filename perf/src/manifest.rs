//! `BENCHMARK.json`, compiled in: the metric names, units, directions and
//! regression bounds every other module reads. One copy, so what the
//! benchmark prints and what the manifest promises cannot drift apart
//! unnoticed (`cargo test` checks they agree).

use ptdf::json::Value;

use crate::stats::Better;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen; `None`
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Manifest {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` list"))
        };
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` string"))
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| MetricDef {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    better: if text(m, "better") == "higher" {
                        Better::Higher
                    } else {
                        Better::Lower
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Manifest {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The definition of metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn manifest_names_the_six_workloads_and_bounds_every_end_to_end_metric() {
        let m = Manifest::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(m.workloads, names);
        assert!(m
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(m
            .end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Better::Lower));
    }
}
