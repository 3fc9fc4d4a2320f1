//! End-to-end checks of the `ptdf-perf` binary at `--quick` sizes.

use std::collections::BTreeSet;
use std::process::Command;

use ptdf::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ptdf-perf"))
        .args(args)
        .output()
        .expect("spawn ptdf-perf");
    assert!(
        out.status.success(),
        "ptdf-perf {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn manifest_names(section: &str) -> BTreeSet<String> {
    let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

#[test]
fn all_prints_exactly_the_metrics_benchmark_json_names() {
    let out = perf(&["all", "--quick", "--seed", "5"]);
    let mut by_workload: std::collections::BTreeMap<String, BTreeSet<String>> = Default::default();
    for line in out.lines() {
        let mut words = line.split_whitespace();
        if words.next() == Some("metric") {
            let (workload, name) = (words.next().unwrap(), words.next().unwrap());
            by_workload
                .entry(workload.to_string())
                .or_default()
                .insert(name.to_string());
        }
    }
    let e2e = manifest_names("end_to_end");
    let per_layer = manifest_names("per_layer");
    let ledger = by_workload
        .remove("-")
        .expect("the micro ledger is printed");
    assert_eq!(
        by_workload.keys().cloned().collect::<BTreeSet<_>>(),
        manifest_names("workloads")
    );
    for (workload, printed) in &by_workload {
        let printed_e2e: BTreeSet<String> = printed.intersection(&e2e).cloned().collect();
        assert_eq!(printed_e2e, e2e, "{workload}: end-to-end metrics");
        // Per-layer metrics are the workload's own rows plus the shared ledger.
        let rows: BTreeSet<String> = printed.difference(&e2e).chain(&ledger).cloned().collect();
        assert_eq!(rows, per_layer, "{workload}: per-layer metrics");
    }
    // Every output check passed.
    assert_eq!(
        out.lines()
            .filter(|l| l.starts_with("check") && l.contains("outputs correct"))
            .count(),
        6
    );
}

#[test]
fn a_quick_pass_run_twice_repeats_every_virtual_value() {
    let model_output = |workload: &str| {
        let rec = Value::parse(
            perf(&["pass", workload, "--quick", "--seed", "3"])
                .lines()
                .last()
                .unwrap(),
        )
        .unwrap();
        assert_eq!(
            rec.get("bad").and_then(Value::as_u64),
            Some(0),
            "{workload}: wrong outputs"
        );
        [
            "makespan_ns",
            "footprint",
            "p50_ns",
            "p99_ns",
            "latency_n",
            "attempted",
            "good",
            "dispatches",
            "cells",
        ]
        .map(|k| {
            rec.get(k)
                .cloned()
                .unwrap_or_else(|| panic!("{workload}: no `{k}`"))
        })
    };
    for workload in manifest_names("workloads") {
        assert_eq!(
            model_output(&workload),
            model_output(&workload),
            "{workload}"
        );
    }
}

#[test]
fn driver_mode_ends_with_the_contract_object() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = perf(&[
            "--workload",
            "spawn_storm",
            "--seed",
            "9",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        let last = Value::parse(out.lines().last().unwrap()).expect("last line is JSON");
        let Value::Obj(members) = &last else {
            panic!("last line is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0));
        assert!(last.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let Some(Value::Obj(metrics)) = last.get("metrics") else {
            panic!("metrics is not an object")
        };
        let mut wanted = manifest_names(section);
        // The golden file pins full sizes; a quick run has no drift row.
        wanted.remove("model.drift_cells");
        assert_eq!(
            metrics
                .iter()
                .map(|(k, _)| k.to_string())
                .collect::<BTreeSet<_>>(),
            wanted
        );
        for (name, m) in metrics {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name}: value"
            );
            assert!(
                m.get("unit").and_then(Value::as_str).is_some(),
                "{name}: unit"
            );
        }
    }
}
