//! `compare <A…> -- <B…>`: two sets of result files (as `run`, `trace`, `all`
//! and the driver mode write them), reduced per (metric, workload) to
//! medians, quartiles, the share of pairs the B side wins, and a verdict.
//! Comparing two sets of the same commit is the benchmark's A/A check.

use std::collections::BTreeMap;

use ptdf::json::Value;

use crate::manifest::Manifest;
use crate::stats::{compare, Better, Verdict};

/// (workload, metric) → one value per result file, in file order. Ledger
/// rows that belong to no workload are filed under workload `-`.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn collect(files: &[String]) -> Result<Table, String> {
    let mut table = Table::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut take = |workload: &str, section: Option<&Value>| {
            if let Some(Value::Obj(metrics)) = section {
                for (name, m) in metrics {
                    if let Some(v) = m.get("value").and_then(Value::as_f64) {
                        table
                            .entry((workload.to_string(), name.to_string()))
                            .or_default()
                            .push(v);
                    }
                }
            }
        };
        take("-", doc.get("layers"));
        if let Some(Value::Obj(workloads)) = doc.get("workloads") {
            for (w, body) in workloads {
                take(w, body.get("end_to_end"));
                take(w, body.get("per_layer"));
            }
        }
    }
    Ok(table)
}

/// Prints the comparison; `Ok(true)` when some end-to-end metric regressed.
pub fn run(a_files: &[String], b_files: &[String], manifest: &Manifest) -> Result<bool, String> {
    if a_files.is_empty() || b_files.is_empty() {
        return Err("usage: compare <A…> -- <B…> (result files on both sides)".to_string());
    }
    let (a, b) = (collect(a_files)?, collect(b_files)?);
    println!(
        "{:<16} {:<34} {:>13} {:>13} {:>8} {:>20} {:>20} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "quartiles A", "quartiles B", "B wins"
    );
    let mut regressed = false;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let def = manifest.metric(metric);
        let c = compare(
            va,
            vb,
            def.map_or(Better::Lower, |d| d.better),
            def.and_then(|d| d.bound),
        );
        let quart = |q: Option<(f64, f64)>| {
            q.map_or("-".to_string(), |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
        };
        println!(
            "{:<16} {:<34} {:>13.6} {:>13.6} {:>8.4} {:>20} {:>20} {:>3}/{:<2}  {}",
            workload,
            metric,
            c.median_a,
            c.median_b,
            c.median_b / c.median_a,
            quart(c.quartiles_a),
            quart(c.quartiles_b),
            (c.win_share * c.pairs as f64).round(),
            c.pairs,
            c.verdict.name()
        );
        regressed |= c.verdict == Verdict::Regressed;
    }
    Ok(regressed)
}
