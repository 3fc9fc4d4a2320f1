//! One *pass*: what a fresh child process does for one workload — generate
//! inputs, build the reference, one full untimed warm-up, one timed
//! execution — and the JSON record it prints for the parent.
//!
//! A pass is always its own process. Repeating passes inside one process
//! drifts (resident memory grows by ~120–150 MB per storm/server pass and is
//! never returned; see README.md), so the parent never runs two in one.

use std::time::Instant;

use ptdf::json::{obj, Value};

use crate::spans::{self, Spans};
use crate::workloads::{prepare, Cell, Outcome, Sizes, Workload};

/// `VmHWM` / `VmRSS` of this process in kB (0 where `/proc` is unavailable).
fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)?
                    .strip_prefix(':')?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// `q`-quantile of sorted `v` by the nearest-rank rule the server crate uses.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(((sorted.len() - 1) as f64) * q).round() as usize]
}

fn cells_json(cells: &[Cell]) -> Value {
    Value::Arr(
        cells
            .iter()
            .map(|c| {
                let mut members = vec![("name", Value::Str(c.name.as_str().into()))];
                members.extend(c.fields.iter().map(|&(k, v)| (k, Value::UInt(v))));
                obj(members)
            })
            .collect(),
    )
}

/// Runs one pass in this process and returns its record. `profile` makes it
/// the *traced* pass: spans are recorded, the engine phase profiler is armed
/// and the app floor is measured.
pub fn run_pass(w: Workload, seed: u64, sz: Sizes, profile: bool) -> Value {
    let mut spans = if profile { Spans::on() } else { Spans::off() };
    let t_setup = Instant::now();
    let (prepared, warm) = spans.scoped("setup", |spans| {
        let prepared = prepare(w, seed, sz, spans);
        let warm = spans.scoped("warmup", |_| prepared.run(false, &mut Spans::off()));
        (prepared, warm)
    });
    let setup_s = t_setup.elapsed().as_secs_f64();
    let rss_warm_kb = proc_status_kb("VmRSS");
    let t_pass = Instant::now();
    let out = spans.scoped("pass", |spans| prepared.run(profile, spans));
    let wall_s = t_pass.elapsed().as_secs_f64();
    let rss_end_kb = proc_status_kb("VmRSS");
    let vm_hwm_kb = proc_status_kb("VmHWM");

    let mut lat = out.latencies_ns.clone();
    lat.sort_unstable();
    // Determinism is the runtime's contract: the warm-up and the timed pass
    // ran the same inputs, so every model output must repeat exactly.
    let repeatable = same_model_output(&warm, &out);
    let mut rec = vec![
        ("workload", Value::Str(w.name().into())),
        ("seed", Value::UInt(seed)),
        ("quick", Value::Bool(sz.quick)),
        ("setup_s", Value::Float(setup_s)),
        ("wall_s", Value::Float(wall_s)),
        ("vm_hwm_kb", Value::UInt(vm_hwm_kb)),
        ("rss_warm_kb", Value::UInt(rss_warm_kb)),
        ("rss_end_kb", Value::UInt(rss_end_kb)),
        ("makespan_ns", Value::UInt(out.makespan_ns())),
        ("footprint", Value::UInt(out.footprint())),
        ("p50_ns", Value::UInt(percentile(&lat, 0.50))),
        ("p99_ns", Value::UInt(percentile(&lat, 0.99))),
        ("latency_n", Value::UInt(lat.len() as u64)),
        ("attempted", Value::UInt(out.attempted)),
        ("good", Value::UInt(out.good)),
        ("bad", Value::UInt(out.bad + !repeatable as u64)),
        ("dispatches", Value::UInt(out.dispatches())),
        ("records", Value::UInt(out.records)),
        ("bytes", Value::UInt(out.bytes)),
        ("cells", cells_json(&out.cells)),
    ];
    if profile {
        let phases = out
            .host_phase
            .phases()
            .iter()
            .map(|(name, p)| {
                (
                    *name,
                    obj(vec![
                        ("count", Value::UInt(p.count)),
                        ("ns", Value::UInt(p.ns)),
                    ]),
                )
            })
            .collect();
        rec.push(("phases", obj(phases)));
        let self_times = |root: &str| {
            let by = spans::self_by_name(&spans.spans, root).unwrap_or_default();
            obj(by
                .into_iter()
                .map(|(name, ns)| (name, Value::UInt(ns)))
                .collect())
        };
        rec.push(("pass_self", self_times("pass")));
        rec.push(("setup_self", self_times("setup")));
        rec.push((
            "run_span_ns",
            Value::UInt(spans::total_named(&spans.spans, "run")),
        ));
        rec.push((
            "timer_pair_ns",
            Value::Float(crate::layers::timer_pair_ns()),
        ));
        rec.push(("app_floor_s", Value::Float(prepared.app_floor_s())));
        rec.push(("spans", spans.to_json(w.name())));
    }
    obj(rec)
}

fn same_model_output(a: &Outcome, b: &Outcome) -> bool {
    a.cells == b.cells
        && a.latencies_ns == b.latencies_ns
        && (a.attempted, a.good, a.bad, a.records, a.bytes)
            == (b.attempted, b.good, b.bad, b.records, b.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }
}
