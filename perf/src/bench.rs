//! Orchestration: the parent process. It never measures anything itself; it
//! runs one child at a time (the runtime is single-OS-threaded and the VM
//! has two cores — two children would time each other), collects their
//! records, and reduces them to the named metrics.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use ptdf::json::{obj, Value};

use crate::manifest::Manifest;
use crate::stats::median;
use crate::workloads::{Sizes, Workload};

const GOLDEN_JSON: &str = include_str!("../golden/seed42.json");

/// The seed the golden file pins.
pub const GOLDEN_SEED: u64 = 42;

/// Fresh-child passes per workload in an end-to-end run: at least this many,
/// more while the `--seconds` budget lasts, never more than `MAX_PASSES`.
pub const MIN_PASSES: usize = 5;
const MAX_PASSES: usize = 9;

/// How a metric's value was reduced, kept beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Detail {
    /// Median over `n` fresh-child passes, with the extremes.
    Passes { min: f64, max: f64, n: usize },
    /// Minimum over a ledger row's batches; (median − min) / min beside it.
    Noise(f64),
    /// One measurement of the traced pass.
    Single,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub detail: Detail,
}

impl Metric {
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("value", Value::Float(self.value)),
            ("unit", Value::Str(self.unit.as_str().into())),
        ];
        match self.detail {
            Detail::Passes { min, max, n } => members.extend([
                ("min", Value::Float(min)),
                ("max", Value::Float(max)),
                ("n", Value::UInt(n as u64)),
            ]),
            Detail::Noise(noise) => members.push(("noise", Value::Float(noise))),
            Detail::Single => {}
        }
        obj(members)
    }
}

impl std::fmt::Display for Detail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Detail::Passes { min, max, n } => write!(f, "min {min:<14.6} max {max:<14.6} n {n}"),
            Detail::Noise(noise) => write!(f, "noise {noise:.3}"),
            Detail::Single => Ok(()),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub sizes: Sizes,
    /// Measuring budget of one end-to-end run, host seconds.
    pub seconds: f64,
    pub min_passes: usize,
}

/// Runs this executable again with `args`, waits for it, and parses the last
/// line of its standard output as JSON. Children run with `RUST_BACKTRACE=0`:
/// with backtraces on, symbolising one per cancelled thread is what the
/// cancel-heavy workloads would end up timing.
fn child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning `{}`: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!("child `{}` failed: {}", args.join(" "), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("child `{}` printed nothing", args.join(" ")))?;
    Value::parse(last).map_err(|e| format!("child `{}` printed bad JSON: {e}", args.join(" ")))
}

fn pass_child(w: Workload, seed: u64, sz: Sizes, profile: bool) -> Result<Value, String> {
    let mut args = vec![
        "pass".to_string(),
        w.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    if sz.quick {
        args.push("--quick".to_string());
    }
    if profile {
        args.push("--profile".to_string());
    }
    child(&args)
}

/// The micro ledger, measured in a child of its own.
pub fn layers_child(seed: u64, sz: Sizes) -> Result<Vec<Metric>, String> {
    let mut args = vec![
        "layers".to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--json".to_string(),
    ];
    if sz.quick {
        args.push("--quick".to_string());
    }
    let doc = child(&args)?;
    let rows = doc.as_arr().ok_or("layers child: expected an array")?;
    rows.iter()
        .map(|r| {
            let value = num(r, "value")?;
            Ok(Metric {
                name: r
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("layers child: row name")?
                    .to_string(),
                unit: r
                    .get("unit")
                    .and_then(Value::as_str)
                    .ok_or("layers child: row unit")?
                    .to_string(),
                value,
                detail: Detail::Noise(num(r, "noise")?),
            })
        })
        .collect()
}

/// The ledger as the `layers --json` child prints it.
pub fn rows_json(rows: &[Metric]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|r| {
                let Value::Obj(mut members) = r.to_json() else {
                    unreachable!("to_json builds an object")
                };
                members.insert(0, ("name".into(), Value::Str(r.name.as_str().into())));
                Value::Obj(members)
            })
            .collect(),
    )
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("record has no number `{key}`"))
}

/// The end-to-end metrics one pass record yields, in manifest order.
fn pass_metrics(p: &Value) -> Result<Vec<(&'static str, f64)>, String> {
    let n = |key: &str| num(p, key);
    let virt_ms = n("makespan_ns")? / 1e6;
    Ok(vec![
        ("setup_s", n("setup_s")?),
        ("host_wall_s", n("wall_s")?),
        ("host_peak_rss_mb", n("vm_hwm_kb")? / 1024.0),
        ("virt_makespan_ms", virt_ms),
        ("virt_peak_footprint_kb", n("footprint")? / 1024.0),
        ("virt_p50_us", n("p50_ns")? / 1e3),
        ("virt_p99_us", n("p99_ns")? / 1e3),
        ("virt_goodput_per_ms", n("good")? / virt_ms),
        ("ok_share", n("good")? / n("attempted")?),
    ])
}

/// Metrics that live on the virtual clock: exact for a (workload, seed), so
/// every pass of a run must report the same value.
fn is_model_output(name: &str) -> bool {
    name.starts_with("virt_") || name == "ok_share"
}

pub struct EndToEnd {
    pub metrics: Vec<Metric>,
    /// Operations attempted and operations whose output was wrong, summed
    /// over the timed passes.
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub passes: Vec<Value>,
}

/// End-to-end run of one workload, tracing off: fresh-child passes one after
/// another, each metric reduced to its median over passes.
pub fn end_to_end(w: Workload, o: &Opts, manifest: &Manifest) -> Result<EndToEnd, String> {
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(pass_child(w, o.seed, o.sizes, false)?);
        let spent = started.elapsed().as_secs_f64();
        let enough = passes.len() >= o.min_passes && spent + t.elapsed().as_secs_f64() > o.seconds;
        if enough || passes.len() >= MAX_PASSES.max(o.min_passes) {
            break;
        }
    }
    let per_pass: Vec<Vec<(&str, f64)>> =
        passes.iter().map(pass_metrics).collect::<Result<_, _>>()?;
    let mut correct = true;
    let mut metrics = Vec::new();
    for (i, &(name, first)) in per_pass[0].iter().enumerate() {
        let values: Vec<f64> = per_pass.iter().map(|p| p[i].1).collect();
        if is_model_output(name) && values.iter().any(|&v| v != first) {
            eprintln!(
                "{}: {name} differs between passes of one seed: {values:?}",
                w.name()
            );
            correct = false;
        }
        let def = manifest
            .metric(name)
            .ok_or_else(|| format!("BENCHMARK.json does not list `{name}`"))?;
        metrics.push(Metric {
            name: name.to_string(),
            unit: def.unit.clone(),
            value: median(&values),
            detail: Detail::Passes {
                min: values.iter().copied().fold(f64::INFINITY, f64::min),
                max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                n: values.len(),
            },
        });
    }
    let sum = |key: &str| {
        passes
            .iter()
            .map(|p| p.get(key).and_then(Value::as_u64).unwrap_or(0))
            .sum::<u64>()
    };
    let (attempted, failed) = (sum("attempted"), sum("bad"));
    Ok(EndToEnd {
        metrics,
        attempted,
        failed,
        correct: correct && failed == 0,
        passes,
    })
}

pub struct Traced {
    /// The per-workload ledger rows (`engine.*`, `model.drift_cells`).
    pub rows: Vec<Metric>,
    /// The reconciliation table, ready to print.
    pub table: String,
    pub spans: Value,
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run of one workload: one extra pass with benchmark-side spans
/// and the engine phase profiler armed, reconciled against `plain` — an
/// untraced pass of the same seed whose timed wall is `plain_wall_s`.
pub fn traced(w: Workload, o: &Opts, plain: &Value, plain_wall_s: f64) -> Result<Traced, String> {
    let prof = pass_child(w, o.seed, o.sizes, true)?;
    let pair_ns = num(&prof, "timer_pair_ns")?;
    let phases = prof.get("phases").ok_or("profiled pass has no phases")?;
    // A phase window brackets its work with one clock read on each side;
    // what it recorded beyond `count` such pairs is the phase itself.
    let calibrated = |name: &str| -> f64 {
        let p = phases.get(name);
        let field = |k: &str| {
            p.and_then(|p| p.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        (field("ns") - field("count") * pair_ns).max(0.0)
    };
    let names = [
        "heap_push",
        "heap_pop",
        "charge",
        "sched_lock",
        "sched_pop",
        "dispatch",
        "trace_alloc",
    ];
    let total_ns: f64 = names.iter().map(|n| calibrated(n)).sum();
    let dispatches = num(plain, "dispatches")?;
    let run_s = num(&prof, "run_span_ns")? / 1e9;
    let floor_s = num(&prof, "app_floor_s")?;
    let residual_s = run_s - total_ns / 1e9 - floor_s;
    let prof_wall_s = num(&prof, "wall_s")?;

    let row = |name: &str, unit: &str, value: f64| Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        detail: Detail::Single,
    };
    let mut rows = vec![
        row("engine.total_ns", "ns", total_ns),
        row("engine.sched_lock_ns", "ns", calibrated("sched_lock")),
        row("engine.charge_ns", "ns", calibrated("charge")),
        row("engine.dispatches", "count", dispatches),
        row(
            "engine.host_ns_per_dispatch",
            "ns",
            plain_wall_s * 1e9 / dispatches,
        ),
        row("engine.residual_s", "s", residual_s),
        row(
            "engine.profile_overhead_ratio",
            "ratio",
            prof_wall_s / plain_wall_s,
        ),
        // Resident memory the timed pass added on top of the warm-up's and
        // never gave back. Not an end-to-end metric: it is near zero, either
        // sign, on `paper_apps`, so a relative bound cannot hold it.
        row(
            "host.rss_growth_mb",
            "MB",
            (num(plain, "rss_end_kb")? - num(plain, "rss_warm_kb")?) / 1024.0,
        ),
    ];
    // Model drift is judged at the golden seed, whatever seed this run has,
    // so the row is a number on every run; the golden file pins full sizes.
    if !o.sizes.quick {
        let at_golden_seed;
        let cells = if o.seed == GOLDEN_SEED {
            plain.get("cells")
        } else {
            at_golden_seed = pass_child(w, GOLDEN_SEED, o.sizes, false)?;
            at_golden_seed.get("cells")
        };
        let drift = drift_cells(w, cells.and_then(Value::as_arr).unwrap_or(&[]))?;
        rows.push(row("model.drift_cells", "count", drift as f64));
    }

    let spans = prof.get("spans").cloned().unwrap_or(Value::Arr(Vec::new()));
    let table = reconciliation(
        w,
        &prof,
        &names.map(|n| (n, calibrated(n))),
        floor_s,
        residual_s,
    )?;
    let count = |p: &Value, key: &str| p.get(key).and_then(Value::as_u64).unwrap_or(0);
    Ok(Traced {
        rows,
        table,
        spans,
        attempted: count(plain, "attempted") + count(&prof, "attempted"),
        failed: count(plain, "bad") + count(&prof, "bad"),
    })
}

fn reconciliation(
    w: Workload,
    prof: &Value,
    phases: &[(&str, f64)],
    floor_s: f64,
    residual_s: f64,
) -> Result<String, String> {
    let self_times = |key: &str| -> Vec<(String, f64)> {
        let members = match prof.get(key) {
            Some(Value::Obj(members)) => members.as_slice(),
            _ => &[],
        };
        members
            .iter()
            .map(|(k, v)| (k.to_string(), v.as_f64().unwrap_or(0.0) / 1e9))
            .collect()
    };
    let wall_s = num(prof, "wall_s")?;
    let run_s = num(prof, "run_span_ns")? / 1e9;
    let mut t = String::new();
    let _ = writeln!(t, "reconciliation  {}  (traced pass, host clock)", w.name());
    let _ = writeln!(t, "  {:<34}{:>12.6} s", "timed pass wall", wall_s);
    let mut self_sum = 0.0;
    for (name, s) in self_times("pass_self") {
        self_sum += s;
        let _ = writeln!(t, "    self  {:<28}{:>12.6} s", name, s);
    }
    let _ = writeln!(
        t,
        "  {:<34}{:>12.6} s  ({:.2} % of wall)",
        "sum of span self times",
        self_sum,
        self_sum / wall_s * 100.0
    );
    let _ = writeln!(t, "  {:<34}{:>12.6} s", "inside `run`", run_s);
    for (name, ns) in phases {
        let _ = writeln!(t, "    engine  {:<26}{:>12.6} s", name, ns / 1e9);
    }
    let engine_s: f64 = phases.iter().map(|(_, ns)| ns / 1e9).sum();
    let _ = writeln!(
        t,
        "    {:<32}{:>12.6} s  (calibrated phase windows)",
        "engine.total", engine_s
    );
    let _ = writeln!(
        t,
        "    {:<32}{:>12.6} s  (apps run outside any runtime)",
        "app floor", floor_s
    );
    let _ = writeln!(
        t,
        "    {:<32}{:>12.6} s  (fibers, policy, sync, glue: no window)",
        "engine.residual_s", residual_s
    );
    let parts = engine_s + floor_s + residual_s;
    let _ = writeln!(
        t,
        "  {:<34}{:>12.6} s  ({:.2} % of `run`)",
        "sum",
        parts,
        parts / run_s * 100.0
    );
    let setup: Vec<String> = self_times("setup_self")
        .iter()
        .map(|(n, s)| format!("{n} {s:.3} s"))
        .collect();
    let _ = writeln!(t, "  set-up self times: {}", setup.join(", "));
    Ok(t)
}

/// Cells of `w` at the golden seed that differ from `perf/golden/seed42.json`
/// (missing and unexpected cells count too).
fn drift_cells(w: Workload, cells: &[Value]) -> Result<usize, String> {
    let golden = Value::parse(GOLDEN_JSON).map_err(|e| format!("golden/seed42.json: {e}"))?;
    let pinned = golden
        .get("workloads")
        .and_then(|g| g.get(w.name()))
        .and_then(Value::as_arr)
        .unwrap_or(&[]);
    let name = |c: &Value| c.get("name").and_then(Value::as_str).map(str::to_string);
    let changed = pinned
        .iter()
        .filter(|g| !cells.iter().any(|c| c == *g))
        .count();
    let unexpected = cells
        .iter()
        .filter(|c| !pinned.iter().any(|g| name(g) == name(c)))
        .count();
    Ok(changed + unexpected)
}

/// The golden document for the current tree: every workload's cells at the
/// golden seed and full sizes.
pub fn golden_document() -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let p = pass_child(w, GOLDEN_SEED, Sizes::full(), false)?;
        workloads.push((
            w.name(),
            p.get("cells").cloned().unwrap_or(Value::Arr(Vec::new())),
        ));
    }
    Ok(obj(vec![
        ("seed", Value::UInt(GOLDEN_SEED)),
        ("workloads", obj(workloads)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_counts_changed_missing_and_unexpected_cells() {
        let golden = Value::parse(GOLDEN_JSON).unwrap();
        let pinned = golden
            .get("workloads")
            .and_then(|g| g.get("spawn_storm"))
            .and_then(Value::as_arr)
            .unwrap();
        assert!(!pinned.is_empty(), "golden file pins spawn_storm");
        assert_eq!(drift_cells(Workload::SpawnStorm, pinned).unwrap(), 0);
        assert_eq!(
            drift_cells(Workload::SpawnStorm, &[]).unwrap(),
            pinned.len()
        );
        let mut moved = pinned.to_vec();
        if let Value::Obj(members) = &mut moved[0] {
            for (k, v) in members.iter_mut() {
                if &**k == "makespan_ns" {
                    *v = Value::UInt(v.as_u64().unwrap() + 1);
                }
            }
        }
        assert_eq!(drift_cells(Workload::SpawnStorm, &moved).unwrap(), 1);
        moved.push(obj(vec![("name", Value::Str("extra/df".into()))]));
        assert_eq!(drift_cells(Workload::SpawnStorm, &moved).unwrap(), 2);
    }
}
