//! `ptdf-perf`: the repository's benchmark. See `perf/README.md`.
//!
//! ```text
//! ptdf-perf --workload W --seed N --seconds S --trace 0|1   one run, last line JSON
//! ptdf-perf all   [--seed N] [--quick]                      every metric, every workload
//! ptdf-perf run   [--workload W] [--seed N] [--quick]       end-to-end metrics, tracing off
//! ptdf-perf trace [--workload W] [--seed N] [--quick]       traced run + reconciliation
//! ptdf-perf layers [--seed N] [--quick]                     the micro ledger
//! ptdf-perf pass <workload> [--seed N] [--quick] [--profile] one child pass
//! ptdf-perf compare <A…> -- <B…>                            verdict per (metric, workload)
//! ptdf-perf golden                                          regenerate golden/seed42.json
//! ```

mod bench;
mod compare;
mod layers;
mod manifest;
mod pass;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use ptdf::json::{obj, Value};

use bench::{EndToEnd, Metric, Opts, Traced};
use manifest::Manifest;
use workloads::{Sizes, Workload};

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    profile: bool,
    json: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        command: None,
        positional: Vec::new(),
        workloads: Vec::new(),
        seed: bench::GOLDEN_SEED,
        seconds: None,
        trace: None,
        quick: false,
        profile: false,
        json: false,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                a.workloads.push(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--quick" => a.quick = true,
            "--profile" => a.profile = true,
            "--json" => a.json = true,
            flag if flag.starts_with("--") && flag != "--" => {
                return Err(format!("unknown flag `{flag}`"))
            }
            _ if a.command.is_none() && a.trace.is_none() && a.workloads.is_empty() => {
                a.command = Some(arg.clone())
            }
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("out")
}

fn write_out(stem: &str, doc: &Value) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("{stem}-{stamp}.json"));
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn metrics_json(metrics: &[Metric]) -> Value {
    obj(metrics
        .iter()
        .map(|m| (m.name.as_str(), m.to_json()))
        .collect())
}

fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<16} {:<36} {:<8} {:<22} {}",
            workload, m.name, m.unit, m.value, m.detail
        );
    }
}

/// What one invocation measured, per workload, plus the shared micro ledger.
#[derive(Default)]
struct Results {
    end_to_end: Vec<(Workload, EndToEnd)>,
    traced: Vec<(Workload, Traced)>,
    layers: Vec<Metric>,
}

impl Results {
    fn to_json(&self, seed: u64, quick: bool) -> Value {
        let mut workloads: Vec<(&str, Value)> = Vec::new();
        for w in Workload::ALL {
            let mut body = Vec::new();
            if let Some((_, e)) = self.end_to_end.iter().find(|(x, _)| *x == w) {
                body.push(("correct", Value::Bool(e.correct)));
                body.push(("attempted", Value::UInt(e.attempted)));
                body.push(("failed", Value::UInt(e.failed)));
                body.push(("end_to_end", metrics_json(&e.metrics)));
                body.push(("passes", Value::Arr(e.passes.clone())));
            }
            if let Some((_, t)) = self.traced.iter().find(|(x, _)| *x == w) {
                body.push(("per_layer", metrics_json(&t.rows)));
                body.push(("spans", t.spans.clone()));
            }
            if !body.is_empty() {
                workloads.push((w.name(), obj(body)));
            }
        }
        obj(vec![
            ("seed", Value::UInt(seed)),
            ("quick", Value::Bool(quick)),
            ("workloads", obj(workloads)),
            ("layers", metrics_json(&self.layers)),
        ])
    }
}

fn opts(a: &Args, manifest: &Manifest) -> Opts {
    Opts {
        seed: a.seed,
        sizes: if a.quick {
            Sizes::quick()
        } else {
            Sizes::full()
        },
        seconds: a.seconds.unwrap_or(if a.quick {
            0.0
        } else {
            manifest.run_seconds as f64
        }),
        min_passes: if a.quick { 2 } else { bench::MIN_PASSES },
    }
}

/// The traced run of `w`: with no end-to-end run to lean on it measures one
/// untraced pass of its own to reconcile against.
fn trace_one(
    w: Workload,
    o: &Opts,
    manifest: &Manifest,
    e2e: Option<&EndToEnd>,
) -> Result<Traced, String> {
    let own;
    let e2e = match e2e {
        Some(e) => e,
        None => {
            own = bench::end_to_end(
                w,
                &Opts {
                    min_passes: 1,
                    seconds: 0.0,
                    ..*o
                },
                manifest,
            )?;
            &own
        }
    };
    let wall = e2e
        .metrics
        .iter()
        .find(|m| m.name == "host_wall_s")
        .map_or(f64::NAN, |m| m.value);
    bench::traced(w, o, &e2e.passes[0], wall)
}

/// `all`, `run` and `trace`.
fn human(
    a: &Args,
    manifest: &Manifest,
    with_e2e: bool,
    with_trace: bool,
) -> Result<ExitCode, String> {
    let o = opts(a, manifest);
    let chosen = if a.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        a.workloads.clone()
    };
    let mut r = Results::default();
    let mut ok = true;
    for &w in &chosen {
        if with_e2e {
            let e = bench::end_to_end(w, &o, manifest)?;
            print_metrics(w.name(), &e.metrics);
            println!(
                "check  {:<16} outputs {} ({} of {} operations wrong)",
                w.name(),
                if e.correct { "correct" } else { "WRONG" },
                e.failed,
                e.attempted
            );
            ok &= e.correct;
            r.end_to_end.push((w, e));
        }
        if with_trace {
            let t = trace_one(w, &o, manifest, r.end_to_end.last().map(|(_, e)| e))?;
            print_metrics(w.name(), &t.rows);
            if a.quick {
                println!(
                    "metric {:<16} {:<36} {:<8} n/a (the golden file pins full sizes)",
                    w.name(),
                    "model.drift_cells",
                    "count"
                );
            }
            print!("{}", t.table);
            ok &= t.failed == 0;
            r.traced.push((w, t));
        }
    }
    if with_trace {
        r.layers = bench::layers_child(o.seed, o.sizes)?;
        print_metrics("-", &r.layers);
    }
    let stem = format!("{}-seed{}", a.command.as_deref().unwrap_or("run"), a.seed);
    println!(
        "wrote {}",
        write_out(&stem, &r.to_json(a.seed, a.quick))?.display()
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The driver contract: one workload, one mode, and as the last line of
/// standard output one JSON object with `correct`, `attempted`, `failed` and
/// `metrics` — every end-to-end metric with `--trace 0`, every per-layer
/// metric with `--trace 1`.
fn driver(a: &Args, manifest: &Manifest) -> Result<ExitCode, String> {
    let [w] = a.workloads[..] else {
        return Err("the driver mode takes exactly one --workload".to_string());
    };
    let trace = a.trace.ok_or("the driver mode needs --trace 0|1")?;
    let o = opts(a, manifest);
    let mut r = Results::default();
    let (metrics, wanted, attempted, failed, correct);
    if trace {
        let t = trace_one(w, &o, manifest, None)?;
        print!("{}", t.table);
        r.layers = bench::layers_child(o.seed, o.sizes)?;
        metrics = [r.layers.clone(), t.rows.clone()].concat();
        (attempted, failed, correct) = (t.attempted, t.failed, t.failed == 0);
        wanted = &manifest.per_layer;
        r.traced.push((w, t));
    } else {
        let e = bench::end_to_end(w, &o, manifest)?;
        metrics = e.metrics.clone();
        (attempted, failed, correct) = (e.attempted, e.failed, e.correct);
        wanted = &manifest.end_to_end;
        r.end_to_end.push((w, e));
    }
    for def in wanted {
        // The golden file pins full sizes; a quick run has no drift row.
        let skipped = a.quick && def.name == "model.drift_cells";
        if !skipped && !metrics.iter().any(|m| m.name == def.name) {
            return Err(format!(
                "`{}` is in BENCHMARK.json but was not measured",
                def.name
            ));
        }
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !wanted.iter().any(|d| d.name == m.name))
    {
        return Err(format!(
            "`{}` was measured but is not in BENCHMARK.json",
            extra.name
        ));
    }
    write_out(
        &format!("driver-{}-seed{}-trace{}", w.name(), a.seed, trace as u8),
        &r.to_json(a.seed, a.quick),
    )?;
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        (
            "metrics",
            obj(metrics
                .iter()
                .map(|m| {
                    (
                        m.name.as_str(),
                        obj(vec![
                            ("value", Value::Float(m.value)),
                            ("unit", Value::Str(m.unit.as_str().into())),
                        ]),
                    )
                })
                .collect()),
        ),
    ]);
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

fn dispatch(raw: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(raw)?;
    let manifest = Manifest::load();
    let sizes = if a.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    match a.command.as_deref() {
        None => driver(&a, &manifest),
        Some("all") => human(&a, &manifest, true, true),
        Some("run") => human(&a, &manifest, true, false),
        Some("trace") => human(&a, &manifest, false, true),
        Some("layers") => {
            let rows = layers::measure(a.seed, sizes);
            if a.json {
                println!("{}", bench::rows_json(&rows).to_json());
            } else {
                print_metrics("-", &rows);
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("pass") => {
            let name = a.positional.first().ok_or("pass needs a workload name")?;
            let w =
                Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            println!("{}", pass::run_pass(w, a.seed, sizes, a.profile).to_json());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let split = a
                .positional
                .iter()
                .position(|p| p == "--")
                .ok_or("usage: compare <A…> -- <B…>")?;
            let regressed = compare::run(
                &a.positional[..split],
                &a.positional[split + 1..],
                &manifest,
            )?;
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("golden") => {
            println!("{}", bench::golden_document()?.to_json());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    // A cancelled thread unwinds with a `CancelError` panic payload. The
    // default hook would print a message for each — tens of thousands of
    // stderr lines per `sync_storm` pass, which is then what the pass times.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<ptdf::CancelError>().is_none() {
            default_hook(info);
        }
    }));
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ptdf-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
