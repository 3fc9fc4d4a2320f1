//! Policy sweep for the open-system server workload.
//!
//! Runs the simulated RPC server at 2× overload (plus a `df` nominal-load
//! baseline) under each scheduling policy, prints a latency/goodput table,
//! and folds the results into the committed `BENCH_sched.json` snapshot as
//! the `"server"` member (other members are preserved).
//!
//! `REPRO_QUICK=1` shrinks the workload to CI-smoke size; `REPRO_OUT`
//! redirects the JSON snapshot directory.

use ptdf::json::{obj, Value};
use ptdf::SchedKind;
use ptdf_server::{serve, ServerConfig, ServerRun};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

const SEED: u64 = 42;
const PROCS: usize = 4;

fn main() {
    let quick = std::env::var("REPRO_QUICK").is_ok();
    let base = if quick {
        ServerConfig::quick(SEED)
    } else {
        ServerConfig::standard(SEED)
    };

    let mut cells: Vec<(String, u64, ServerRun)> = Vec::new();
    for sched in POLICIES {
        let run = serve(&base.clone().overload_pct(200), PROCS, sched);
        cells.push((sched.name().to_string(), 200, run));
    }
    // Nominal-load baseline under the paper's scheduler, for contrast.
    let run = serve(&base.clone().overload_pct(100), PROCS, SchedKind::Df);
    cells.push(("df".to_string(), 100, run));

    println!(
        "{:<10} {:>5} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "sched",
        "load%",
        "compl",
        "cancel",
        "late",
        "shed",
        "p50us",
        "p99us",
        "p999us",
        "good/ms",
        "peakKB"
    );
    for (name, load, run) in &cells {
        println!(
            "{:<10} {:>5} {:>6} {:>6} {:>5} {:>5} {:>9.1} {:>9.1} {:>9.1} {:>8.2} {:>8}",
            name,
            load,
            run.stats.completed,
            run.stats.canceled,
            run.stats.late,
            run.stats.shed,
            run.p50() as f64 / 1e3,
            run.p99() as f64 / 1e3,
            run.p999() as f64 / 1e3,
            run.goodput_per_ms(),
            run.report.footprint() / 1024,
        );
        assert_eq!(
            run.report.bound_violations(),
            0,
            "{name}@{load}%: shedding failed to protect the space bound"
        );
        assert!(
            run.report.stalled().is_none(),
            "{name}@{load}%: server run stalled"
        );
    }

    let rows: Vec<Value> = cells
        .iter()
        .map(|(name, load, run)| {
            obj(vec![
                ("sched", Value::Str(name.as_str().into())),
                ("load_pct", Value::UInt(*load)),
                ("procs", Value::UInt(PROCS as u64)),
                ("offered", Value::UInt(run.stats.offered)),
                ("admitted", Value::UInt(run.stats.admitted)),
                ("completed", Value::UInt(run.stats.completed)),
                ("canceled", Value::UInt(run.stats.canceled)),
                ("late", Value::UInt(run.stats.late)),
                ("shed", Value::UInt(run.stats.shed)),
                ("retried_admits", Value::UInt(run.stats.retried_admits)),
                ("p50_us", Value::Float(run.p50() as f64 / 1e3)),
                ("p99_us", Value::Float(run.p99() as f64 / 1e3)),
                ("p999_us", Value::Float(run.p999() as f64 / 1e3)),
                ("goodput_per_ms", Value::Float(run.goodput_per_ms())),
                ("shed_rate", Value::Float(run.shed_rate())),
                ("peak_kb", Value::UInt(run.report.footprint() / 1024)),
                (
                    "bound_violations",
                    Value::UInt(run.report.bound_violations()),
                ),
            ])
        })
        .collect();
    let server = obj(vec![
        ("quick", Value::Bool(quick)),
        ("seed", Value::UInt(SEED)),
        ("requests", Value::UInt(base.requests as u64)),
        ("deadline_us", Value::UInt(base.deadline.as_ns() / 1_000)),
        ("space_bound_kb", Value::UInt(base.space_bound / 1024)),
        ("rows", Value::Arr(rows)),
    ]);

    let path = json_path();
    let doc = match std::fs::read_to_string(&path) {
        Ok(text) => merge_server(&text, server),
        Err(_) => obj(vec![("server", server)]),
    };
    std::fs::write(&path, doc.to_json() + "\n").expect("write BENCH_sched.json");
    println!("wrote {}", path.display());
}

/// Replaces (or appends) the `"server"` member of the existing snapshot,
/// leaving every other member untouched.
fn merge_server(text: &str, server: Value) -> Value {
    let parsed = Value::parse(text).expect("BENCH_sched.json parses");
    let Value::Obj(mut members) = parsed else {
        panic!("BENCH_sched.json root is not an object");
    };
    if let Some(slot) = members.iter_mut().find(|(k, _)| &**k == "server") {
        slot.1 = server;
    } else {
        members.push((ptdf::json::intern("server"), server));
    }
    Value::Obj(members)
}

/// `BENCH_sched.json` at the workspace root (the committed snapshot
/// location), `REPRO_OUT` overriding the directory — mirrors the bench
/// crate's convention.
fn json_path() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("REPRO_OUT") {
        return std::path::PathBuf::from(dir).join("BENCH_sched.json");
    }
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .nth(3)
        .map(|ws| ws.join("BENCH_sched.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_sched.json"))
}
