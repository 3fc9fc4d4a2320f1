//! Policy sweep for the open-system server workload.
//!
//! Runs the simulated RPC server ([`ServerConfig::standard`], 400 requests)
//! at 2× overload (plus a `df` nominal-load baseline) under each scheduling
//! policy, prints a latency/goodput table, and fails if a run violated the
//! space bound or stalled. The benchmark's `server_nominal` and
//! `server_overload` workloads time the same server at 80,000 requests.

use ptdf::SchedKind;
use ptdf_server::{serve, ServerConfig, ServerRun};

const SEED: u64 = 42;
const PROCS: usize = 4;

fn main() {
    let base = ServerConfig::standard(SEED);

    let mut cells: Vec<(String, u64, ServerRun)> = Vec::new();
    for sched in SchedKind::SWEEP {
        let run = serve(&base.overload_pct(200), PROCS, sched);
        cells.push((sched.name().to_string(), 200, run));
    }
    // Nominal-load baseline under the paper's scheduler, for contrast.
    let run = serve(&base.overload_pct(100), PROCS, SchedKind::Df);
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
}
