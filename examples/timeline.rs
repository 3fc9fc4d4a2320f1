//! Execution-trace visualization: run the divide-and-conquer matmul under
//! two schedulers with the flight recorder enabled and write Chrome-trace
//! JSON files (open in `chrome://tracing` or https://ui.perfetto.dev)
//! showing how each policy places threads on the virtual processors, plus
//! the counter tracks (footprint, live threads, ready queue).
//!
//! Run with: `cargo run --release --example timeline`
//!
//! Traces land in `target/traces/`; inspect them with the companion CLI:
//! `cargo run --release -p ptdf-trace-tools --bin ptdf-trace -- summarize target/traces/trace_df.json`

use ptdf::{Config, SchedKind};
use ptdf_apps::matmul;

fn main() {
    let p = matmul::Params {
        n: 256,
        base: 64,
        seed: 42,
    };
    let (a, b) = matmul::gen_input(&p);
    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).expect("create target/traces");
    for kind in [SchedKind::Fifo, SchedKind::Df] {
        let (_, report) = ptdf::run(Config::new(4, kind).with_trace(), {
            let (a, b) = (a.clone(), b.clone());
            move || matmul::multiply(&a, &b, &p)
        });
        let trace = report.trace.as_ref().expect("tracing enabled");
        let path = dir.join(format!("trace_{}.json", report.scheduler));
        let mut file = std::fs::File::create(&path).expect("create trace file");
        trace.write_chrome_json(&mut file).expect("write trace");
        println!(
            "{:>5}: {} spans, {} events over {} — wrote {}",
            report.scheduler,
            trace.len(),
            trace.events.len(),
            report.makespan(),
            path.display(),
        );
        // Quick ASCII utilization summary.
        for (proc, busy) in trace.busy_per_proc(report.processors).iter().enumerate() {
            let frac = busy.as_ns() as f64 / report.makespan().as_ns().max(1) as f64;
            let bar = "#".repeat((frac * 40.0) as usize);
            println!("        cpu{proc}: {bar:<40} {:.0}%", frac * 100.0);
        }
        // Lifecycle digest from the recorder.
        let lc = report.lifecycle().expect("tracing enabled");
        println!(
            "        {} threads, {} quanta; dispatch latency p50 {} p99 {}; footprint hwm {} B",
            lc.threads,
            lc.total_quanta,
            lc.dispatch_latency.p50,
            lc.dispatch_latency.p99,
            trace.footprint_hwm(),
        );
    }
    println!("\nLoad either file in chrome://tracing or ui.perfetto.dev.");
}
