//! Engine hot-path equivalence smoke: run the same workload with the
//! engine hot path (batched charge transactions, serial fast path, pooled
//! trace events) on and off, tracing enabled, and write both Chrome traces
//! to `target/traces/` for `ptdf-trace diff`.
//!
//! The hot path is a host-side reorganization only — virtual makespans,
//! span sets, event streams, and counter tracks must all be bit-identical,
//! so the two exported files must compare byte-equal. This example asserts
//! that directly (exits nonzero on any divergence); CI re-checks the files
//! with `cmp` and shows the side-by-side `ptdf-trace diff` for the log.
//!
//! Run with: `cargo run --release --example hotpath_diff`

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
    let mut runs = Vec::new();
    for on in [true, false] {
        let cfg = Config::new(4, SchedKind::Df).with_trace().with_hot_path(on);
        let (_, report) = ptdf::run(cfg, {
            let (a, b) = (a.clone(), b.clone());
            move || matmul::multiply(&a, &b, &p)
        });
        let trace = report.trace.as_ref().expect("tracing enabled");
        let path = dir.join(format!(
            "trace_hotpath_{}.json",
            if on { "on" } else { "off" }
        ));
        let mut file = std::fs::File::create(&path).expect("create trace file");
        trace.write_chrome_json(&mut file).expect("write trace");
        println!(
            "hot_path={on}: makespan {} ns, {} spans, {} events — wrote {}",
            report.makespan().as_ns(),
            trace.len(),
            trace.events.len(),
            path.display()
        );
        runs.push((report.makespan().as_ns(), path));
    }
    assert_eq!(
        runs[0].0, runs[1].0,
        "virtual makespan must not depend on the hot path"
    );
    let [on, off] =
        [&runs[0].1, &runs[1].1].map(|path| std::fs::read(path).expect("read trace back"));
    assert!(
        on == off,
        "Chrome trace must be byte-identical with the hot path on and off"
    );
    println!(
        "hot path on/off: traces byte-identical ({} bytes)",
        on.len()
    );
}
