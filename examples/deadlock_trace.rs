//! Deadlock sentinel demo: run a three-thread lock cycle, let the waits-for
//! detector name it, and write the flight-recorder trace for the companion
//! CLI to flag.
//!
//! Run with: `cargo run --release --example deadlock_trace`
//!
//! The trace lands in `target/traces/trace_deadlock.json`; check it with
//! `cargo run --release -p ptdf-trace-tools --bin ptdf-trace -- check target/traces/trace_deadlock.json`
//! which exits 1 and prints the cycle — the same membership reported here
//! through [`ptdf::Report::deadlocks`].

use ptdf::{spawn, try_run, Config, Mutex, SchedKind};

fn main() {
    let cfg = Config::new(3, SchedKind::Df)
        .with_trace()
        .with_perturbation(9);
    // One member is *expected* to unwind with DeadlockError; keep the
    // default hook from spraying its backtrace over the demo output.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = try_run(cfg, || {
        // Three locks acquired in a ring: t1 holds a wants b, t2 holds b
        // wants c, t3 holds c wants a. The holds exceed the 200 µs
        // interleaving quantum so all three demonstrably interlock.
        let locks = [Mutex::new(()), Mutex::new(()), Mutex::new(())];
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let first = locks[i].clone();
                let second = locks[(i + 1) % 3].clone();
                spawn(move || {
                    let _g1 = first.lock();
                    ptdf::work(300_000);
                    let _g2 = second.lock();
                })
            })
            .collect();
        // The member that closes the cycle unwinds with DeadlockError;
        // absorb it so the run itself completes with a verdict.
        handles
            .into_iter()
            .map(|h| h.try_join().is_err() as u32)
            .sum::<u32>()
    });
    let _ = std::panic::take_hook();
    let (unwound, report) = outcome.expect("a detected deadlock is a verdict, not a stall");
    assert_eq!(unwound, 1, "exactly one member unwinds with DeadlockError");
    let deadlocks = report.deadlocks();
    assert_eq!(deadlocks.len(), 1, "one cycle expected");
    println!("runtime verdict: {}", deadlocks[0]);
    let mut members = deadlocks[0].cycle.clone();
    members.sort_unstable();
    println!("cycle members (sorted): {members:?}");

    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).expect("create target/traces");
    let path = dir.join("trace_deadlock.json");
    let trace = report.trace.expect("tracing enabled");
    let mut file = std::fs::File::create(&path).expect("create trace file");
    trace.write_chrome_json(&mut file).expect("write trace");
    println!(
        "wrote {} ({} events) — `ptdf-trace check` on it exits 1 and names the cycle",
        path.display(),
        trace.events.len()
    );
}
