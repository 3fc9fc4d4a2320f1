//! Tracing-overhead guard: the flight recorder must be near-zero-cost when
//! disabled and cheap when enabled.
//!
//! Two measurements:
//!
//! 1. **Engine fork/join storm** — a binary fork tree with leaf joins run
//!    through the full engine, host-timed with the recorder off and on.
//!    Prints the enabled-tracing overhead percentage.
//! 2. **Guard mode** (`TRACE_GUARD=1`) — re-runs the wallclock micro
//!    dispatch storms with tracing-free policies and compares the indexed
//!    implementations against the committed `BENCH_sched.json` baseline:
//!    each `ns_per_dispatch` must stay within `TRACE_GUARD_TOL` (default
//!    0.03 = 3%) of the baseline, exiting nonzero on a regression. Points
//!    over tolerance are individually re-measured (best-of) before being
//!    flagged, so shared-host scheduling noise doesn't trip the gate.
//!    Guard mode also re-runs the engine spawn storm and holds it to the
//!    committed baseline and to a ≥90% stack-pool hit rate. Finally it
//!    re-runs the sentinel-armed join storm and holds the deadlock
//!    sentinel's waits-for bookkeeping
//!    to the committed `sentinel_storm` baseline within
//!    `TRACE_GUARD_SENTINEL_TOL` (default 0.05 = 5%); the sentinel's cost
//!    on the *policy-level* indexed dispatch paths is zero by design
//!    (bookkeeping lives in the engine's block/unblock paths), which the
//!    micro-storm comparison above witnesses. It also re-runs the spawn
//!    storm with the host phase profiler explicitly disarmed
//!    (`with_host_profile(false)`) and holds it to the committed spawn
//!    baseline — the profiler must be zero-cost when off.
//!
//! Run with: `cargo bench -p ptdf-bench --bench trace_overhead`
//! (`REPRO_QUICK=1` for the CI smoke configuration.)

use std::time::Instant;

use ptdf::json::Value;
use ptdf::{Config, SchedKind};
use ptdf_bench::wallclock::{self, StormPoint};

fn fork_tree(depth: u32) {
    if depth == 0 {
        ptdf::work(500);
        return;
    }
    let left = ptdf::spawn(move || fork_tree(depth - 1));
    fork_tree(depth - 1);
    left.join();
}

/// Host-times one engine run of the fork/join storm; returns (ms, spans).
fn storm(kind: SchedKind, depth: u32, trace: bool) -> (f64, usize) {
    let cfg = Config::new(4, kind);
    let cfg = if trace { cfg.with_trace() } else { cfg };
    let start = Instant::now();
    let (_, report) = ptdf::run(cfg, move || fork_tree(depth));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, report.trace.map_or(0, |t| t.len()))
}

fn main() {
    let quick = wallclock::quick();
    let depth = if quick { 10 } else { 13 };
    let reps = if quick { 3 } else { 5 };

    println!("engine fork/join storm (depth {depth}, {reps} reps, best-of):");
    for kind in [SchedKind::Df, SchedKind::Ws] {
        // Warm-up, then best-of-N to shed scheduler noise.
        storm(kind, depth, false);
        let off = (0..reps)
            .map(|_| storm(kind, depth, false).0)
            .fold(f64::INFINITY, f64::min);
        let (mut on, mut spans) = (f64::INFINITY, 0);
        for _ in 0..reps {
            let (ms, s) = storm(kind, depth, true);
            if ms < on {
                (on, spans) = (ms, s);
            }
        }
        println!(
            "  {:>9}: off {off:.1} ms, on {on:.1} ms ({spans} spans) — overhead {:+.1}%",
            kind.name(),
            (on / off - 1.0) * 100.0
        );
    }

    if std::env::var("TRACE_GUARD").is_ok_and(|v| v == "1") {
        std::process::exit(guard());
    }
}

/// Compares fresh indexed micro-storm numbers against the committed
/// baseline; returns the process exit code.
fn guard() -> i32 {
    let tol: f64 = std::env::var("TRACE_GUARD_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.03);
    let path = wallclock::json_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("guard: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    let doc = match Value::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("guard: {}: {e}", path.display());
            return 1;
        }
    };
    let Some(baseline) = doc.get("micro_dispatch").and_then(|v| v.as_arr()) else {
        eprintln!("guard: {} has no micro_dispatch table", path.display());
        return 1;
    };

    // run_micro_indexed is already best-of-N per point; single samples on a
    // shared host swing by tens of percent, the minimum is stable. Points
    // that still exceed tolerance get individually re-measured a few times
    // (keeping the minimum) before being called regressions: noise never
    // survives extra minima, a real slowdown does.
    const GUARD_RETRIES: usize = 4;
    let fresh = wallclock::run_micro_indexed();
    println!("guard: indexed dispatch vs {} (tol {:.0}%):", path.display(), tol * 100.0);
    let mut failed = false;
    let mut compared = 0;
    for p in fresh.iter().filter(|p| p.impl_name == "indexed") {
        let Some(base) = lookup(baseline, p) else {
            continue; // baseline from a different size sweep (quick vs full)
        };
        compared += 1;
        let mut best = p.ns_per_dispatch;
        let mut retries = 0;
        while best > base * (1.0 + tol) && retries < GUARD_RETRIES {
            if let Some(r) = wallclock::remeasure_indexed(p.storm, p.live_threads) {
                best = best.min(r.ns_per_dispatch);
            }
            retries += 1;
        }
        let ratio = best / base;
        let verdict = if ratio <= 1.0 + tol { "ok" } else { "REGRESSION" };
        println!(
            "  {:<22} @{:>9}: {:.1} ns vs {:.1} ns baseline ({:+.1}%, {retries} retries) {verdict}",
            p.storm,
            p.live_threads,
            best,
            base,
            (ratio - 1.0) * 100.0
        );
        failed |= ratio > 1.0 + tol;
    }
    if compared == 0 {
        eprintln!("guard: no comparable baseline entries (size sweeps differ)");
        return 1;
    }

    failed |= spawn_guard(&doc, tol);
    failed |= sentinel_guard(&doc);
    failed |= host_profile_off_guard(&doc, tol);
    i32::from(failed)
}

/// The committed spawn-storm `ns_per_spawn` for a storm of `threads`.
fn spawn_baseline(doc: &Value, threads: u64) -> Option<f64> {
    doc.get("spawn_storm")
        .and_then(Value::as_arr)
        .and_then(|arr| {
            arr.iter()
                .find(|b| {
                    b.get("pool").and_then(Value::as_str) == Some("pooled")
                        && b.get("threads").and_then(Value::as_u64) == Some(threads)
                })
                .and_then(|b| b.get("ns_per_spawn").and_then(Value::as_f64))
        })
}

/// Holds the line on the host phase profiler's *disarmed* cost: a spawn
/// storm run with `with_host_profile(false)` — the path every unprofiled
/// run takes through the profiler's hot-path hooks — must stay within
/// tolerance of the committed spawn baseline. When off, the hooks are one
/// `Option` discriminant test each; this guard is what keeps them that way.
fn host_profile_off_guard(doc: &Value, tol: f64) -> bool {
    const GUARD_RETRIES: usize = 4;
    let fresh = wallclock::spawn_storm_profile_off();
    let Some(base) = spawn_baseline(doc, fresh.threads) else {
        println!(
            "  host_profile(off): no committed spawn baseline for {} threads",
            fresh.threads
        );
        return false;
    };
    let mut best = fresh.ns_per_spawn;
    let mut retries = 0;
    while best > base * (1.0 + tol) && retries < GUARD_RETRIES {
        best = best.min(wallclock::spawn_storm_profile_off().ns_per_spawn);
        retries += 1;
    }
    let ratio = best / base;
    let verdict = if ratio <= 1.0 + tol { "ok" } else { "REGRESSION" };
    println!(
        "  host_profile(off) spawn storm @{:>7}: {best:.1} ns vs {base:.1} ns baseline \
         ({:+.1}%, {retries} retries) {verdict}",
        fresh.threads,
        (ratio - 1.0) * 100.0
    );
    ratio > 1.0 + tol
}

/// Holds the line on the deadlock sentinel's waits-for bookkeeping: fresh
/// ns per blocking join must stay within `TRACE_GUARD_SENTINEL_TOL`
/// (default 5%) of the committed `sentinel_storm` baseline.
fn sentinel_guard(doc: &Value) -> bool {
    const GUARD_RETRIES: usize = 4;
    let tol: f64 = std::env::var("TRACE_GUARD_SENTINEL_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let fresh = wallclock::run_sentinel_storm();
    let baseline = doc.get("sentinel_storm").and_then(Value::as_arr).and_then(|arr| {
        arr.iter()
            .find(|b| b.get("joins").and_then(Value::as_u64) == Some(fresh.joins))
            .and_then(|b| b.get("ns_per_join").and_then(Value::as_f64))
    });
    let Some(base) = baseline else {
        println!("  sentinel_storm: no committed baseline for {} joins", fresh.joins);
        return false;
    };
    let mut best = fresh.ns_per_join;
    let mut retries = 0;
    while best > base * (1.0 + tol) && retries < GUARD_RETRIES {
        best = best.min(wallclock::remeasure_sentinel().ns_per_join);
        retries += 1;
    }
    let ratio = best / base;
    let verdict = if ratio <= 1.0 + tol { "ok" } else { "REGRESSION" };
    println!(
        "  sentinel_storm @{:>7} joins: {best:.1} ns vs {base:.1} ns baseline \
         ({:+.1}%, tol {:.0}%, {retries} retries) {verdict}",
        fresh.joins,
        (ratio - 1.0) * 100.0,
        tol * 100.0
    );
    ratio > 1.0 + tol
}

/// Holds the line on the spawn path: fresh ns/spawn must stay within
/// tolerance of the committed baseline (when one is present for this storm
/// size), and the stack pool must actually serve the storm (≥90% hit rate
/// on the real-stack backend).
fn spawn_guard(doc: &Value, tol: f64) -> bool {
    const GUARD_RETRIES: usize = 4;
    let fresh = wallclock::run_spawn_storm();
    let mut failed = false;
    match spawn_baseline(doc, fresh.threads) {
        Some(base) => {
            let mut best = fresh.ns_per_spawn;
            let mut retries = 0;
            while best > base * (1.0 + tol) && retries < GUARD_RETRIES {
                best = best.min(wallclock::remeasure_spawn().ns_per_spawn);
                retries += 1;
            }
            let ratio = best / base;
            let verdict = if ratio <= 1.0 + tol { "ok" } else { "REGRESSION" };
            println!(
                "  spawn_storm pooled @{:>7}: {best:.1} ns vs {base:.1} ns baseline ({:+.1}%, {retries} retries) {verdict}",
                fresh.threads,
                (ratio - 1.0) * 100.0
            );
            failed |= ratio > 1.0 + tol;
        }
        None => println!(
            "  spawn_storm: no committed baseline for {} threads",
            fresh.threads
        ),
    }
    if ptdf_fiber::HAS_REAL_STACKS && fresh.pool_hit_rate < 0.9 {
        println!(
            "  spawn_storm pooled hit rate {:.4} < 0.9 REGRESSION",
            fresh.pool_hit_rate
        );
        failed = true;
    }
    failed
}

/// Baseline `ns_per_dispatch` for the same (storm, impl, size) point.
fn lookup(baseline: &[Value], p: &StormPoint) -> Option<f64> {
    baseline
        .iter()
        .find(|b| {
            b.get("storm").and_then(Value::as_str) == Some(p.storm)
                && b.get("impl").and_then(Value::as_str) == Some(p.impl_name)
                && b.get("live_threads").and_then(Value::as_u64) == Some(p.live_threads)
        })
        .and_then(|b| b.get("ns_per_dispatch").and_then(Value::as_f64))
}
