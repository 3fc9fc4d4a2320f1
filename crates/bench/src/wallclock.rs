//! Wall-clock (host-time) harness for the scheduler dispatch hot paths.
//!
//! Two measurements feed `BENCH_sched.json` at the workspace root:
//!
//! 1. **Micro dispatch storms** — each policy is driven *directly* through
//!    [`ptdf::bench_api`] (no engine, no fibers, no cost model) on
//!    synthetic fork/join states of 10k–1M live threads. The storms pin
//!    the indexed hot paths' asymptotics:
//!
//!    * `df_join_storm`: one dispatchable root to the right of `n` blocked
//!      placeholders (a join-wave). The scheduler answers from its eligible
//!      index (O(log n)) instead of scanning the placeholders.
//!    * `dfdeques_poll_storm`: an owner deque holding `n` items published
//!      in the processor's virtual future (a `NotYet` poll, the idle
//!      processor's hot loop). The scheduler answers from its cached exact
//!      minimum (O(1)) instead of rescanning the items.
//!
//! 2. **Application wall-clock** — all seven paper applications (matmul,
//!    Barnes-Hut, FMM, decision tree, FFT, sparse matvec, volume
//!    rendering) at reduced scale under every scheduler, reporting total
//!    host runtime and host nanoseconds per engine dispatch. Each app's
//!    input is built once, before its timed runs, so the times cover the
//!    run alone; snapshots taken before the app registry timed input
//!    generation with each run and are not comparable.
//!
//! 3. **Spawn storm** — a 100k-thread fork/join churn through the full
//!    engine. Reports host nanoseconds per spawn and the fiber stack pool's
//!    hit rate; the overhead guard (`trace_overhead --bench`,
//!    `TRACE_GUARD=1`) holds spawn to the committed baseline and the hit
//!    rate to at least 90 %.
//!
//! 4. **Sentinel-armed join storm** — fork/join waves whose every join
//!    *blocks*, so the deadlock sentinel's waits-for bookkeeping (edge
//!    install, cycle walk, teardown) runs on each one. The committed
//!    `ns_per_join` cell is the baseline the overhead guard holds the
//!    bookkeeping to (default 5% tolerance).
//!
//! 5. **Host engine phases** — matmul, FFT, the decision tree, and a
//!    fork/join storm re-run under [`ptdf::Config::with_host_profile`]
//!    with tracing on, reporting where the engine's own host time goes
//!    (event-heap push/pop, dispatch prologue, charge batching, sched-lock
//!    accounting, trace allocation) as counts, nanoseconds, and shares.
//!
//! `REPRO_QUICK=1` shrinks the storm sizes and budgets for CI smoke runs.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ptdf::bench_api::{BenchPolicy, BenchPop};
use ptdf::{Config, SchedKind};

use ptdf_apps::{Version, APPS, DTREE, FFT, MATMUL};

use crate::{run_app, scale};

/// One (storm, size) measurement.
#[derive(Debug, Clone)]
pub struct StormPoint {
    /// Storm name.
    pub storm: &'static str,
    /// Scheduler the storm targets ("df" / "df-deques").
    pub sched: &'static str,
    /// Live threads resident in the policy during the measurement.
    pub live_threads: u64,
    /// Dispatch attempts timed.
    pub ops: u64,
    /// Host nanoseconds per dispatch attempt.
    pub ns_per_dispatch: f64,
}

/// One application run under one scheduler.
#[derive(Debug, Clone)]
pub struct AppPoint {
    /// Application name.
    pub app: &'static str,
    /// Scheduler name.
    pub sched: &'static str,
    /// Virtual processors.
    pub procs: usize,
    /// Total host runtime of the run, milliseconds; input generation is
    /// outside it (app rows of snapshots before the app registry include
    /// it).
    pub host_ms: f64,
    /// Engine dispatches over the run.
    pub dispatches: u64,
    /// Host nanoseconds per engine dispatch (total runtime / dispatches —
    /// an upper bound on scheduler cost, since it includes the app itself).
    pub host_ns_per_dispatch: f64,
    /// Virtual makespan of the run (model output, for cross-checking that
    /// implementations only changed speed, not results).
    pub virt_makespan_ns: u64,
}

/// True when `REPRO_QUICK=1` asks for a CI-sized smoke run.
pub fn quick() -> bool {
    std::env::var("REPRO_QUICK").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Storm sizes: 10k–1M live threads (10k–100k under `REPRO_QUICK`).
pub fn storm_sizes() -> Vec<u64> {
    if quick() {
        vec![10_000, 100_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    }
}

fn budget() -> Duration {
    Duration::from_millis(if quick() { 25 } else { 150 })
}

/// Times `op` repeatedly until the budget elapses, checking the clock every
/// eight iterations.
fn time_ops(mut op: impl FnMut(), budget: Duration) -> (u64, f64) {
    // Warm up (the first pop may lazily build state).
    op();
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        for _ in 0..8 {
            op();
        }
        ops += 8;
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return (ops, elapsed.as_nanos() as f64 / ops as f64);
        }
    }
}

const QUOTA: u64 = 1 << 20;

/// A join-wave: `n` blocked children sit immediately left of their ready
/// parent in the serial depth-first order, so every dispatch of the parent
/// must get past all of them. Measures pop + re-publish of the parent.
fn df_join_storm(mut pol: BenchPolicy, n: u64) -> (u64, f64) {
    pol.on_create(0, None, true, 0, 0);
    for i in 1..=n as u32 {
        // Handoff-created (running) children that block at once: each
        // leaves a non-ready placeholder immediately left of the root.
        pol.on_create(i, Some(0), false, 0, 0);
        pol.on_block(i);
    }
    time_ops(
        move || {
            match pol.pop(0, 1) {
                BenchPop::Got { tid: 0, .. } => {}
                r => panic!("join storm must dispatch the root, got {r:?}"),
            }
            pol.on_ready(0, 1, 0, None);
        },
        budget(),
    )
}

/// An idle-processor poll against an owner deque of `n` items all published
/// in the virtual future (e.g. by a processor running ahead): every pop is
/// a `NotYet`, the answer the engine uses to pick its idle-until time.
fn dfdeques_poll_storm(mut pol: BenchPolicy, n: u64) -> (u64, f64) {
    const FUTURE: u64 = 1 << 40;
    for i in 0..n as u32 {
        pol.on_create(i, None, true, FUTURE + u64::from(i), 0);
    }
    time_ops(
        move || match pol.pop(0, 0) {
            BenchPop::NotYet(t) if t == FUTURE => {}
            r => panic!("poll storm must answer NotYet({FUTURE}), got {r:?}"),
        },
        budget(),
    )
}

/// One storm case: names plus the storm function and a constructor for the
/// policy it drives (fresh state per repetition).
type StormCase = (
    &'static str,
    &'static str,
    fn(BenchPolicy, u64) -> (u64, f64),
    fn() -> BenchPolicy,
);

/// Repetitions per storm point; the minimum is kept. Host scheduling on a
/// shared machine swings single samples by tens of percent — the best-of
/// minimum is what the hot path can do and is stable enough to commit as a
/// baseline and to compare against one.
const STORM_REPS: usize = 3;

fn storm_cases() -> [StormCase; 2] {
    [
        ("df_join_storm", "df", df_join_storm, || {
            BenchPolicy::df(QUOTA)
        }),
        (
            "dfdeques_poll_storm",
            "df-deques",
            dfdeques_poll_storm,
            || BenchPolicy::dfdeques(QUOTA, 2),
        ),
    ]
}

/// Re-measures one storm point once (fresh policy, single repetition). The
/// overhead guard retries points that look like regressions through this:
/// host-scheduling noise never survives a few extra minima, a real
/// regression does.
pub fn remeasure_indexed(storm: &str, live_threads: u64) -> Option<StormPoint> {
    let &(name, sched, run, make) = storm_cases().iter().find(|c| c.0 == storm)?;
    let (ops, ns) = run(make(), live_threads);
    Some(StormPoint {
        storm: name,
        sched,
        live_threads,
        ops,
        ns_per_dispatch: ns,
    })
}

/// Runs every storm at every size (best of `STORM_REPS` per point).
pub fn run_micro() -> Vec<StormPoint> {
    let mut out = Vec::new();
    for &n in &storm_sizes() {
        for &(storm, sched, run, make) in &storm_cases() {
            let (mut ops, mut ns) = run(make(), n);
            for _ in 1..STORM_REPS {
                let (o, t) = run(make(), n);
                if t < ns {
                    (ops, ns) = (o, t);
                }
            }
            out.push(StormPoint {
                storm,
                sched,
                live_threads: n,
                ops,
                ns_per_dispatch: ns,
            });
        }
    }
    out
}

/// Schedulers the application sweep covers.
pub fn app_scheds() -> Vec<SchedKind> {
    vec![
        SchedKind::Fifo,
        SchedKind::Lifo,
        SchedKind::Df,
        SchedKind::DfDeques,
        SchedKind::Ws,
    ]
}

/// Times all seven paper applications (reduced scale) under each scheduler,
/// keyed by the short names `BENCH_sched.json` uses. Each app's input is
/// built once, before its timed runs.
pub fn run_apps(procs: usize) -> Vec<AppPoint> {
    let mut out = Vec::new();
    for app in APPS {
        let bodies = (app.build)(scale());
        for kind in app_scheds() {
            let cfg = Config::new(procs, kind);
            let start = Instant::now();
            let report = run_app(&bodies, Version::Fine, cfg);
            let host = start.elapsed();
            let dispatches: u64 = report.stats.procs.iter().map(|p| p.dispatches).sum();
            out.push(AppPoint {
                app: app.key,
                sched: kind.name(),
                procs,
                host_ms: host.as_secs_f64() * 1e3,
                dispatches,
                host_ns_per_dispatch: host.as_nanos() as f64 / dispatches.max(1) as f64,
                virt_makespan_ns: report.makespan().as_ns(),
            });
        }
    }
    out
}

/// One spawn-storm measurement: the engine's fork/join churn.
#[derive(Debug, Clone)]
pub struct SpawnPoint {
    /// Threads spawned and joined over the run.
    pub threads: u64,
    /// Host nanoseconds per spawn+join (total runtime / threads).
    pub ns_per_spawn: f64,
    /// Fraction of fiber stacks served from the pool (0 on the portable
    /// thread backend, which has no real stacks).
    pub pool_hit_rate: f64,
}

/// Threads in the spawn storm (the acceptance scale: 100k fork/joins).
pub fn spawn_storm_threads() -> u64 {
    if quick() {
        20_000
    } else {
        100_000
    }
}

/// One spawn-storm run: `threads` fork/joins in waves of 64 so the live
/// set stays small and every exit feeds the next wave's acquires.
fn spawn_storm_once(threads: u64) -> SpawnPoint {
    spawn_storm_cfg(threads, Config::new(4, SchedKind::Df))
}

/// The spawn storm with the host phase profiler *explicitly disarmed*
/// (`with_host_profile(false)`) — the configuration every unprofiled run
/// takes through the profiler's hot-path hooks. The overhead guard holds
/// this to the committed pooled baseline: when off, the profiler must cost
/// nothing but an `Option` discriminant test per hook.
pub fn spawn_storm_profile_off() -> SpawnPoint {
    spawn_storm_cfg(
        spawn_storm_threads(),
        Config::new(4, SchedKind::Df).with_host_profile(false),
    )
}

fn spawn_storm_cfg(threads: u64, cfg: Config) -> SpawnPoint {
    let start = Instant::now();
    let (_, report) = ptdf::run(cfg, move || {
        let mut done = 0u64;
        while done < threads {
            let wave = 64.min(threads - done);
            let handles: Vec<_> = (0..wave).map(|_| ptdf::spawn(|| ())).collect();
            for h in handles {
                h.join();
            }
            done += wave;
        }
    });
    let host = start.elapsed();
    SpawnPoint {
        threads,
        ns_per_spawn: host.as_nanos() as f64 / threads as f64,
        pool_hit_rate: report.stack_pool_hit_rate(),
    }
}

/// Runs the spawn storm, best of `STORM_REPS` repetitions.
pub fn run_spawn_storm() -> SpawnPoint {
    let threads = spawn_storm_threads();
    let mut best = spawn_storm_once(threads);
    for _ in 1..STORM_REPS {
        let p = spawn_storm_once(threads);
        if p.ns_per_spawn < best.ns_per_spawn {
            best = p;
        }
    }
    best
}

/// Re-measures the spawn storm once (the guard's retry hook).
pub fn remeasure_spawn() -> SpawnPoint {
    spawn_storm_once(spawn_storm_threads())
}

/// One sentinel-armed join-storm measurement: fork/join churn shaped so
/// every `join` *blocks*, driving the deadlock sentinel's waits-for
/// bookkeeping (join edge install, cycle walk, edge teardown) on each one.
#[derive(Debug, Clone)]
pub struct SentinelPoint {
    /// Joins performed (each a blocking join through the sentinel).
    pub joins: u64,
    /// Host nanoseconds per blocking join (total runtime / joins).
    pub ns_per_join: f64,
}

/// Joins in the sentinel storm.
pub fn sentinel_storm_joins() -> u64 {
    if quick() {
        10_000
    } else {
        50_000
    }
}

/// One sentinel-storm run: waves of children that each carry real modelled
/// work, so the parent's joins reach the sentinel while the children still
/// run — every join installs a waits-for edge and walks the graph.
fn sentinel_storm_once(joins: u64) -> SentinelPoint {
    let cfg = Config::new(4, SchedKind::Df);
    let start = Instant::now();
    ptdf::run(cfg, move || {
        let mut done = 0u64;
        while done < joins {
            let wave = 32.min(joins - done);
            let handles: Vec<_> = (0..wave)
                .map(|_| ptdf::spawn(|| ptdf::work(2_000)))
                .collect();
            for h in handles {
                h.join();
            }
            done += wave;
        }
    });
    let host = start.elapsed();
    SentinelPoint {
        joins,
        ns_per_join: host.as_nanos() as f64 / joins as f64,
    }
}

/// Runs the sentinel-armed join storm, best of `STORM_REPS` repetitions.
pub fn run_sentinel_storm() -> SentinelPoint {
    let joins = sentinel_storm_joins();
    let mut best = sentinel_storm_once(joins);
    for _ in 1..STORM_REPS {
        let p = sentinel_storm_once(joins);
        if p.ns_per_join < best.ns_per_join {
            best = p;
        }
    }
    best
}

/// Re-measures the sentinel storm once (the guard's retry hook).
pub fn remeasure_sentinel() -> SentinelPoint {
    sentinel_storm_once(sentinel_storm_joins())
}

/// One host engine phase profile: where the engine's own host time goes
/// (event-heap, dispatch, charge batching, trace allocation, sched lock)
/// for one workload, measured with [`ptdf::Config::with_host_profile`].
#[derive(Debug, Clone)]
pub struct HostPhasePoint {
    /// Workload name ("matmul", "fft", "dtree", "join_storm").
    pub workload: &'static str,
    /// Scheduler the workload ran under.
    pub sched: &'static str,
    /// The profiled phase counters (real host nanoseconds).
    pub phases: ptdf_smp::HostPhaseStats,
}

/// Joins in the host-phase join storm.
fn host_phase_joins() -> u64 {
    if quick() {
        5_000
    } else {
        20_000
    }
}

/// Profiles the engine phase breakdown over three paper apps plus a
/// fork/join storm, tracing enabled (so the trace-alloc phase is live).
pub fn run_host_phase(procs: usize) -> Vec<HostPhasePoint> {
    let kind = SchedKind::Df;
    let mut out = Vec::new();
    // Phase *counts* are deterministic per workload; the nanoseconds are
    // host measurements and noisy on a shared machine. Best-of-N by total
    // engine ns keeps the committed attribution stable, like every other
    // storm in this harness.
    for app in [MATMUL, FFT, DTREE] {
        let bodies = (app.build)(scale());
        let run = || {
            let cfg = Config::new(procs, kind)
                .with_trace()
                .with_host_profile(true);
            *run_app(&bodies, Version::Fine, cfg).host_phase()
        };
        let mut best = run();
        for _ in 1..STORM_REPS {
            let p = run();
            if p.total_ns() < best.total_ns() {
                best = p;
            }
        }
        out.push(HostPhasePoint {
            workload: app.key,
            sched: kind.name(),
            phases: best,
        });
    }
    let mut best = host_phase_join_storm(procs);
    for _ in 1..STORM_REPS {
        let p = host_phase_join_storm(procs);
        if p.total_ns() < best.total_ns() {
            best = p;
        }
    }
    out.push(HostPhasePoint {
        workload: "join_storm",
        sched: kind.name(),
        phases: best,
    });
    out
}

/// One profiled join storm (the host-phase fork/join workload); returns
/// the phase counters.
fn host_phase_join_storm(procs: usize) -> ptdf_smp::HostPhaseStats {
    let joins = host_phase_joins();
    let cfg = Config::new(procs, SchedKind::Df)
        .with_trace()
        .with_host_profile(true);
    let (_, report) = ptdf::run(cfg, move || {
        let mut done = 0u64;
        while done < joins {
            let wave = 32.min(joins - done);
            let handles: Vec<_> = (0..wave)
                .map(|_| ptdf::spawn(|| ptdf::work(2_000)))
                .collect();
            for h in handles {
                h.join();
            }
            done += wave;
        }
    });
    *report.host_phase()
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

/// Renders the whole result set as the `BENCH_sched.json` document.
pub fn to_json(
    micro: &[StormPoint],
    apps: &[AppPoint],
    spawn: &SpawnPoint,
    sentinel: &[SentinelPoint],
    host_phase: &[HostPhasePoint],
) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"bench\": \"wallclock\",\n");
    let _ = writeln!(s, "  \"quick\": {},", quick());
    s.push_str("  \"micro_dispatch\": [\n");
    for (i, p) in micro.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"storm\": \"{}\", \"sched\": \"{}\", \"live_threads\": {}, \"ops\": {}, \"ns_per_dispatch\": {}}}",
            p.storm, p.sched, p.live_threads, p.ops, json_f(p.ns_per_dispatch)
        );
        s.push_str(if i + 1 < micro.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"apps\": [\n");
    for (i, a) in apps.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"app\": \"{}\", \"sched\": \"{}\", \"procs\": {}, \"host_ms\": {}, \"dispatches\": {}, \"host_ns_per_dispatch\": {}, \"virt_makespan_ns\": {}}}",
            a.app,
            a.sched,
            a.procs,
            json_f(a.host_ms),
            a.dispatches,
            json_f(a.host_ns_per_dispatch),
            a.virt_makespan_ns
        );
        s.push_str(if i + 1 < apps.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        s,
        "  ],\n  \"spawn_storm\": [\n    {{\"pool\": \"pooled\", \"threads\": {}, \"ns_per_spawn\": {}, \"pool_hit_rate\": {:.4}}}",
        spawn.threads,
        json_f(spawn.ns_per_spawn),
        spawn.pool_hit_rate
    );
    s.push_str("  ],\n  \"sentinel_storm\": [\n");
    for (i, p) in sentinel.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"joins\": {}, \"ns_per_join\": {}}}",
            p.joins,
            json_f(p.ns_per_join)
        );
        s.push_str(if i + 1 < sentinel.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"host_phase\": [\n");
    for (i, p) in host_phase.iter().enumerate() {
        let total = p.phases.total_ns().max(1);
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"sched\": \"{}\", \"total_ns\": {}",
            p.workload,
            p.sched,
            p.phases.total_ns()
        );
        for (name, ps) in p.phases.phases() {
            let _ = write!(
                s,
                ", \"{name}\": {{\"count\": {}, \"ns\": {}, \"share\": {}}}",
                ps.count,
                ps.ns,
                json_f(ps.ns as f64 / total as f64 * 100.0)
            );
        }
        s.push('}');
        s.push_str(if i + 1 < host_phase.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// `BENCH_sched.json` at the workspace root (the committed snapshot
/// location), `REPRO_OUT` overriding the directory.
pub fn json_path() -> std::path::PathBuf {
    if let Ok(dir) = std::env::var("REPRO_OUT") {
        return std::path::PathBuf::from(dir).join("BENCH_sched.json");
    }
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.join("BENCH_sched.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_sched.json"))
}
