//! Wall-clock scheduler benchmark: micro dispatch storms (10k–1M live
//! threads), host runtimes of all seven paper applications under each
//! scheduler, spawn/sentinel storms and the host engine phase profile.
//! Writes `BENCH_sched.json` at the workspace root.
//! `REPRO_QUICK=1` for the CI smoke configuration.

use ptdf_bench::wallclock::{self, StormPoint};
use ptdf_bench::Table;

fn main() {
    let micro = wallclock::run_micro();
    let mut t = Table::new(
        "wallclock_micro",
        "Dispatch hot paths: host ns per dispatch attempt",
        &["storm", "live threads", "ops", "ns/dispatch"],
    );
    for StormPoint {
        storm,
        live_threads,
        ops,
        ns_per_dispatch,
        ..
    } in &micro
    {
        t.row(vec![
            storm.to_string(),
            live_threads.to_string(),
            ops.to_string(),
            format!("{ns_per_dispatch:.1}"),
        ]);
    }
    t.finish();

    let procs = if wallclock::quick() { 2 } else { 4 };
    let apps = wallclock::run_apps(procs);
    let mut t = Table::new(
        "wallclock_apps",
        "Application host runtime per scheduler (reduced scale)",
        &[
            "app",
            "sched",
            "procs",
            "host ms",
            "dispatches",
            "host ns/dispatch",
        ],
    );
    for a in &apps {
        t.row(vec![
            a.app.to_string(),
            a.sched.to_string(),
            a.procs.to_string(),
            format!("{:.1}", a.host_ms),
            a.dispatches.to_string(),
            format!("{:.1}", a.host_ns_per_dispatch),
        ]);
    }
    t.finish();

    let spawn = wallclock::run_spawn_storm();
    let mut t = Table::new(
        "wallclock_spawn",
        "Engine spawn storm: host ns per fork/join",
        &["threads", "ns/spawn", "pool hit rate"],
    );
    t.row(vec![
        spawn.threads.to_string(),
        format!("{:.1}", spawn.ns_per_spawn),
        format!("{:.4}", spawn.pool_hit_rate),
    ]);
    t.finish();

    let sentinel = wallclock::run_sentinel_storm();
    let mut t = Table::new(
        "wallclock_sentinel",
        "Sentinel-armed join storm: host ns per blocking join (waits-for bookkeeping on every one)",
        &["joins", "ns/join"],
    );
    t.row(vec![
        sentinel.joins.to_string(),
        format!("{:.1}", sentinel.ns_per_join),
    ]);
    t.finish();

    let host_phase = wallclock::run_host_phase(procs);
    let mut t = Table::new(
        "wallclock_host_phase",
        "Host engine phase profile: where the engine's own host ns go (traced runs)",
        &["workload", "sched", "phase", "calls", "ns", "share %"],
    );
    for p in &host_phase {
        let total = p.phases.total_ns().max(1);
        for (name, ps) in p.phases.phases() {
            t.row(vec![
                p.workload.to_string(),
                p.sched.to_string(),
                name.to_string(),
                ps.count.to_string(),
                ps.ns.to_string(),
                format!("{:.1}", ps.ns as f64 / total as f64 * 100.0),
            ]);
        }
    }
    t.finish();

    let path = wallclock::json_path();
    std::fs::write(
        &path,
        wallclock::to_json(
            &micro,
            &apps,
            &spawn,
            std::slice::from_ref(&sentinel),
            &host_phase,
        ),
    )
    .expect("write BENCH_sched.json");
    println!("[json written to {}]", path.display());
}
