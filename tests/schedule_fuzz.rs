//! Schedule-perturbation fuzz matrix (ISSUE 3 tentpole acceptance).
//!
//! Runs a sync-heavy workload (mutex counter + semaphore throttle +
//! condvar gate + barrier rounds) under seeded schedule perturbation
//! ([`ptdf::Config::with_perturbation`]) across five policies, and feeds
//! every recorded trace to the happens-before checker
//! ([`ptdf::check_trace`]). Three guarantees are pinned down:
//!
//! 1. **Invariance** — perturbation may reorder the schedule but never the
//!    results: every `(policy, seed)` cell computes the same totals.
//! 2. **Cleanliness** — the checker reports zero violations on the real
//!    primitives under every explored schedule.
//! 3. **Replayability** — a `(policy, seed)` pair replays bit-exactly:
//!    running the same cell twice yields *equal* traces, so a failure
//!    printed as `--sched <policy> --perturb-seed <seed>` is reproducible.
//!
//! Two memory-subsystem extensions ride on the same matrix: ledger-armed
//! cells (tracked alloc/free per round must balance under every schedule)
//! and failure-injection cells (denied spawns/allocations must degrade
//! gracefully and be counted exactly).

mod common;

use common::sync_storm;
use ptdf::{check_trace, Barrier, Config, Mutex, SchedKind};

/// Perturbation seeds per policy.
const SEED_BUDGET: u64 = 64;

#[test]
fn perturbation_matrix_is_clean_and_invariant() {
    let seeds = SEED_BUDGET;
    let (nthreads, rounds) = (4, 6);
    for kind in SchedKind::SWEEP {
        for seed in 0..seeds {
            let cfg = Config::new(4, kind).with_trace().with_perturbation(seed);
            let ((total, arrivals), report) = ptdf::run(cfg, move || sync_storm(nthreads, rounds));
            assert_eq!(
                total,
                (nthreads * rounds) as u64,
                "{kind:?} seed {seed}: counter corrupted"
            );
            assert_eq!(arrivals, nthreads * rounds, "{kind:?} seed {seed}: gate");
            let trace = report.trace.expect("tracing was enabled");
            let check = check_trace(&trace);
            assert!(
                check.is_clean(),
                "{kind:?} seed {seed}: {:#?}\nreplay with: {}",
                check.violations,
                check.replay.as_deref().unwrap_or("(no recipe)")
            );
        }
    }
}

#[test]
fn ledger_armed_matrix_stays_clean_and_balanced() {
    // The memory-subsystem cells of the matrix: the same sync storm with
    // the allocation ledger armed, each thread routing a tracked buffer
    // through rt_alloc/rt_free every round. Perturbation must never
    // unbalance the ledger or dirty the trace.
    let seeds = SEED_BUDGET / 4; // heavier cells, smaller budget
    for kind in [SchedKind::Df, SchedKind::DfDeques, SchedKind::Fifo] {
        for seed in 0..seeds.max(2) {
            let cfg = Config::new(4, kind)
                .with_ledger()
                .with_trace()
                .with_perturbation(seed);
            let ((total, _), report) = ptdf::run(cfg, || {
                let (nthreads, rounds) = (4, 4);
                let counter = Mutex::new(0u64);
                let barrier = Barrier::new(nthreads);
                ptdf::scope(|s| {
                    for _ in 0..nthreads {
                        let counter = counter.clone();
                        let barrier = barrier.clone();
                        s.spawn(move || {
                            for _ in 0..rounds {
                                ptdf::rt_alloc(4096);
                                *counter.lock() += 1;
                                ptdf::work(200);
                                ptdf::rt_free(4096);
                                barrier.wait();
                            }
                        });
                    }
                });
                let total = *counter.lock();
                (total, 0usize)
            });
            assert_eq!(total, 16, "{kind:?} seed {seed}: counter corrupted");
            let leaks = report.leaks.as_ref().expect("ledger armed");
            assert!(
                leaks.is_clean(),
                "{kind:?} seed {seed}: ledger unbalanced: {leaks:?}"
            );
            assert_eq!(leaks.total_allocated, 16 * 4096);
            let check = check_trace(&report.trace.expect("tracing was enabled"));
            assert!(
                check.is_clean(),
                "{kind:?} seed {seed}: {:#?}",
                check.violations
            );
        }
    }
}

#[test]
fn failure_injection_matrix_degrades_gracefully() {
    // Failure-injection cells: every spawn and allocation goes through the
    // fallible entry points while the injector denies ~1 in 4 requests.
    // Under every policy and seed the run must complete (no aborts), the
    // work actually performed must balance, and denied requests must be
    // exactly the injector's count.
    let seeds = SEED_BUDGET / 4;
    for kind in SchedKind::SWEEP {
        for seed in 0..seeds.max(2) {
            let cfg = Config::new(4, kind)
                .with_alloc_failures(4)
                .with_perturbation(seed);
            let ((spawned, denied_spawns, denied_allocs), report) = ptdf::run(cfg, || {
                let mut spawned = 0u64;
                let mut denied_spawns = 0u64;
                let mut denied_allocs = 0u64;
                let mut handles = Vec::new();
                for i in 0..32u64 {
                    match ptdf::try_spawn(move || match ptdf::try_rt_alloc(1024) {
                        Ok(()) => {
                            ptdf::work(100 + i);
                            ptdf::rt_free(1024);
                            0u64
                        }
                        Err(_) => 1u64,
                    }) {
                        Ok(h) => {
                            spawned += 1;
                            handles.push(h);
                        }
                        Err(_) => denied_spawns += 1,
                    }
                }
                for h in handles {
                    denied_allocs += h.join();
                }
                (spawned, denied_spawns, denied_allocs)
            });
            assert_eq!(spawned + denied_spawns, 32, "{kind:?} seed {seed}");
            let leaks = report.leaks.as_ref().expect("injection implies ledger");
            assert_eq!(
                leaks.injected_failures,
                denied_spawns + denied_allocs,
                "{kind:?} seed {seed}: injector count drifted: {leaks:?}"
            );
            assert!(
                leaks.is_clean(),
                "{kind:?} seed {seed}: denied requests leaked: {leaks:?}"
            );
        }
    }
}

#[test]
fn captured_seed_pairs_replay_bit_exactly() {
    // The promise behind the printed replay recipe: the same
    // `(policy, seed)` pair explores the identical schedule, so the two
    // traces are equal structure-for-structure, timestamp-for-timestamp.
    for kind in [SchedKind::Df, SchedKind::DfDeques, SchedKind::Ws] {
        for seed in [3u64, 0xDEAD_BEEF] {
            let capture = || {
                let cfg = Config::new(4, kind).with_trace().with_perturbation(seed);
                let (_, report) = ptdf::run(cfg, || sync_storm(4, 4));
                report.trace.expect("tracing was enabled")
            };
            let first = capture();
            let second = capture();
            assert_eq!(first, second, "{kind:?} seed {seed}: replay diverged");
        }
    }
}

#[test]
fn perturbation_actually_perturbs() {
    // Different seeds must be able to produce different schedules —
    // otherwise the matrix above explores nothing. At least one adjacent
    // seed pair must differ somewhere in the trace.
    let traces: Vec<_> = (0..4u64)
        .map(|seed| {
            let cfg = Config::new(4, SchedKind::Ws)
                .with_trace()
                .with_perturbation(seed);
            let (_, report) = ptdf::run(cfg, || sync_storm(4, 4));
            report.trace.expect("tracing was enabled")
        })
        .collect();
    assert!(
        traces.windows(2).any(|w| w[0] != w[1]),
        "four different seeds produced four identical schedules"
    );
    // An unperturbed run differs from a perturbed one too (jitter moves
    // virtual timestamps even when the interleaving survives).
    let (_, base) = ptdf::run(Config::new(4, SchedKind::Ws).with_trace(), || {
        sync_storm(4, 4)
    });
    assert!(
        traces.iter().any(|t| *t != base.trace.clone().unwrap()),
        "perturbation had no observable effect at all"
    );
}

#[test]
fn replay_recipe_names_the_cell() {
    let cfg = Config::new(2, SchedKind::DfDeques)
        .with_trace()
        .with_perturbation(77);
    let (_, report) = ptdf::run(cfg, || sync_storm(2, 2));
    let check = check_trace(&report.trace.unwrap());
    assert_eq!(
        check.replay.as_deref(),
        Some("--sched df-deques --perturb-seed 77")
    );
}
