//! Chaos-fault soak matrix (ISSUE 5 tentpole acceptance).
//!
//! Runs benchmark-shaped workloads under [`ptdf::Config::with_chaos`] —
//! seeded lock-holder preemption storms, delayed wake delivery, spurious
//! condvar wakeups — across every scheduling policy and a budget of seeds,
//! and demands a **definite verdict** from every cell:
//!
//! * well-synchronized workloads must *complete* with correct results
//!   (chaos may reorder and delay, never corrupt);
//! * timed-API workloads may observe [`ptdf::TimedOut`] but still complete;
//! * deadlock-prone workloads must either complete or report the exact
//!   waits-for cycle through [`ptdf::Report::deadlocks`];
//! * nothing may hang: a lost wakeup would surface as a [`ptdf::StallInfo`]
//!   stall verdict from [`ptdf::try_run`], which the matrix treats as an
//!   engine bug and fails loudly with the verdict text.
//!
//! Chaos cells replay bit-exactly: `(policy, perturb seed, chaos seed)`
//! pins the entire schedule, which `ptdf-trace check` prints as the replay
//! recipe (`--sched <p> --perturb-seed <s> --chaos-seed <c>`).

mod common;

use common::sync_storm;
use ptdf::{check_trace, run, spawn, try_run, Condvar, Config, Mutex, RwLock, SchedKind, VirtTime};

/// Seeds per (workload, policy) cell.
const SEED_BUDGET: u64 = 6;

#[derive(Debug, PartialEq)]
enum Verdict {
    Completed,
    Deadlock,
}

/// Runs one matrix cell to a definite verdict. A stall is never a valid
/// outcome for the workloads below — it panics with the watchdog's full
/// verdict so the failing cell is immediately diagnosable.
fn cell<T: 'static>(cfg: Config, f: impl FnOnce() -> T + 'static) -> (Verdict, T) {
    match try_run(cfg, f) {
        Ok((v, report)) => {
            if report.deadlocks().is_empty() {
                (Verdict::Completed, v)
            } else {
                (Verdict::Deadlock, v)
            }
        }
        Err(e) => panic!("cell stalled — lost wakeup under chaos:\n{e}"),
    }
}

/// Fork/join storm: a recursive binary tree of spawns, the bench suite's
/// core shape.
fn forkjoin_tree(depth: u32) -> u64 {
    if depth == 0 {
        ptdf::work(500);
        return 1;
    }
    let l = spawn(move || forkjoin_tree(depth - 1));
    let r = forkjoin_tree(depth - 1);
    l.join() + r
}

/// Readers/writers mix over one rwlock.
fn rw_mix() -> i64 {
    let l = RwLock::new(0i64);
    ptdf::scope(|s| {
        for _ in 0..3 {
            let l = l.clone();
            s.spawn(move || {
                for _ in 0..8 {
                    let mut g = l.write();
                    let v = *g;
                    ptdf::work(1_000);
                    *g = v + 1;
                }
            });
        }
        for _ in 0..5 {
            let l = l.clone();
            s.spawn(move || {
                let mut last = -1i64;
                for _ in 0..12 {
                    let g = l.read();
                    assert!(*g >= last, "value went backwards under chaos");
                    last = *g;
                    ptdf::work(300);
                }
            });
        }
    });
    let v = *l.read();
    v
}

/// Timed-API workload: contended locks taken only through `lock_timeout`
/// with seeded backoff; returns (successes, timeouts observed).
fn timed_lock_storm(nthreads: usize) -> (u64, u64) {
    let m = Mutex::new(0u64);
    let stats = Mutex::new((0u64, 0u64));
    ptdf::scope(|s| {
        for i in 0..nthreads {
            let m = m.clone();
            let stats = stats.clone();
            s.spawn(move || {
                let mut bo = ptdf::backoff::Backoff::new(i as u64);
                for _ in 0..6 {
                    match bo.retry(32, || {
                        m.lock_timeout(VirtTime::from_us(100)).map(|mut g| {
                            ptdf::work(5_000);
                            *g += 1;
                        })
                    }) {
                        Ok(()) => stats.lock().0 += 1,
                        Err(_) => stats.lock().1 += 1,
                    }
                }
            });
        }
    });
    let out = *stats.lock();
    out
}

/// Deadlock-prone workload: classic AB-BA inversion, unwinds absorbed via
/// `try_join` so the run itself always completes.
fn abba() -> u32 {
    let a = Mutex::new(());
    let b = Mutex::new(());
    let (a2, b2) = (a.clone(), b.clone());
    let t1 = spawn(move || {
        let _ga = a2.lock();
        ptdf::work(300_000);
        let _gb = b2.lock();
    });
    let t2 = spawn(move || {
        let _gb = b.lock();
        ptdf::work(300_000);
        let _ga = a.lock();
    });
    t1.try_join().is_err() as u32 + t2.try_join().is_err() as u32
}

#[test]
fn correct_workloads_complete_under_chaos() {
    let (nthreads, rounds) = (4, 4);
    for kind in SchedKind::SWEEP {
        for seed in 0..SEED_BUDGET {
            let cfg = || {
                Config::new(4, kind)
                    .with_perturbation(seed)
                    .with_chaos(seed.wrapping_mul(0x9E37_79B9) + 1)
            };
            let (v, total) = cell(cfg(), move || sync_storm(nthreads, rounds).0);
            assert_eq!(v, Verdict::Completed, "{kind:?} seed {seed}: storm");
            assert_eq!(total, (nthreads * rounds) as u64, "{kind:?} seed {seed}");

            let (v, leaves) = cell(cfg(), || forkjoin_tree(5));
            assert_eq!(v, Verdict::Completed, "{kind:?} seed {seed}: forkjoin");
            assert_eq!(leaves, 32, "{kind:?} seed {seed}");

            let (v, writes) = cell(cfg(), rw_mix);
            assert_eq!(v, Verdict::Completed, "{kind:?} seed {seed}: rw");
            assert_eq!(writes, 24, "{kind:?} seed {seed}");
        }
    }
}

#[test]
fn timed_workloads_get_definite_verdicts_under_chaos() {
    for kind in SchedKind::SWEEP {
        for seed in 0..SEED_BUDGET {
            let cfg = Config::new(2, kind)
                .with_perturbation(seed)
                .with_chaos(seed ^ 0xC0FFEE);
            let (v, (ok, timeouts)) = cell(cfg, || timed_lock_storm(4));
            assert_eq!(v, Verdict::Completed, "{kind:?} seed {seed}");
            // Every round resolves: a success or an exhausted retry budget.
            assert_eq!(ok + timeouts, 4 * 6, "{kind:?} seed {seed}");
            assert!(ok > 0, "{kind:?} seed {seed}: nobody ever won the lock");
        }
    }
}

#[test]
fn deadlock_prone_workload_never_hangs_under_chaos() {
    for kind in SchedKind::SWEEP {
        for seed in 0..SEED_BUDGET {
            let cfg = Config::new(2, kind)
                .with_perturbation(seed)
                .with_chaos(seed ^ 0xDEAD)
                .with_trace();
            match try_run(cfg, abba) {
                Ok((unwound, report)) => {
                    if report.deadlocks().is_empty() {
                        // Chaos delays let one thread finish both locks
                        // before the other started: a legal escape.
                        assert_eq!(unwound, 0, "{kind:?} seed {seed}");
                    } else {
                        assert_eq!(unwound, 1, "{kind:?} seed {seed}");
                        let mut members = report.deadlocks()[0].cycle.clone();
                        members.sort_unstable();
                        assert_eq!(members, vec![1, 2], "{kind:?} seed {seed}");
                        // The flight recorder names the same cycle for
                        // `ptdf-trace check`.
                        let check = check_trace(&report.trace.expect("traced"));
                        assert!(
                            check
                                .violations
                                .iter()
                                .any(|v| matches!(v, ptdf::Violation::Deadlock { .. })),
                            "{kind:?} seed {seed}: {:?}",
                            check.violations
                        );
                    }
                }
                Err(e) => panic!("{kind:?} seed {seed} stalled:\n{e}"),
            }
        }
    }
}

#[test]
fn chaos_cells_replay_bit_exactly() {
    // The replay promise extends to chaos: `(policy, perturb, chaos)` pins
    // the schedule, fault injection included.
    for kind in [SchedKind::Df, SchedKind::Ws] {
        let capture = || {
            let cfg = Config::new(4, kind)
                .with_trace()
                .with_perturbation(5)
                .with_chaos(17);
            let (_, report) = run(cfg, || sync_storm(4, 3));
            report.trace.expect("traced")
        };
        assert_eq!(capture(), capture(), "{kind:?}: chaos replay diverged");
    }
}

#[test]
fn chaos_actually_injects_faults() {
    // A chaos cell must differ from its chaos-free twin — otherwise the
    // matrix above soaks nothing.
    let go = |chaos: Option<u64>| {
        let mut cfg = Config::new(4, SchedKind::Ws)
            .with_trace()
            .with_perturbation(3);
        if let Some(c) = chaos {
            cfg = cfg.with_chaos(c);
        }
        let (_, report) = run(cfg, || sync_storm(4, 3));
        report.trace.expect("traced")
    };
    let base = go(None);
    assert!(
        (1..=4u64).any(|c| go(Some(c)) != base),
        "four chaos seeds produced schedules identical to the chaos-free run"
    );
}

#[test]
fn naked_notify_window_stays_closed_under_chaos() {
    // The satellite regression riding on the soak matrix: the classic
    // wait/notify gate under 16 seeds of combined perturbation + chaos.
    // Spurious wakeups re-test the predicate; delayed wakes arrive late
    // but never vanish. A lost wakeup would stall and fail the cell.
    for seed in 0..16u64 {
        for kind in [SchedKind::Fifo, SchedKind::Ws] {
            let cfg = Config::new(2, kind)
                .with_perturbation(seed)
                .with_chaos(seed + 100);
            let (v, done) = cell(cfg, || {
                let gate = Mutex::new(false);
                let cv = Condvar::new();
                let (gate2, cv2) = (gate.clone(), cv.clone());
                let waiter = spawn(move || {
                    let mut g = gate2.lock();
                    while !*g {
                        g = cv2.wait(g);
                    }
                    true
                });
                ptdf::work(50_000);
                *gate.lock() = true;
                cv.notify_one();
                waiter.join()
            });
            assert_eq!(v, Verdict::Completed, "seed {seed} {kind:?}");
            assert!(done, "seed {seed} {kind:?}");
        }
    }
}
