//! # ptdf — a space-efficient, Pthreads-style lightweight threads runtime
//!
//! Reproduction of the system of **"Pthreads for Dynamic and Irregular
//! Parallelism"** (Narlikar & Blelloch, SC 1998): a user-level threads
//! library in which programs *dynamically create a large number of
//! lightweight threads* — one per parallel task — and a pluggable scheduler
//! maps them onto processors. The paper's contribution is a **space-
//! efficient depth-first scheduler** (bounding memory at `S1 + O(p·D)`)
//! retrofitted into the Solaris Pthreads library; this crate implements that
//! scheduler alongside the original FIFO policy, a LIFO policy, and
//! Cilk-style work stealing, over a deterministic virtual-time SMP
//! ([`ptdf_smp`]) driven by real stackful fibers ([`ptdf_fiber`]).
//!
//! ## Quick start
//!
//! ```
//! use ptdf::{run, spawn, Config, SchedKind};
//!
//! let (sum, report) = run(Config::new(4, SchedKind::Df), || {
//!     let handles: Vec<_> = (0..16u64)
//!         .map(|i| spawn(move || {
//!             ptdf::work(10_000); // 10k cycles of modelled compute
//!             i * i
//!         }))
//!         .collect();
//!     handles.into_iter().map(|h| h.join()).sum::<u64>()
//! });
//! assert_eq!(sum, (0..16u64).map(|i| i * i).sum());
//! assert_eq!(report.processors, 4);
//! ```
//!
//! ## The API in paper terms
//!
//! | Paper / Pthreads | This crate |
//! |---|---|
//! | `pthread_create` | [`spawn`] / [`spawn_attr`] / [`Scope::spawn`] |
//! | `pthread_join` | [`JoinHandle::join`] |
//! | `pthread_attr_t` (stack size, priority) | [`Attr`] |
//! | `SCHED_OTHER` (FIFO) / modified scheduler | [`SchedKind`] |
//! | `pthread_mutex_t` | [`Mutex`] |
//! | `pthread_cond_t` | [`Condvar`] |
//! | `pthread_rwlock_t` | [`RwLock`] |
//! | `pthread_key_create` / TSD | [`TlsKey`] |
//! | `sem_t` | [`Semaphore`] |
//! | instrumented `malloc`/`free` | [`rt_alloc`] / [`rt_free`] / [`TrackedBuf`] |
//!
//! Benchmarks additionally report modelled compute with [`work`] and data
//! locality with [`touch`]; see DESIGN.md for the virtual-time methodology.

#![warn(missing_docs)]

mod api;
pub mod backoff;
#[cfg(feature = "bench-internals")]
pub mod bench_api;
pub mod cancel;
mod config;
pub mod explore;
pub mod litmus;
mod mem;
pub mod oracle;
mod recorder;
mod report;
mod runtime;
mod rwlock;
mod sched;
mod sentinel;
mod serial;
mod sync;
mod thread;
mod timecore;
mod tls;
pub mod trace;
mod waitq;

pub use api::{
    current_thread, footprint, now, processors, scope, space_margin, spawn, spawn_attr, touch,
    try_spawn, try_spawn_attr, work, yield_now, Scope, ScopedHandle, SpawnError,
};
pub use cancel::{cancel, cancel_point, cleanup, set_cancel_enabled, CancelError, CleanupGuard};
pub use check::{check_trace, CheckReport, Violation};
pub use config::{Attr, Config, LedgerMode, SchedKind, DEFAULT_QUOTA, STACK_1MB, STACK_8KB};
pub use critpath::{
    analyze_with_makespan, causal_edge, object_waits, Blame, BlameBucket, CausalEdge, CritPath,
    ObjectBlame, ObjectWait, Segment, ThreadBlame,
};
pub use explore::{
    explore, replay_schedule, ExploreOpts, ExploreReport, ReplayOutcome, ViolationCase,
};
pub use litmus::{litmus, litmus_names, Litmus};
pub use mem::{rt_alloc, rt_free, try_rt_alloc, AllocError, LeakReport, ThreadLedger, TrackedBuf};
pub use oracle::{Decision, DecisionKind, DecisionRecord, Schedule, ScheduleOracle, SharedOracle};
pub use report::Report;
pub use runtime::{run, try_run};
pub use rwlock::{ReadGuard, RwLock, WriteGuard};
pub use sentinel::{DeadlockError, DeadlockInfo, RunError, StallInfo, StalledThread, TimedOut};
pub use serial::{run_serial, SerialReport};
pub use sync::{Barrier, Condvar, Mutex, MutexGuard, Semaphore};
pub use thread::{JoinError, JoinHandle, ThreadId};
pub use tls::TlsKey;
pub use trace::{
    check, critpath, json, BlockReason, Counters, Event, EventKind, LatencyStats, LifecycleSummary,
    Span, SpanKind, ThreadLifecycle, Trace, TraceMeta,
};

// Re-export the quantities callers need to interpret reports.
pub use ptdf_smp::{CostModel, VirtTime};

#[cfg(test)]
mod tests {
    use super::*;
    use crate as ptdf;

    fn all_schedulers() -> Vec<SchedKind> {
        vec![
            SchedKind::Fifo,
            SchedKind::Lifo,
            SchedKind::Df,
            SchedKind::DfLocal,
            SchedKind::DfDeques,
            SchedKind::Ws,
        ]
    }

    #[test]
    fn spawn_join_returns_value_under_all_schedulers() {
        for kind in all_schedulers() {
            let (v, report) = run(Config::new(2, kind), || {
                let h = spawn(|| 41 + 1);
                h.join()
            });
            assert_eq!(v, 42, "{kind:?}");
            assert!(report.total_threads >= 2);
        }
    }

    #[test]
    fn host_profile_collects_phase_counters_when_enabled() {
        let workload = || {
            // A semaphore nobody posts: the timed acquire arms a deadline,
            // exercising the machine's event-heap phases.
            let sem = std::rc::Rc::new(Semaphore::new(0));
            let s = sem.clone();
            let waiter = spawn(move || {
                s.acquire_timeout(VirtTime::from_us(50)).unwrap_err();
            });
            let hs: Vec<_> = (0..8).map(|_| spawn(|| ptdf::work(5_000))).collect();
            for h in hs {
                h.join();
            }
            waiter.join();
        };
        let (_, on) = run(
            Config::new(2, SchedKind::Df)
                .with_trace()
                .with_host_profile(true),
            workload,
        );
        let hp = on.host_phase();
        assert!(hp.enabled);
        // The engine dispatched and popped at least once per thread, and
        // every trace record passed through the trace-alloc phase.
        assert!(hp.dispatch.count >= 9, "dispatch {:?}", hp.dispatch);
        assert!(hp.sched_pop.count > 0, "sched_pop {:?}", hp.sched_pop);
        assert!(hp.trace_alloc.count > 0);
        assert!(hp.heap_push.count > 0 && hp.heap_pop.count > 0);
        assert!(hp.total_ns() > 0);
        // The combined profile rides on the trace for standalone tools.
        let tr = on.trace.as_ref().expect("traced run");
        assert_eq!(tr.host_phase, Some(*hp));

        let (_, off) = run(Config::new(2, SchedKind::Df).with_trace(), workload);
        assert!(!off.host_phase().enabled);
        assert_eq!(off.host_phase().total_ns(), 0);
        assert_eq!(off.trace.as_ref().unwrap().host_phase, None);
    }

    #[test]
    fn fork_join_tree_computes_correctly() {
        fn tree_sum(depth: u32) -> u64 {
            if depth == 0 {
                ptdf::work(1000);
                return 1;
            }
            let l = spawn(move || tree_sum(depth - 1));
            let r = spawn(move || tree_sum(depth - 1));
            l.join() + r.join()
        }
        for kind in all_schedulers() {
            for p in [1, 3, 8] {
                let (v, _) = run(Config::new(p, kind), || tree_sum(6));
                assert_eq!(v, 64, "{kind:?} p={p}");
            }
        }
    }

    #[test]
    fn df_keeps_live_threads_near_depth_fifo_explodes() {
        // A binary fork tree of depth 10 (1023 internal + 1024 leaves).
        fn tree(depth: u32) {
            if depth == 0 {
                ptdf::work(100);
                return;
            }
            let l = spawn(move || tree(depth - 1));
            let r = spawn(move || tree(depth - 1));
            l.join();
            r.join();
        }
        let (_, fifo) = run(Config::new(1, SchedKind::Fifo), || tree(10));
        let (_, df) = run(Config::new(1, SchedKind::Df), || tree(10));
        // FIFO executes breadth-first: nearly all threads live at once.
        assert!(
            fifo.max_live_threads() > 1000,
            "fifo live hwm = {}",
            fifo.max_live_threads()
        );
        // DF executes depth-first: live threads bounded by ~2 per level.
        assert!(
            df.max_live_threads() <= 25,
            "df live hwm = {}",
            df.max_live_threads()
        );
    }

    #[test]
    fn lifo_live_threads_between_fifo_and_df() {
        fn tree(depth: u32) {
            if depth == 0 {
                return;
            }
            let l = spawn(move || tree(depth - 1));
            let r = spawn(move || tree(depth - 1));
            l.join();
            r.join();
        }
        let (_, fifo) = run(Config::new(1, SchedKind::Fifo), || tree(8));
        let (_, lifo) = run(Config::new(1, SchedKind::Lifo), || tree(8));
        let (_, df) = run(Config::new(1, SchedKind::Df), || tree(8));
        assert!(lifo.max_live_threads() < fifo.max_live_threads());
        assert!(df.max_live_threads() <= lifo.max_live_threads());
    }

    #[test]
    fn speedup_scales_with_processors() {
        let workload = || {
            ptdf::scope(|s| {
                for _ in 0..64 {
                    s.spawn(|| ptdf::work(1_000_000));
                }
            })
        };
        let (_, serial) = run_serial(CostModel::ultrasparc_167(), || {
            for _ in 0..64 {
                ptdf::work(1_000_000);
            }
        });
        let (_, r1) = run(Config::new(1, SchedKind::Df), workload);
        let (_, r8) = run(Config::new(8, SchedKind::Df), workload);
        let s1 = r1.speedup_vs(serial.time);
        let s8 = r8.speedup_vs(serial.time);
        assert!(s1 <= 1.05, "s1 = {s1}");
        assert!(s8 > 5.0, "s8 = {s8}");
        assert!(s8 > 3.0 * s1, "s1 = {s1}, s8 = {s8}");
    }

    #[test]
    fn mutex_provides_mutual_exclusion_and_blocking() {
        for kind in all_schedulers() {
            let (v, _) = run(Config::new(4, kind), || {
                let m = Mutex::new(0u64);
                ptdf::scope(|s| {
                    for _ in 0..20 {
                        let m = m.clone();
                        s.spawn(move || {
                            let mut g = m.lock();
                            let old = *g;
                            ptdf::work(5_000); // hold the lock across work
                            *g = old + 1;
                        });
                    }
                });
                let v = *m.lock();
                v
            });
            assert_eq!(v, 20, "{kind:?}");
        }
    }

    #[test]
    fn condvar_producer_consumer() {
        let (got, _) = run(Config::new(2, SchedKind::Df), || {
            let q = Mutex::new(Vec::<u32>::new());
            let cv = Condvar::new();
            let (q2, cv2) = (q.clone(), cv.clone());
            let producer = spawn(move || {
                for i in 0..10 {
                    ptdf::work(2_000);
                    q2.lock().push(i);
                    cv2.notify_one();
                }
            });
            let mut got = Vec::new();
            while got.len() < 10 {
                let mut g = q.lock();
                while g.is_empty() {
                    g = cv.wait(g);
                }
                got.append(&mut *g);
            }
            producer.join();
            got
        });
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn semaphore_ping_pong() {
        let (count, _) = run(Config::new(2, SchedKind::Df), || {
            let ping = Semaphore::new(1);
            let pong = Semaphore::new(0);
            let (ping2, pong2) = (ping.clone(), pong.clone());
            let t = spawn(move || {
                for _ in 0..50 {
                    ping2.acquire();
                    pong2.release();
                }
            });
            let mut count = 0;
            for _ in 0..50 {
                pong.acquire();
                count += 1;
                ping.release();
            }
            t.join();
            count
        });
        assert_eq!(count, 50);
    }

    #[test]
    fn barrier_phases() {
        let (v, _) = run(Config::new(4, SchedKind::Fifo), || {
            let n = 4;
            let barrier = Barrier::new(n);
            let phase_sum = Mutex::new(vec![0u32; 2]);
            ptdf::scope(|s| {
                for i in 0..n {
                    let barrier = barrier.clone();
                    let phase_sum = phase_sum.clone();
                    s.spawn(move || {
                        phase_sum.lock()[0] += i as u32;
                        barrier.wait();
                        // Phase 0 complete for everyone.
                        assert_eq!(phase_sum.lock()[0], 6);
                        phase_sum.lock()[1] += 1;
                        barrier.wait();
                    });
                }
            });
            let v = phase_sum.lock().clone();
            v
        });
        assert_eq!(v, vec![6, 4]);
    }

    #[test]
    fn scope_borrows_stack_data() {
        let (sum, _) = run(Config::new(4, SchedKind::Df), || {
            let data: Vec<u64> = (0..1000).collect();
            let chunks: Vec<&[u64]> = data.chunks(100).collect();
            let mut partial = vec![0u64; chunks.len()];
            ptdf::scope(|s| {
                for (out, chunk) in partial.iter_mut().zip(&chunks) {
                    let chunk = *chunk;
                    s.spawn(move || {
                        *out = chunk.iter().sum();
                    });
                }
            });
            partial.iter().sum::<u64>()
        });
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn thread_panic_delivered_at_join() {
        let (caught, _) = run(Config::new(2, SchedKind::Df), || {
            let h = spawn(|| -> u32 { panic!("worker exploded") });
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
            r.is_err()
        });
        assert!(caught);
    }

    #[test]
    fn try_join_surfaces_child_panic_without_unwinding() {
        let (ok, _) = run(Config::new(2, SchedKind::Df), || {
            let h = spawn(|| -> u32 { panic!("worker exploded") });
            match h.try_join() {
                Err(JoinError::Panicked(p)) => p.downcast_ref::<&str>() == Some(&"worker exploded"),
                _ => false,
            }
        });
        assert!(ok);
    }

    #[test]
    fn injected_spawn_failures_degrade_gracefully() {
        let cfg = Config::new(2, SchedKind::Df).with_alloc_failures(4);
        let ((ok_spawns, failures), report) = run(cfg, || {
            let (mut ok, mut failed) = (0u64, 0u64);
            let mut handles = Vec::new();
            for i in 0..64u64 {
                match try_spawn(move || i) {
                    Ok(h) => {
                        ok += 1;
                        handles.push(h);
                    }
                    Err(e) => {
                        failed += 1;
                        assert!(e.stack_bytes > 0);
                    }
                }
            }
            for h in handles {
                h.join();
            }
            (ok, failed)
        });
        assert_eq!(ok_spawns + failures, 64);
        assert!(failures > 0, "rate 4 over 64 tries should inject");
        let leaks = report.leaks.expect("failure injection implies the ledger");
        assert_eq!(leaks.injected_failures, failures);
    }

    #[test]
    fn injected_alloc_failures_are_err_not_abort() {
        let cfg = Config::new(1, SchedKind::Df).with_alloc_failures(2);
        let (failed, report) = run(cfg, || {
            let mut failed = 0u64;
            for _ in 0..64 {
                match try_rt_alloc(1024) {
                    Ok(()) => rt_free(1024),
                    Err(e) => {
                        failed += 1;
                        assert_eq!(e.bytes, 1024);
                    }
                }
            }
            failed
        });
        assert!(failed > 0, "rate 2 over 64 tries should inject");
        let leaks = report.leaks.expect("ledger armed");
        assert_eq!(leaks.injected_failures, failed);
        // Denied requests were never charged: the run still balances.
        assert!(leaks.is_clean(), "{leaks:?}");
    }

    #[test]
    fn ledger_attributes_leaks_to_threads() {
        let cfg = Config::new(2, SchedKind::Df).with_ledger();
        let (_, report) = run(cfg, || {
            spawn(|| rt_alloc(4096)).join(); // never freed
            rt_alloc(512);
            rt_free(512);
        });
        let leaks = report.leaks.expect("ledger armed");
        assert_eq!(leaks.leaked_bytes, 4096);
        assert!(!leaks.is_clean());
        // Exactly one thread carries a net balance, with the right amount.
        assert_eq!(leaks.per_thread.len(), 1);
        assert_eq!(leaks.per_thread[0].allocated, 4096);
        assert_eq!(leaks.per_thread[0].freed, 0);
    }

    #[test]
    fn double_free_is_surfaced_not_saturated() {
        let cfg = Config::new(1, SchedKind::Df).with_ledger().with_trace();
        // Stacks keep their committed bytes live in the heap model, so the
        // over-free must exceed anything plausibly live to underflow.
        let over = 1u64 << 40;
        let (_, report) = run(cfg, move || {
            rt_alloc(1000);
            rt_free(1000);
            rt_free(over); // free of never-allocated memory
        });
        assert_eq!(report.stats.mem.free_underflows, 1);
        let leaks = report.leaks.expect("ledger armed");
        assert_eq!(leaks.free_underflows, 1);
        assert!(!leaks.is_clean());
        let check = check_trace(report.trace.as_ref().expect("traced"));
        assert!(
            check
                .violations
                .iter()
                .any(|v| matches!(v, Violation::FreeUnderflow { .. })),
            "checker must flag the double free: {:?}",
            check.violations
        );
    }

    #[test]
    fn stack_pool_recycles_across_spawn_waves() {
        let (_, report) = run(Config::new(2, SchedKind::Df), || {
            for _ in 0..32 {
                let hs: Vec<_> = (0..8).map(|i| spawn(move || i)).collect();
                for h in hs {
                    h.join();
                }
            }
        });
        if ptdf_fiber::HAS_REAL_STACKS {
            let rate = report.stack_pool_hit_rate();
            assert!(rate > 0.9, "hit rate {rate}");
            assert!(report.stats.mem.host_stack_cached_hwm > 0);
        }
    }

    #[test]
    fn space_bound_enforcer_counts_excursions() {
        // A breadth-first FIFO storm with 1 MB stacks blows far past a tiny
        // bound; the same run unarmed must report bit-identical footprint.
        let storm = || {
            let hs: Vec<_> = (0..64).map(|_| spawn(|| ())).collect();
            for h in hs {
                h.join();
            }
        };
        let base = Config::solaris_native(1);
        let (_, unarmed) = run(base.clone(), storm);
        let (_, armed) = run(base.with_space_bound(64 * 1024).with_trace(), storm);
        assert_eq!(
            armed.stats.mem.footprint_hwm, unarmed.stats.mem.footprint_hwm,
            "arming the bound must not change the accounting"
        );
        assert_eq!(unarmed.bound_violations(), 0);
        assert!(armed.bound_violations() > 0);
        let check = check_trace(armed.trace.as_ref().expect("traced"));
        let crossings = check
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::SpaceBound { .. }))
            .count();
        assert_eq!(
            crossings, 1,
            "exactly one crossing event marks the excursion"
        );
    }

    #[test]
    fn df_quota_preempts_and_inserts_dummies() {
        let cfg = Config::new(2, SchedKind::Df).with_quota(1024);
        let (_, report) = run(cfg, || {
            // 10 KB > K=1 KB: must insert ⌈10240/1024⌉ = 10 dummies.
            rt_alloc(10 * 1024);
            rt_free(10 * 1024);
        });
        assert_eq!(report.stats.mem.dummy_threads, 10);
    }

    #[test]
    fn memory_accounting_tracks_footprint() {
        let (_, report) = run(Config::new(1, SchedKind::Df), || {
            let buf = TrackedBuf::<f64>::zeroed(1000);
            assert_eq!(buf.bytes(), 8000);
            drop(buf);
            let _buf2 = TrackedBuf::<f64>::zeroed(500); // reuses pool
        });
        assert!(report.stats.mem.footprint_hwm >= 8000);
        assert!(report.stats.mem.allocs >= 2);
    }

    #[test]
    fn serial_run_charges_but_spawn_is_inline() {
        let (v, report) = run_serial(CostModel::ultrasparc_167(), || {
            let h = spawn(|| {
                ptdf::work(1_000_000);
                7
            });
            h.join()
        });
        assert_eq!(v, 7);
        assert_eq!(report.time, VirtTime::from_ms(6)); // 1M cycles * 6ns, no thread cost
        assert_eq!(report.stats.mem.threads_created, 0);
    }

    #[test]
    fn detached_thread_still_runs_to_completion() {
        let (_, report) = run(Config::new(2, SchedKind::Fifo), || {
            let done = Mutex::new(false);
            let d2 = done.clone();
            spawn(move || {
                ptdf::work(10_000);
                *d2.lock() = true;
            })
            .detach();
            // Root returns immediately; the runtime drains the detached thread.
        });
        assert_eq!(report.total_threads, 2);
        assert_eq!(report.stats.mem.live_threads_hwm, 2);
    }

    #[test]
    fn priorities_order_execution() {
        let (order, _) = run(Config::new(1, SchedKind::Fifo), || {
            let order = Mutex::new(Vec::new());
            let mut handles = Vec::new();
            for (prio, tag) in [(0, "low"), (5, "high"), (2, "mid")] {
                let order = order.clone();
                handles.push(spawn_attr(Attr::default().priority(prio), move || {
                    order.lock().push(tag);
                }));
            }
            for h in handles {
                h.join();
            }
            let v = order.lock().clone();
            v
        });
        assert_eq!(order, vec!["high", "mid", "low"]);
    }

    #[test]
    fn determinism_identical_reports() {
        let go = || {
            run(Config::new(4, SchedKind::Ws), || {
                ptdf::scope(|s| {
                    for i in 0..32 {
                        s.spawn(move || ptdf::work(1000 * (i % 7 + 1)));
                    }
                })
            })
        };
        let (_, a) = go();
        let (_, b) = go();
        assert_eq!(a.stats.makespan, b.stats.makespan);
        assert_eq!(a.stats.mem.live_threads_hwm, b.stats.mem.live_threads_hwm);
    }

    #[test]
    fn stack_size_attr_affects_footprint() {
        let spawn_churn = |stack: u64| {
            let cfg = Config::new(1, SchedKind::Fifo).with_stack(stack);
            let (_, r) = run(cfg, || {
                // Forked breadth-first: all live at once.
                let hs: Vec<_> = (0..100).map(|_| spawn(|| ())).collect();
                for h in hs {
                    h.join();
                }
            });
            r.footprint()
        };
        let small = spawn_churn(STACK_8KB);
        let big = spawn_churn(STACK_1MB);
        assert!(
            big > small,
            "1MB default stacks must commit more: {big} vs {small}"
        );
    }

    #[test]
    fn root_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run(Config::new(1, SchedKind::Df), || {
                panic!("root exploded");
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn yield_now_round_robins() {
        let (v, _) = run(Config::new(1, SchedKind::Fifo), || {
            let log = Mutex::new(Vec::new());
            let (l1, l2) = (log.clone(), log.clone());
            let a = spawn(move || {
                for i in 0..3 {
                    l1.lock().push(format!("a{i}"));
                    yield_now();
                }
            });
            let b = spawn(move || {
                for i in 0..3 {
                    l2.lock().push(format!("b{i}"));
                    yield_now();
                }
            });
            a.join();
            b.join();
            let v = log.lock().clone();
            v
        });
        assert_eq!(v, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }
}
