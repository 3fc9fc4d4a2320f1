//! Edge-case integration tests of the runtime: deadlock detection, barrier
//! reuse, condvar broadcast, rwlock contention patterns, TSD lifecycle,
//! trace determinism, serial-mode parity, and report serialization.

use std::cell::RefCell;
use std::rc::Rc;

use ptdf::{
    run, run_serial, scope, spawn, try_run, yield_now, Barrier, BlockReason, Condvar, Config,
    CostModel, EventKind, JoinError, Mutex, RwLock, SchedKind, Semaphore, TlsKey, VirtTime,
};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

#[test]
fn deadlock_is_detected_and_reported() {
    let result = std::panic::catch_unwind(|| {
        run(Config::new(2, SchedKind::Df), || {
            // Two threads acquire two mutexes in opposite order, holding
            // across modelled work so the interleaving interlocks.
            let a = Mutex::new(());
            let b = Mutex::new(());
            // Holds must exceed the simulation's 200 µs interleaving
            // quantum so both threads demonstrably interlock (see
            // DESIGN.md on time-slicing granularity).
            let (a2, b2) = (a.clone(), b.clone());
            let t1 = spawn(move || {
                let _ga = a2.lock();
                ptdf::work(300_000);
                let _gb = b2.lock();
            });
            let (a3, b3) = (a.clone(), b.clone());
            let t2 = spawn(move || {
                let _gb = b3.lock();
                ptdf::work(300_000);
                let _ga = a3.lock();
            });
            t1.join();
            t2.join();
        });
    });
    let err = result.expect_err("deadlock must not complete");
    let dl = err
        .downcast_ref::<ptdf::DeadlockError>()
        .expect("panic payload should be the structured DeadlockError");
    let mut cycle = dl.info.cycle.clone();
    cycle.sort_unstable();
    assert_eq!(cycle, vec![1, 2], "cycle should name exactly t1 and t2");
    assert!(
        dl.to_string().contains("deadlock"),
        "display should identify the deadlock, got: {dl}"
    );
}

#[test]
fn barrier_is_reusable_across_many_phases() {
    let (counts, _) = run(Config::new(3, SchedKind::Df), || {
        let n = 3;
        let phases = 25;
        let barrier = Barrier::new(n);
        let tally = Mutex::new(vec![0u32; phases]);
        scope(|s| {
            for _ in 0..n {
                let barrier = barrier.clone();
                let tally = tally.clone();
                s.spawn(move || {
                    for ph in 0..phases {
                        tally.lock()[ph] += 1;
                        barrier.wait();
                        // After the barrier, every participant must have
                        // contributed to this phase.
                        assert_eq!(tally.lock()[ph], n as u32, "phase {ph}");
                        barrier.wait();
                    }
                });
            }
        });
        let v = tally.lock().clone();
        v
    });
    assert!(counts.iter().all(|&c| c == 3));
}

#[test]
fn condvar_notify_all_wakes_every_waiter() {
    let (woken, _) = run(Config::new(4, SchedKind::Fifo), || {
        let gate = Mutex::new(false);
        let cv = Condvar::new();
        let count = Mutex::new(0u32);
        scope(|s| {
            for _ in 0..10 {
                let (gate, cv, count) = (gate.clone(), cv.clone(), count.clone());
                s.spawn(move || {
                    let mut g = gate.lock();
                    while !*g {
                        g = cv.wait(g);
                    }
                    drop(g);
                    *count.lock() += 1;
                });
            }
            let (gate, cv) = (gate.clone(), cv.clone());
            s.spawn(move || {
                ptdf::work(100_000); // let all waiters park
                *gate.lock() = true;
                cv.notify_all();
            });
        });
        let v = *count.lock();
        v
    });
    assert_eq!(woken, 10);
}

#[test]
fn rwlock_many_readers_one_writer_interleaving() {
    for kind in [SchedKind::Df, SchedKind::DfDeques, SchedKind::Ws] {
        let (log_ok, _) = run(Config::new(4, kind), move || {
            let l = RwLock::new(0i64);
            scope(|s| {
                // Writers increment 50 times total.
                for _ in 0..5 {
                    let l = l.clone();
                    s.spawn(move || {
                        for _ in 0..10 {
                            let mut g = l.write();
                            let v = *g;
                            ptdf::work(2_000);
                            *g = v + 1;
                        }
                    });
                }
                // Readers only ever observe monotone values.
                for _ in 0..5 {
                    let l = l.clone();
                    s.spawn(move || {
                        let mut last = -1i64;
                        for _ in 0..20 {
                            let g = l.read();
                            assert!(*g >= last, "value went backwards");
                            last = *g;
                            ptdf::work(500);
                        }
                    });
                }
            });
            let v = *l.read();
            v == 50
        });
        assert!(log_ok, "{kind:?}: writer increments lost");
    }
}

#[test]
fn tls_survives_blocking_and_migration() {
    let (ok, _) = run(Config::new(4, SchedKind::Ws), || {
        let key = TlsKey::new(|| 0u64);
        let sem = Semaphore::new(0);
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let key = key.clone();
            let sem = sem.clone();
            handles.push(spawn(move || {
                key.set(i * 100);
                sem.acquire(); // block: thread may resume on another proc
                key.get() == i * 100
            }));
        }
        for _ in 0..8 {
            sem.release();
        }
        handles.into_iter().all(|h| h.join())
    });
    assert!(ok, "TSD must follow the thread across blocking/migration");
}

#[test]
fn trace_is_deterministic_across_runs() {
    let go = || {
        let cfg = Config::new(3, SchedKind::Df).with_trace();
        let (_, report) = run(cfg, || {
            scope(|s| {
                for i in 0..12 {
                    s.spawn(move || ptdf::work(1_000 * (i + 1)));
                }
            })
        });
        report.trace.unwrap().to_chrome_json()
    };
    assert_eq!(go(), go(), "identical configs must give identical traces");
}

#[test]
fn serial_and_parallel_compute_identical_results() {
    // One recursive workload, three execution modes, same answer.
    fn pascal(row: u32, col: u32) -> u64 {
        if col == 0 || col == row {
            ptdf::work(100);
            return 1;
        }
        let l = spawn(move || pascal(row - 1, col - 1));
        let r = pascal(row - 1, col);
        l.join() + r
    }
    let plain = pascal(14, 7); // no runtime at all
    let (serial, _) = run_serial(CostModel::ultrasparc_167(), || pascal(14, 7));
    let (par, _) = run(Config::new(4, SchedKind::Df), || pascal(14, 7));
    assert_eq!(plain, 3432);
    assert_eq!(serial, 3432);
    assert_eq!(par, 3432);
}

#[test]
fn report_fields_are_consistent() {
    let (_, report) = run(Config::new(2, SchedKind::Df).with_trace(), || {
        spawn(|| ptdf::work(1000)).join();
        ptdf::rt_alloc(4096);
        ptdf::rt_free(4096);
    });
    assert_eq!(report.scheduler, "df");
    assert!(report.stats.makespan.as_ns() > 0);
    assert!(report.trace.is_some());
}

#[test]
fn zero_and_huge_work_charges_are_safe() {
    let (_, report) = run(Config::new(1, SchedKind::Fifo), || {
        ptdf::work(0);
        ptdf::touch(1, 0);
        ptdf::work(10_000_000_000); // 10G cycles = 60 virtual seconds
    });
    assert!(report.makespan().as_secs_f64() > 59.0);
}

#[test]
fn try_lock_semantics_under_contention() {
    let (saw_contention, _) = run(Config::new(2, SchedKind::Df), || {
        let m = Mutex::new(());
        let m2 = m.clone();
        let holder = spawn(move || {
            let _g = m2.lock();
            ptdf::work(2_000_000); // hold for 12 virtual ms
        });
        // Work long enough to cross the simulation's interleaving quantum
        // so the holder's lock is visible before we probe.
        ptdf::work(300_000);
        let contended = m.try_lock().is_none();
        holder.join();
        let free = m.try_lock().is_some();
        contended && free
    });
    assert!(saw_contention);
}

// ---------------------------------------------------------------------------
// Stale ids against a recycled thread-table slot. The table hands an exited
// thread's slot to the next thread created; ids are never reused, so every
// holder of an old id must keep seeing "exited", whoever lives there now.
// ---------------------------------------------------------------------------

#[test]
fn a_deadline_token_that_outlives_its_thread_wakes_nobody() {
    for kind in POLICIES {
        let (woke_early, _) = run(Config::new(2, kind), move || {
            // A timed acquire granted long before its deadline: the armed
            // heap entry stays behind when the thread exits.
            let early = Semaphore::new(0);
            let e2 = early.clone();
            let timed = spawn(move || e2.acquire_timeout(VirtTime::from_ms(2)).is_ok());
            early.release();
            assert!(timed.join(), "{kind:?}: granted, not timed out");
            let deadline = ptdf::now().unwrap().as_ns() + 2_000_000;
            // The next thread created takes over the freed slot and blocks
            // untimed across the old deadline.
            let gate = Semaphore::new(0);
            let woke = Rc::new(RefCell::new(false));
            let (g2, w2) = (gate.clone(), woke.clone());
            let tenant = spawn(move || {
                g2.acquire();
                *w2.borrow_mut() = true;
            });
            while ptdf::now().unwrap().as_ns() <= deadline + 1_000_000 {
                ptdf::work(50_000);
                yield_now();
            }
            let woke_early = *woke.borrow();
            gate.release();
            tenant.join();
            assert!(*woke.borrow());
            woke_early
        });
        assert!(
            !woke_early,
            "{kind:?}: a dead thread's deadline woke the slot's new tenant"
        );
    }
}

#[test]
fn cancelling_a_joined_thread_leaves_the_slots_new_tenant_alone() {
    for kind in POLICIES {
        let (outcome, _) = run(Config::new(2, kind), move || {
            let gone = spawn(|| 1u32);
            let gone_id = gone.id();
            assert_eq!(gone.join(), 1);
            let gate = Semaphore::new(0);
            let g2 = gate.clone();
            let tenant = spawn(move || {
                g2.acquire();
                2u32
            });
            // Let the tenant reach its wait under every policy.
            ptdf::work(100_000);
            yield_now();
            assert!(
                !ptdf::cancel(gone_id),
                "{kind:?}: cancel of an exited thread"
            );
            gate.release();
            tenant.try_join()
        });
        assert!(matches!(outcome, Ok(2)), "{kind:?}: tenant saw {outcome:?}");
    }
}

#[test]
fn a_handle_joined_ten_thousand_spawns_late_gets_its_own_result() {
    for kind in POLICIES {
        run(Config::new(2, kind), move || {
            let plain = spawn(|| 41u64);
            let loud = spawn(|| -> u64 { std::panic::panic_any("mine") });
            let gate = Semaphore::new(0);
            let g2 = gate.clone();
            let victim = spawn(move || g2.acquire());
            let victim_id = victim.id();
            ptdf::work(100_000);
            yield_now();
            assert!(victim.cancel(), "{kind:?}");
            for i in 0..10_000u64 {
                assert_eq!(spawn(move || i).join(), i);
            }
            assert!(matches!(plain.try_join(), Ok(41)), "{kind:?}");
            match loud.try_join() {
                Err(JoinError::Panicked(p)) => {
                    assert_eq!(p.downcast_ref::<&str>(), Some(&"mine"), "{kind:?}")
                }
                other => panic!("{kind:?}: {other:?}"),
            }
            match victim.try_join() {
                Err(JoinError::Canceled(e)) => assert_eq!(e.thread, victim_id, "{kind:?}"),
                other => panic!("{kind:?}: {other:?}"),
            }
        });
    }
}

#[test]
fn joining_an_exit_in_the_joiners_future_lands_at_the_exit() {
    for kind in POLICIES {
        let ((child, before, after), report) = run(Config::new(2, kind).with_trace(), move || {
            // The child wakes the root and then runs on to its exit
            // inside the same quantum — too short a stretch to be
            // time-sliced — so by the time the root is dispatched the
            // child has exited in engine order, ~60 virtual µs ahead of
            // the root's clock.
            let done = Semaphore::new(0);
            let d2 = done.clone();
            let child = spawn(move || {
                ptdf::work(5_000);
                d2.release();
                ptdf::work(10_000);
            });
            // Traces carry a thread's number: `t17` is 17.
            let id: u32 = child.id().to_string()[1..].parse().expect("t<number>");
            done.acquire();
            let before = ptdf::now().unwrap();
            child.join();
            (id, before, ptdf::now().unwrap())
        });
        let trace = report.trace.expect("traced");
        let exit = trace
            .threads
            .iter()
            .find(|t| t.thread == child)
            .and_then(|t| t.exited)
            .expect("child exited");
        assert!(
            before < exit,
            "{kind:?}: the join must start before the child's virtual exit"
        );
        assert!(
            !trace.events.iter().any(|e| e.thread == Some(0)
                && matches!(
                    e.kind,
                    EventKind::Block {
                        reason: BlockReason::Join,
                        ..
                    }
                )),
            "{kind:?}: the child had exited in engine order, the join must not block"
        );
        assert!(
            after >= exit,
            "{kind:?}: join returned at {after:?}, exit at {exit:?}"
        );
    }
}

#[test]
fn a_stall_lists_and_unwinds_the_survivors_in_ascending_id_order() {
    /// Logs its thread's number when the stall sweep unwinds the thread.
    struct Logged(u32, Rc<RefCell<Vec<u32>>>);
    impl Drop for Logged {
        fn drop(&mut self) {
            self.1.borrow_mut().push(self.0);
        }
    }
    const SURVIVORS: [u32; 3] = [3, 9, 200];
    for kind in POLICIES {
        let dropped = Rc::new(RefCell::new(Vec::new()));
        let log = dropped.clone();
        let err = try_run(Config::new(2, kind), move || {
            let never = Semaphore::new(0);
            let mut handles = Vec::new();
            for k in 1..=1_000u32 {
                let (never, log) = (never.clone(), log.clone());
                handles.push((
                    k,
                    spawn(move || {
                        if SURVIVORS.contains(&k) {
                            let _logged = Logged(k, log);
                            never.acquire();
                        }
                    }),
                ));
            }
            for (k, h) in handles {
                if !SURVIVORS.contains(&k) {
                    h.join();
                }
            }
        })
        .expect_err("three threads wait forever");
        let listed: Vec<u32> = err.stall.threads.iter().map(|t| t.thread).collect();
        assert_eq!(listed, SURVIVORS, "{kind:?}");
        assert_eq!(*dropped.borrow(), SURVIVORS, "{kind:?}: unwind order");
        assert_eq!(err.report.total_threads, 1_001, "{kind:?}");
    }
}

#[test]
fn the_kth_spawn_is_thread_k() {
    for kind in POLICIES {
        let (_, report) = run(Config::new(2, kind), || {
            for k in 1..=10_000u32 {
                let h = spawn(|| ());
                assert_eq!(h.id().to_string(), format!("t{k}"));
                h.join();
            }
        });
        assert_eq!(report.total_threads, 10_001, "{kind:?}");
    }
}

// ---------------------------------------------------------------------------
// A join handle used outside the run that made it. Every run returns only
// once all its threads are done, so such a handle is simply complete: it
// yields what is in its slot and never consults whatever run is active.
// ---------------------------------------------------------------------------

#[test]
fn a_stale_handle_does_not_touch_a_thread_of_the_same_id_in_another_run() {
    for kind in POLICIES {
        let (stale, _) = run(Config::new(2, kind), || spawn(|| 7u64));
        let stale_cancel = run(Config::new(2, kind), || spawn(|| 8u64)).0;
        let (_, report) = run(Config::new(2, kind).with_trace(), move || {
            // This run's t1 — the id both stale handles carry — blocks.
            let gate = Semaphore::new(0);
            let g2 = gate.clone();
            let local = spawn(move || {
                g2.acquire();
                9u64
            });
            assert_eq!(local.id().to_string(), stale.id().to_string());
            ptdf::work(100_000);
            yield_now();
            let before = ptdf::now();
            assert!(
                !stale_cancel.cancel(),
                "{kind:?}: the stale thread exited long ago"
            );
            assert!(matches!(stale.try_join(), Ok(7)), "{kind:?}");
            assert!(matches!(
                stale_cancel.join_timeout(VirtTime::from_ms(1)),
                Ok(8)
            ));
            assert_eq!(
                ptdf::now(),
                before,
                "{kind:?}: a stale join costs no virtual time"
            );
            gate.release();
            // The stale join did not register as t1's joiner, and the stale
            // cancel did not land on it.
            assert!(matches!(local.try_join(), Ok(9)), "{kind:?}");
        });
        let joins = report
            .trace
            .expect("traced")
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Join { .. }))
            .count();
        assert_eq!(joins, 1, "{kind:?}: only the run's own join is an event");
    }
}

#[test]
fn a_stale_handle_past_the_active_runs_table_or_outside_any_run_is_complete() {
    let third = || {
        run(Config::new(2, SchedKind::Df), || {
            spawn(|| 1u64).join();
            spawn(|| 2u64).join();
            spawn(|| 3u64)
        })
        .0
    };
    // Inside a run that never issued t3.
    let stale = third();
    let (got, report) = run(Config::new(1, SchedKind::Fifo), move || stale.try_join());
    assert!(matches!(got, Ok(3)), "{got:?}");
    assert_eq!(report.total_threads, 1);
    // Outside any run.
    assert!(matches!(third().try_join(), Ok(3)));
    assert_eq!(third().join(), 3);
    assert!(matches!(third().join_timeout(VirtTime::from_ms(1)), Ok(3)));
    assert!(!third().cancel());
    // A value can be taken once, here as anywhere.
    let (panicked, _) = run(Config::new(2, SchedKind::Df), || {
        spawn(|| -> u64 { std::panic::panic_any("unjoined") })
    });
    assert!(matches!(panicked.try_join(), Err(JoinError::NoValue)));
}
