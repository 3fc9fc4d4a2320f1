//! Deadlock-sentinel integration matrix (ISSUE 5 acceptance).
//!
//! Drives the waits-for cycle detector through every shape it claims to
//! catch — self-deadlock, 2-cycle and 3-cycle lock-order inversions — under
//! all five scheduling policies, with and without seeded perturbation, and
//! pins down the exact cycle membership reported through both channels
//! ([`ptdf::Report::deadlocks`] and the flight-recorder events via
//! [`ptdf::check_trace`]). The timed sync APIs are exercised as the
//! sanctioned escape hatch (deadline-bounded waits are exempt from the
//! cycle check), and the virtual-time watchdog's [`ptdf::StallInfo`]
//! verdict is pinned with a deliberately lost wakeup.

use ptdf::{
    check_trace, run, spawn, try_run, Condvar, Config, DeadlockError, Mutex, RwLock, SchedKind,
    Semaphore, TimedOut, Violation, VirtTime,
};

const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

/// Holds long enough to cross the 200 µs interleaving quantum, so every
/// cycle member demonstrably acquires its first lock before any member
/// attempts its second.
const HOLD: u64 = 300_000;

/// Runs `f` under `cfg` with tracing, absorbing the expected
/// [`DeadlockError`] unwinds via `try_join`, and returns the sorted cycle
/// membership from the report plus whether the trace checker flagged a
/// [`Violation::Deadlock`].
fn detect(cfg: Config, f: impl FnOnce() + 'static) -> (Vec<u32>, bool) {
    let (_, report) = run(cfg.with_trace(), f);
    assert_eq!(report.deadlocks().len(), 1, "exactly one cycle recorded");
    let mut members = report.deadlocks()[0].cycle.clone();
    members.sort_unstable();
    let check = check_trace(&report.trace.expect("tracing enabled"));
    let flagged = check
        .violations
        .iter()
        .any(|v| matches!(v, Violation::Deadlock { .. }));
    (members, flagged)
}

#[test]
fn self_deadlock_is_a_one_cycle_under_every_policy() {
    for kind in POLICIES {
        let (members, flagged) = detect(Config::new(2, kind), || {
            let m = Mutex::new(());
            let h = spawn(move || {
                let _g1 = m.lock();
                let _g2 = m.lock(); // relock: waits-for cycle [t1]
            });
            let err = h.try_join().expect_err("self-deadlock must unwind");
            let payload = err.into_panic().expect("panicked");
            let dl = payload
                .downcast_ref::<DeadlockError>()
                .expect("structured DeadlockError payload");
            assert_eq!(dl.info.cycle, vec![1], "{:?}", dl.info);
        });
        assert_eq!(members, vec![1], "{kind:?}");
        assert!(flagged, "{kind:?}: trace must check dirty");
    }
}

#[test]
fn two_thread_lock_inversion_names_both_members() {
    for kind in POLICIES {
        let (members, flagged) = detect(Config::new(2, kind), || {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let (a2, b2) = (a.clone(), b.clone());
            let t1 = spawn(move || {
                let _ga = a2.lock();
                ptdf::work(HOLD);
                let _gb = b2.lock();
            });
            let t2 = spawn(move || {
                let _gb = b.lock();
                ptdf::work(HOLD);
                let _ga = a.lock();
            });
            let r1 = t1.try_join();
            let r2 = t2.try_join();
            assert!(
                r1.is_err() != r2.is_err(),
                "exactly one member unwinds; the other completes once \
                 the unwind releases its lock"
            );
        });
        assert_eq!(members, vec![1, 2], "{kind:?}");
        assert!(flagged, "{kind:?}: trace must check dirty");
    }
}

#[test]
fn three_thread_lock_cycle_names_all_members() {
    for kind in POLICIES {
        let (members, flagged) = detect(Config::new(3, kind), || {
            // t1 holds a wants b, t2 holds b wants c, t3 holds c wants a.
            let locks = [Mutex::new(()), Mutex::new(()), Mutex::new(())];
            let mut handles = Vec::new();
            for i in 0..3 {
                let own = locks[i].clone();
                let next = locks[(i + 1) % 3].clone();
                handles.push(spawn(move || {
                    let _g1 = own.lock();
                    ptdf::work(HOLD);
                    let _g2 = next.lock();
                }));
            }
            let unwound = handles
                .into_iter()
                .map(|h| h.try_join().is_err() as u32)
                .sum::<u32>();
            assert_eq!(
                unwound, 1,
                "exactly one member unwinds; its released lock resolves the rest"
            );
        });
        assert_eq!(members, vec![1, 2, 3], "{kind:?}");
        assert!(flagged, "{kind:?}: trace must check dirty");
    }
}

#[test]
fn detection_survives_schedule_perturbation() {
    // The cycle must be found regardless of how the schedule is jittered:
    // perturbation reorders and delays, but the waits-for graph it produces
    // is the same graph.
    for kind in POLICIES {
        for seed in [1u64, 42, 0xFEED] {
            let cfg = Config::new(2, kind).with_perturbation(seed);
            let (members, flagged) = detect(cfg, || {
                let a = Mutex::new(());
                let b = Mutex::new(());
                let (a2, b2) = (a.clone(), b.clone());
                let t1 = spawn(move || {
                    let _ga = a2.lock();
                    ptdf::work(HOLD);
                    let _gb = b2.lock();
                });
                let t2 = spawn(move || {
                    let _gb = b.lock();
                    ptdf::work(HOLD);
                    let _ga = a.lock();
                });
                let _ = t1.try_join();
                let _ = t2.try_join();
            });
            assert_eq!(members, vec![1, 2], "{kind:?} seed {seed}");
            assert!(flagged, "{kind:?} seed {seed}: trace must check dirty");
        }
    }
}

#[test]
fn rwlock_and_join_edges_close_cycles_too() {
    // Mixed-primitive cycle: t1 holds mutex m, wants rwlock w (write);
    // t2 holds w (read), wants m. Both edge kinds traverse the holders map.
    let (members, _) = detect(Config::new(2, SchedKind::Df), || {
        let m = Mutex::new(());
        let w = RwLock::new(());
        let (m2, w2) = (m.clone(), w.clone());
        let t1 = spawn(move || {
            let _gm = m2.lock();
            ptdf::work(HOLD);
            let _gw = w2.write();
        });
        let t2 = spawn(move || {
            let _gw = w.read();
            ptdf::work(HOLD);
            let _gm = m.lock();
        });
        let _ = t1.try_join();
        let _ = t2.try_join();
    });
    assert_eq!(members, vec![1, 2]);

    // Join edge: t1 joins t2 while t2 waits on a mutex t1 holds.
    let result = std::panic::catch_unwind(|| {
        run(Config::new(2, SchedKind::Df), || {
            let m = Mutex::new(());
            let m2 = m.clone();
            let _gm = m.lock();
            let t = spawn(move || {
                let _g = m2.lock();
            });
            ptdf::work(HOLD);
            t.join(); // root waits for t1, t1 waits for root's mutex
        });
    });
    let err = result.expect_err("join cycle must unwind the root");
    let dl = err
        .downcast_ref::<DeadlockError>()
        .expect("structured payload through the root join");
    let mut cycle = dl.info.cycle.clone();
    cycle.sort_unstable();
    assert_eq!(cycle, vec![0, 1], "root and child form the cycle");
}

#[test]
fn timed_waits_are_exempt_and_break_the_cycle() {
    // The same 2-thread inversion, but one side bounds its second acquire:
    // no cycle check fires, the deadline expires, the timed side backs off
    // and releases — the run completes with zero recorded deadlocks.
    for kind in POLICIES {
        let ((timed_out, completed), report) = run(Config::new(2, kind).with_trace(), || {
            let a = Mutex::new(());
            let b = Mutex::new(());
            let (a2, b2) = (a.clone(), b.clone());
            let t1 = spawn(move || {
                let _ga = a2.lock();
                ptdf::work(HOLD);
                match b2.lock_timeout(VirtTime::from_ms(1)) {
                    Ok(_g) => false,
                    Err(TimedOut) => true, // back off: drop a, retry later
                }
            });
            let t2 = spawn(move || {
                let _gb = b.lock();
                ptdf::work(HOLD);
                let _ga = a.lock();
                true
            });
            let timed_out = t1.join();
            let completed = t2.join();
            (timed_out, completed)
        });
        assert!(completed, "{kind:?}: untimed side must complete");
        assert!(
            report.deadlocks().is_empty(),
            "{kind:?}: timed waits must not trip the sentinel"
        );
        if timed_out {
            // The trace must carry the sanctioned Timeout wake and still
            // check clean (a bounded wait is not a violation).
            let check = check_trace(&report.trace.expect("tracing enabled"));
            assert!(check.is_clean(), "{kind:?}: {:?}", check.violations);
        }
    }
}

#[test]
fn timed_api_semantics() {
    run(Config::new(2, SchedKind::Df), || {
        // Uncontended timed lock succeeds immediately.
        let m = Mutex::new(1u32);
        assert!(m.lock_timeout(VirtTime::from_us(1)).is_ok());

        // Contended timed lock expires while the holder works past it.
        let m2 = m.clone();
        let holder = spawn(move || {
            let _g = m2.lock();
            ptdf::work(2_000_000); // ~12 virtual ms
        });
        ptdf::work(HOLD); // let the holder demonstrably acquire
        let err = m.lock_timeout(VirtTime::from_ms(1));
        assert!(matches!(err, Err(TimedOut)), "holder outlives the deadline");
        holder.join();
        assert!(m.lock_timeout(VirtTime::from_us(1)).is_ok(), "free again");

        // Semaphore: zero permits times out; a release grants in time.
        let sem = Semaphore::new(0);
        assert_eq!(sem.acquire_timeout(VirtTime::from_us(50)), Err(TimedOut));
        let sem2 = sem.clone();
        let releaser = spawn(move || {
            ptdf::work(10_000);
            sem2.release();
        });
        assert_eq!(sem.acquire_timeout(VirtTime::from_ms(5)), Ok(()));
        releaser.join();

        // Condvar: un-notified wait expires and re-acquires the guard;
        // a notify before the deadline delivers normally.
        let gate = Mutex::new(false);
        let cv = Condvar::new();
        let g = gate.lock();
        let (g, r) = cv.wait_timeout(g, VirtTime::from_us(100));
        assert_eq!(r, Err(TimedOut));
        assert!(!*g, "guard re-acquired with state intact");
        drop(g);
        let (gate2, cv2) = (gate.clone(), cv.clone());
        let notifier = spawn(move || {
            ptdf::work(10_000);
            *gate2.lock() = true;
            cv2.notify_one();
        });
        let mut g = gate.lock();
        let mut timed_out = false;
        while !*g {
            let (g2, r) = cv.wait_timeout(g, VirtTime::from_ms(5));
            g = g2;
            if r.is_err() {
                timed_out = true;
                break;
            }
        }
        assert!(!timed_out, "notify must beat the generous deadline");
        drop(g);
        notifier.join();

        // join_timeout: returns the handle back on expiry, value on time.
        let slow = spawn(|| {
            ptdf::work(2_000_000);
            7u32
        });
        let back = slow
            .join_timeout(VirtTime::from_us(100))
            .expect_err("slow thread outlives the deadline");
        assert!(matches!(back.join_timeout(VirtTime::from_ms(60)), Ok(7)));
    });
}

#[test]
fn lost_wakeup_stalls_with_a_verdict_instead_of_panicking() {
    // A deliberately lost wakeup: a waiter on a semaphore nobody releases,
    // plus the root blocked joining it. No waits-for cycle exists (the
    // semaphore edge has no holder), so the cycle detector stays quiet —
    // the virtual-time watchdog must declare a stall naming both threads.
    for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
        let err = try_run(Config::new(2, kind), || {
            let sem = Semaphore::new(0);
            let h = spawn(move || sem.acquire());
            h.join();
        })
        .expect_err("run can never complete");
        let stall = &err.stall;
        assert_eq!(stall.scheduler, kind.name(), "verdict names the policy");
        let waiter = stall
            .threads
            .iter()
            .find(|t| t.thread == 1)
            .expect("the stranded waiter is listed");
        assert_eq!(
            waiter.reason.map(|r| r.name()),
            Some("semaphore"),
            "verdict names the wait reason"
        );
        let root = stall
            .threads
            .iter()
            .find(|t| t.thread == 0)
            .expect("the blocked joiner is listed");
        assert_eq!(root.reason.map(|r| r.name()), Some("join"));
        assert!(err.report.stalled.is_some(), "report carries the verdict");
        let text = err.to_string();
        assert!(text.contains("stalled"), "{text}");
    }
}

#[test]
fn condvar_wait_with_no_notifier_stalls_cleanly() {
    // The condvar flavor of a lost wakeup; also proves guard destructors ran
    // during the stall teardown (the mutex ends unlocked in the sweep).
    let err = try_run(Config::new(2, SchedKind::Df), || {
        let gate = Mutex::new(false);
        let cv = Condvar::new();
        let h = spawn(move || {
            let mut g = gate.lock();
            while !*g {
                g = cv.wait(g); // nobody will ever notify
            }
        });
        h.join();
    })
    .expect_err("run can never complete");
    assert!(err
        .stall
        .threads
        .iter()
        .any(|t| t.thread == 1 && t.reason.map(|r| r.name()) == Some("condvar")));
}

#[test]
fn backoff_retry_resolves_contention() {
    // The seeded backoff helper turns a TimedOut into eventual success.
    let (won, _) = run(Config::new(2, SchedKind::Ws), || {
        let m = Mutex::new(0u32);
        let m2 = m.clone();
        let holder = spawn(move || {
            let _g = m2.lock();
            ptdf::work(1_000_000);
        });
        ptdf::work(HOLD);
        let mut bo = ptdf::backoff::Backoff::new(9);
        let won = bo
            .retry(64, || m.lock_timeout(VirtTime::from_us(500)).map(|_| ()))
            .is_ok();
        holder.join();
        won
    });
    assert!(won, "bounded retries must eventually win the lock");
}
