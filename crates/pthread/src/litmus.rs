//! Litmus corpus: small 2–4-thread synchronization programs for the
//! schedule explorer.
//!
//! Each program is self-contained (a plain `fn()` run as the main thread
//! of one [`crate::try_run`] execution) and encodes its own expected
//! invariant as assertions, so [`fn@crate::explore`] flags any schedule that
//! breaks it as a `"panic"` violation — on top of the trace checker,
//! stall watchdog, and deadlock sentinel, which fire without any
//! assertion. The corpus covers every primitive the engine schedules
//! around: `Mutex`, `RwLock`, `Semaphore`, `Barrier`, `Condvar`, joins,
//! and timed waits, including the regression scenarios from earlier PRs
//! (naked condvar notify, wake-batch ordering floor) and the two
//! timed-wait grant bugs this corpus was built to flush out (stale
//! semaphore queue slots and the rwlock writer-timeout window — see
//! DESIGN.md §14.6), plus the cancellation scenarios of DESIGN.md §15
//! (cancel racing a grant, cleanup handlers on the cancel unwind, cancel
//! racing a timed wait's deadline, cancel-disabled sections).
//!
//! `buggy_lost_update` is intentionally racy (unsynchronized
//! read-yield-write) and is the known-bad fixture CI uses to prove the
//! explorer actually finds and minimizes counter-examples.

use std::cell::Cell;
use std::rc::Rc;

use ptdf_smp::VirtTime;

use crate::{spawn, yield_now, Barrier, Condvar, JoinError, Mutex, RwLock, Semaphore};

/// One litmus program.
#[derive(Clone, Copy)]
pub struct Litmus {
    /// Unique corpus name (CLI `--litmus` key).
    pub name: &'static str,
    /// One-line description of the scenario and its invariant.
    pub about: &'static str,
    /// Suggested processor count (enough parallelism to expose every
    /// interleaving the scenario has).
    pub procs: usize,
    /// Whether the program is *expected* to have a violating schedule
    /// under a correct engine (known-bad fixtures for explorer smoke).
    pub buggy: bool,
    /// The program body, run as the root thread of each explored schedule.
    pub body: fn(),
}

impl std::fmt::Debug for Litmus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Litmus")
            .field("name", &self.name)
            .field("procs", &self.procs)
            .field("buggy", &self.buggy)
            .finish()
    }
}

fn mutex_increments() {
    let m = Rc::new(Mutex::new(0u32));
    let hs: Vec<_> = (0..3)
        .map(|_| {
            let m = m.clone();
            spawn(move || {
                let mut g = m.lock();
                *g += 1;
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    assert_eq!(*m.lock(), 3, "lost mutex increment");
}

fn mutex_lock_timeout() {
    let m = Rc::new(Mutex::new(0u32));
    let m1 = m.clone();
    let holder = spawn(move || {
        let mut g = m1.lock();
        crate::work(400);
        *g += 1;
    });
    let m2 = m.clone();
    let contender = spawn(move || {
        // May time out while the holder works, or win the lock first;
        // either way the final count below must be consistent.
        match m2.lock_timeout(VirtTime(120)) {
            Ok(mut g) => {
                *g += 1;
                true
            }
            Err(_) => {
                let mut g = m2.lock();
                *g += 1;
                true
            }
        }
    });
    holder.join();
    assert!(contender.join());
    assert_eq!(*m.lock(), 2, "timeout path dropped an increment");
}

fn semaphore_fifo() {
    let sem = Rc::new(Semaphore::new(1));
    let done = Rc::new(Cell::new(0u32));
    let hs: Vec<_> = (0..3)
        .map(|_| {
            let sem = sem.clone();
            let done = done.clone();
            spawn(move || {
                sem.acquire();
                crate::work(50);
                done.set(done.get() + 1);
                sem.release();
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    assert_eq!(done.get(), 3, "a semaphore waiter never ran");
}

/// Satellite-1 scenario: a timed waiter whose deadline fires while it is
/// queued must not eat a later grant. `a` times out, then main releases;
/// the grant must reach `b` (the only live waiter) or the run stalls.
fn sem_timeout_grant() {
    let sem = Rc::new(Semaphore::new(0));
    // Pass-through token: main releases the single permit once; whoever
    // acquires it re-releases, so every live waiter is eventually served
    // no matter how the schedule lands — unless a grant is eaten by a
    // timed-out queue slot, which strands the rest and stalls the run.
    //
    // Single-processor shape: the stale-slot window only opens when the
    // timed-out waiter cannot be redispatched (and so withdraw its queue
    // entry) before the release lands, i.e. while the releaser holds the
    // only processor across the deadline.
    let sa = sem.clone();
    let a = spawn(move || match sa.acquire_timeout(VirtTime(10_000)) {
        Ok(()) => {
            sa.release();
            false
        }
        Err(_) => true,
    });
    let sb = sem.clone();
    let b = spawn(move || {
        sb.acquire();
        sb.release();
        true
    });
    yield_now(); // let both waiters park before the deadline clock runs
    crate::work(5_000); // ~30 µs: a's deadline fires while main computes
    sem.release();
    a.join();
    assert!(b.join(), "grant lost to a timed-out queue slot");
    sem.acquire(); // the token must still be live after all hand-offs
}

/// Satellite-2 scenario: a writer whose `write_timeout` deadline fires
/// while readers hold the lock must unwind cleanly — the queue must
/// re-admit readers it was holding back (writer preference) and a later
/// writer must still get exclusivity.
fn rwlock_writer_timeout() {
    let rw = Rc::new(RwLock::new(0u32));
    // Single-processor shape (see `sem_timeout_grant`): the deadline must
    // fire while the writer cannot re-run, so the reader's guard drop
    // pumps the grant queue with the withdrawn writer's entry still
    // queued — the lazy-eviction bug admits that stale writer and wedges
    // the lock; eager eviction re-admits the held-back reader instead.
    let r1 = rw.clone();
    let reader1 = spawn(move || {
        let g = r1.read();
        yield_now(); // hold the read lock across the writer's deadline
        *g
    });
    let w = rw.clone();
    let writer = spawn(move || match w.write_timeout(VirtTime(10_000)) {
        Ok(mut g) => {
            *g += 10;
            true
        }
        Err(_) => false,
    });
    let r2 = rw.clone();
    let reader2 = spawn(move || *r2.read());
    yield_now(); // let reader1 acquire and the writer enqueue behind it
    crate::work(5_000); // ~30 µs: the writer's deadline fires here
    let first = reader1.join();
    assert!(
        first == 0 || first == 10,
        "reader1 saw a torn write: {first}"
    );
    let wrote = writer.join();
    let late = reader2.join();
    assert!(late == 0 || late == 10, "reader2 saw a torn write: {late}");
    let mut g = rw.write();
    *g += 1;
    let expect = if wrote { 11 } else { 1 };
    assert_eq!(*g, expect, "writer-timeout unwind corrupted the lock");
}

fn rwlock_read_write() {
    let rw = Rc::new(RwLock::new(0u32));
    let hs: Vec<_> = (0..2)
        .map(|_| {
            let rw = rw.clone();
            spawn(move || {
                let before = *rw.read();
                let mut g = rw.write();
                assert!(*g >= before, "rwlock went backwards");
                *g += 1;
            })
        })
        .collect();
    let rw2 = rw.clone();
    let reader = spawn(move || *rw2.read() <= 2);
    for h in hs {
        h.join();
    }
    assert!(reader.join());
    assert_eq!(*rw.read(), 2);
}

/// PR 3 naked-notify regression: a notify with the predicate mutex *not*
/// held must still pair with the waiter's predicate loop (no lost wakeup,
/// no stall), for both wait orders.
fn condvar_signal() {
    let m = Rc::new(Mutex::new(false));
    let cv = Rc::new(Condvar::new());
    let (m1, cv1) = (m.clone(), cv.clone());
    let waiter = spawn(move || {
        let mut g = m1.lock();
        while !*g {
            g = cv1.wait(g);
        }
    });
    let (m2, cv2) = (m.clone(), cv.clone());
    let notifier = spawn(move || {
        *m2.lock() = true;
        // Naked notify: the lock is already released here.
        cv2.notify_one();
    });
    waiter.join();
    notifier.join();
    assert!(*m.lock());
}

fn condvar_timeout() {
    let m = Rc::new(Mutex::new(0u32));
    let cv = Rc::new(Condvar::new());
    let (m1, cv1) = (m.clone(), cv.clone());
    let waiter = spawn(move || {
        let mut g = m1.lock();
        let mut timed_out = false;
        while *g == 0 && !timed_out {
            let (g2, r) = cv1.wait_timeout(g, VirtTime(150));
            g = g2;
            timed_out = r.is_err();
        }
        *g += 10;
    });
    let (m2, cv2) = (m.clone(), cv.clone());
    let setter = spawn(move || {
        crate::work(60);
        *m2.lock() = 1;
        cv2.notify_all();
    });
    waiter.join();
    setter.join();
    let v = *m.lock();
    // Signaled in time: 1 then +10. Timed out first: +10 then set to 1,
    // or set happens after the +10 on a 0 — every path lands in this set.
    assert!(
        v == 11 || v == 10 || v == 1,
        "condvar timeout lost an update: {v}"
    );
}

fn barrier_rounds() {
    let bar = Rc::new(Barrier::new(3));
    let hits = Rc::new(Cell::new(0u32));
    let hs: Vec<_> = (0..2)
        .map(|_| {
            let bar = bar.clone();
            let hits = hits.clone();
            spawn(move || {
                for _ in 0..2 {
                    bar.wait();
                    hits.set(hits.get() + 1);
                }
            })
        })
        .collect();
    for round in 0..2 {
        bar.wait();
        hits.set(hits.get() + 1);
        let _ = round;
    }
    for h in hs {
        h.join();
    }
    assert_eq!(hits.get(), 6, "a barrier round lost a participant");
}

/// PR 5 wake-floor regression: `join_timeout` on a slow thread must hand
/// the handle back on deadline and succeed on retry, never losing the
/// completion wake regardless of wake-batch ordering.
fn join_timeout_floor() {
    let slow = spawn(|| {
        crate::work(500);
        7u32
    });
    let v = match slow.join_timeout(VirtTime(100)) {
        Ok(v) => v,
        Err(handle) => handle.join(),
    };
    assert_eq!(v, 7);
    let fast = spawn(|| 1u32);
    assert_eq!(fast.join_timeout(VirtTime(1_000_000)).ok(), Some(1));
}

/// Intentionally order-dependent known-bad fixture: asserts that mutex
/// grant order follows spawn order. The natural FIFO grant satisfies it;
/// flipping the explorer's `Grant` decision hands the lock to the second
/// waiter first and trips the assert — a violation whose minimal decision
/// prefix is necessarily non-empty.
fn buggy_grant_order() {
    let m = Rc::new(Mutex::new(Vec::new()));
    let gate = m.lock();
    let hs: Vec<_> = [1u32, 2]
        .into_iter()
        .map(|id| {
            let m = m.clone();
            spawn(move || m.lock().push(id))
        })
        .collect();
    yield_now(); // both waiters park on the held lock
    crate::work(2_000);
    drop(gate); // grant decision: which waiter enters first?
    for h in hs {
        h.join();
    }
    let order = m.lock().clone();
    assert_eq!(order, [1, 2], "grant order does not follow spawn order");
}

/// Intentionally racy known-bad fixture: unsynchronized read-yield-write
/// on a shared cell. Some schedule interleaves the two read-modify-write
/// windows and loses an update; the explorer must find it.
fn buggy_lost_update() {
    let cell = Rc::new(Cell::new(0u32));
    let hs: Vec<_> = (0..2)
        .map(|_| {
            let cell = cell.clone();
            spawn(move || {
                let v = cell.get();
                yield_now();
                cell.set(v + 1);
            })
        })
        .collect();
    for h in hs {
        h.join();
    }
    assert_eq!(cell.get(), 2, "lost update");
}

/// Satellite-1 fixture (mutex flavor of `sem_timeout_grant`): an unlock
/// after a timed waiter's deadline must hand the lock to the live waiter.
/// Under lazy eviction the unlock's blind pop grants the stale slot and
/// the run stalls; eager eviction keeps it clean.
fn mutex_timeout_grant() {
    let m = Rc::new(Mutex::new(0u32));
    let gate = m.lock();
    let m1 = m.clone();
    let a = spawn(move || match m1.lock_timeout(VirtTime(10_000)) {
        Ok(mut g) => {
            *g += 1;
            false
        }
        Err(_) => true,
    });
    let m2 = m.clone();
    let b = spawn(move || {
        *m2.lock() += 1;
        true
    });
    yield_now(); // park both waiters on the held lock
    crate::work(5_000); // ~30 µs: a's deadline fires while main holds it
    drop(gate); // grant: must reach b, never a's timed-out queue slot
    a.join();
    assert!(b.join(), "grant lost to a timed-out queue slot");
    assert!(*m.lock() >= 1, "the live waiter's increment vanished");
}

/// Satellite-1 companion: `notify_one` after a timed waiter's deadline
/// must still reach the live waiter. Clean under BOTH eviction modes —
/// the condvar's wake loop skips entries that are no longer blocked, so
/// a stale timed-out slot cannot eat the notify (unlike the mutex and
/// semaphore grant paths, which hand ownership to the popped slot).
fn condvar_timeout_notify() {
    let m = Rc::new(Mutex::new(false));
    let cv = Rc::new(Condvar::new());
    let (m1, cv1) = (m.clone(), cv.clone());
    let a = spawn(move || {
        let mut g = m1.lock();
        let mut timed_out = false;
        while !*g && !timed_out {
            let (g2, r) = cv1.wait_timeout(g, VirtTime(10_000));
            g = g2;
            timed_out = r.is_err();
        }
    });
    let (m2, cv2) = (m.clone(), cv.clone());
    let b = spawn(move || {
        let mut g = m2.lock();
        while !*g {
            g = cv2.wait(g);
        }
        true
    });
    yield_now(); // park both waiters on the condvar
    crate::work(5_000); // ~30 µs: a's deadline fires while main computes
    *m.lock() = true;
    cv.notify_one(); // must reach b even with a's stale slot queued ahead
    a.join();
    assert!(b.join(), "notify lost to a timed-out wait slot");
}

/// Cancellation racing a mutex grant: the victim parks on a held lock and
/// is cancelled just before the unlock. The eviction must keep the grant
/// away from the unwinding waiter, and the lock must stay fully usable.
fn cancel_lock_race() {
    let m = Rc::new(Mutex::new(0u32));
    let gate = m.lock();
    let m1 = m.clone();
    let victim = spawn(move || {
        *m1.lock() += 1;
    });
    yield_now(); // let the victim park on the held lock
    let canceled = victim.cancel();
    drop(gate); // the grant races the cancel eviction in decision space
    let outcome = victim.try_join();
    let v = *m.lock();
    match outcome {
        Err(JoinError::Canceled(_)) => {
            assert_eq!(v, 0, "cancelled waiter still incremented")
        }
        Ok(()) => assert_eq!(v, 1, "joined normally but the increment is lost"),
        Err(e) => panic!("unexpected join error: {e}"),
    }
    assert!(canceled || v == 1, "cancel refused on a live thread");
    *m.lock() += 1; // the lock survives the unwind: a later increment lands
}

/// Cleanup handlers run on the cancel unwind: the victim takes the only
/// semaphore permit, guards its release with [`crate::cleanup`], then
/// waits on a condvar nobody ever notifies. Cancellation is the only way
/// out; the handler must hand the permit back or main's acquire stalls.
fn cancel_cleanup_handler() {
    let sem = Rc::new(Semaphore::new(1));
    let m = Rc::new(Mutex::new(false));
    let cv = Rc::new(Condvar::new());
    let (s, m1, cv1) = (sem.clone(), m.clone(), cv.clone());
    let victim = spawn(move || {
        s.acquire();
        let s2 = s.clone();
        let guard = crate::cleanup(move || s2.release());
        let mut g = m1.lock();
        while !*g {
            g = cv1.wait(g); // no notifier: only a cancel ends this wait
        }
        drop(g);
        guard.dismiss();
    });
    yield_now(); // park the victim in the condvar wait
    assert!(victim.cancel(), "victim exited before the cancel");
    assert!(
        matches!(victim.try_join(), Err(JoinError::Canceled(_))),
        "cancelled waiter did not report Canceled"
    );
    sem.acquire(); // the cleanup handler must have released the permit
}

/// Cancellation racing a timed wait's deadline: the victim sits in
/// `acquire_timeout` with the deadline near when the cancel arrives —
/// the explorer branches the `CancelDelivery` decision (deliver now vs
/// defer to the wait's own resolution). Both paths end in cancellation:
/// a timed wait's expiry resumption is itself a cancellation point.
fn cancel_deadline_race() {
    let sem = Rc::new(Semaphore::new(0));
    let s = sem.clone();
    let victim = spawn(move || {
        // Deadline far enough out that the cancel below always lands while
        // the wait is still deadline-armed (the CancelDelivery branch); the
        // deferred branch then resolves at this deadline in virtual time.
        let _ = s.acquire_timeout(VirtTime(100_000));
        unreachable!("a latched cancel must deliver before the wait returns");
    });
    yield_now(); // park the victim in the timed wait
    crate::work(1_000); // let the wait settle before cancelling
    assert!(victim.cancel(), "victim exited before the cancel");
    assert!(
        matches!(victim.try_join(), Err(JoinError::Canceled(_))),
        "cancelled timed waiter did not report Canceled"
    );
    sem.release();
    sem.acquire(); // the permit was never consumed by the cancelled waiter
}

/// Cancel-disabled sections defer delivery: a cancel latched while the
/// victim is disabled must not unwind it mid-section; it delivers at the
/// first cancellation point after re-enabling.
fn cancel_disabled_section() {
    let sem = Rc::new(Semaphore::new(0));
    let done = Rc::new(Cell::new(0u32));
    let (s, d) = (sem.clone(), done.clone());
    let victim = spawn(move || {
        let prev = crate::set_cancel_enabled(false);
        assert!(prev, "threads start cancel-enabled");
        s.acquire(); // a latched cancel must NOT unwind this wait
        d.set(d.get() + 1); // the critical section completes under the latch
        crate::set_cancel_enabled(true);
        crate::cancel_point(); // the latched request delivers here
        d.set(d.get() + 100); // unreachable when a cancel was latched
    });
    yield_now(); // park the victim (cancel-disabled) on the semaphore
    assert!(victim.cancel(), "victim exited before the cancel");
    sem.release(); // hand over the permit; the victim finishes its section
    assert!(
        matches!(victim.try_join(), Err(JoinError::Canceled(_))),
        "latched cancel never delivered"
    );
    assert_eq!(done.get(), 1, "disabled section was cut short (or overran)");
}

const CORPUS: &[Litmus] = &[
    Litmus {
        name: "mutex_increments",
        about: "three threads increment under a mutex; total must be 3",
        procs: 3,
        buggy: false,
        body: mutex_increments,
    },
    Litmus {
        name: "mutex_lock_timeout",
        about: "lock_timeout loser retries untimed; both increments land",
        procs: 3,
        buggy: false,
        body: mutex_lock_timeout,
    },
    Litmus {
        name: "semaphore_fifo",
        about: "binary semaphore serializes three workers; all complete",
        procs: 3,
        buggy: false,
        body: semaphore_fifo,
    },
    Litmus {
        name: "sem_timeout_grant",
        about: "release after a waiter's deadline must grant the live waiter",
        procs: 1,
        buggy: false,
        body: sem_timeout_grant,
    },
    Litmus {
        name: "rwlock_writer_timeout",
        about: "writer deadline amid readers unwinds without corrupting grants",
        procs: 1,
        buggy: false,
        body: rwlock_writer_timeout,
    },
    Litmus {
        name: "rwlock_read_write",
        about: "read-then-write upgraders plus a racing reader stay monotonic",
        procs: 3,
        buggy: false,
        body: rwlock_read_write,
    },
    Litmus {
        name: "condvar_signal",
        about: "naked notify_one still pairs with the predicate loop",
        procs: 3,
        buggy: false,
        body: condvar_signal,
    },
    Litmus {
        name: "condvar_timeout",
        about: "wait_timeout races notify_all; every path keeps the update",
        procs: 3,
        buggy: false,
        body: condvar_timeout,
    },
    Litmus {
        name: "barrier_rounds",
        about: "three threads cross a barrier twice; 6 round-crossings",
        procs: 3,
        buggy: false,
        body: barrier_rounds,
    },
    Litmus {
        name: "join_timeout_floor",
        about: "join_timeout returns the handle on deadline, retry succeeds",
        procs: 2,
        buggy: false,
        body: join_timeout_floor,
    },
    Litmus {
        name: "mutex_timeout_grant",
        about: "unlock after a waiter's deadline must grant the live waiter",
        procs: 1,
        buggy: false,
        body: mutex_timeout_grant,
    },
    Litmus {
        name: "condvar_timeout_notify",
        about: "notify_one after a waiter's deadline reaches the live waiter",
        procs: 1,
        buggy: false,
        body: condvar_timeout_notify,
    },
    Litmus {
        name: "cancel_lock_race",
        about: "cancel races a mutex grant; the unwound waiter never owns it",
        procs: 1,
        buggy: false,
        body: cancel_lock_race,
    },
    Litmus {
        name: "cancel_cleanup_handler",
        about: "cleanup handler on the cancel unwind releases its permit",
        procs: 2,
        buggy: false,
        body: cancel_cleanup_handler,
    },
    Litmus {
        name: "cancel_deadline_race",
        about: "cancel races a timed wait's deadline; both orders cancel",
        procs: 1,
        buggy: false,
        body: cancel_deadline_race,
    },
    Litmus {
        name: "cancel_disabled_section",
        about: "cancel latched across a disabled section delivers after it",
        procs: 1,
        buggy: false,
        body: cancel_disabled_section,
    },
    Litmus {
        name: "buggy_grant_order",
        about: "KNOWN-BAD: asserts grant order == spawn order; a flipped \
                grant decision breaks it",
        procs: 1,
        buggy: true,
        body: buggy_grant_order,
    },
    Litmus {
        name: "buggy_lost_update",
        about: "KNOWN-BAD: unsynchronized read-yield-write loses an update",
        procs: 1,
        buggy: true,
        body: buggy_lost_update,
    },
];

/// The full litmus corpus, in stable order.
pub fn litmus() -> &'static [Litmus] {
    CORPUS
}

/// All corpus names, in stable order.
pub fn litmus_names() -> Vec<&'static str> {
    CORPUS.iter().map(|l| l.name).collect()
}

/// Looks up a program by name.
pub fn find(name: &str) -> Option<&'static Litmus> {
    CORPUS.iter().find(|l| l.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_unique_and_min_size() {
        let names = litmus_names();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
        assert!(names.len() >= 16, "corpus shrank below 16 programs");
        assert!(find("buggy_lost_update").unwrap().buggy);
        assert!(!find("condvar_signal").unwrap().buggy);
        assert!(!find("cancel_lock_race").unwrap().buggy);
        assert!(!find("mutex_timeout_grant").unwrap().buggy);
        assert!(find("nope").is_none());
    }
}
