//! Blocking synchronization primitives: mutexes, condition variables,
//! semaphores, and barriers.
//!
//! These are the "rich Pthreads functionality" the paper emphasizes its
//! scheduler supports (unlike Cilk-style systems restricted to fork/join):
//! a thread that blocks keeps its placeholder in the DF scheduler's ordered
//! queue and resumes at its depth-first position when woken.
//!
//! Each primitive is its admission state (owner, permits, round) over one
//! [`WaitQueue`], which parks, grants, times out and evicts ([`crate::waitq`]);
//! a timed entry point and its untimed twin are one body.
//!
//! Handle semantics: each primitive is a cheap clonable handle (like a
//! `pthread_mutex_t*`); clones refer to the same underlying object. Outside
//! a runtime the primitives degrade to plain sequential semantics (locking
//! an unlocked mutex succeeds; blocking would self-deadlock and panics).

use std::cell::{Cell, RefCell, UnsafeCell};
use std::rc::Rc;

use ptdf_smp::VirtTime;

use crate::api::par_ctx;
use crate::runtime::{deliver_cancel, suspend_current, unwind_if_cancel_woken, Inner};
use crate::sentinel::TimedOut;
use crate::thread::{ThreadId, YieldReason};
use crate::trace::BlockReason;
use crate::waitq::{untimed, Evict, Holders, WaitQueue};

/// The calling thread, or a sentinel owner outside a runtime.
fn current_or_sentinel() -> ThreadId {
    crate::api::current_thread().unwrap_or(ThreadId(u32::MAX - 1))
}

/// Charges one sync operation to the current processor; a preemption point.
pub(crate) fn charge_sync_op() {
    if let Some(rc) = par_ctx() {
        {
            let mut inner = rc.borrow_mut();
            // Lenient on context: stall-teardown destructors (guard drops,
            // TLS values) release primitives with no current thread.
            let Some((_, p)) = inner.cur else {
                return;
            };
            let c = inner.machine.cost().sync_op;
            inner.machine.sync_op(p, c);
        }
        crate::runtime::maybe_timeslice(&rc);
        crate::runtime::maybe_preempt(&rc);
    }
}

/// The entry of a blocking operation: charges it and, inside a runtime, is
/// a cancellation point — a latched request is delivered before the wait
/// queue is touched. Returns the runtime, if any.
pub(crate) fn enter_blocking_op() -> Option<Rc<RefCell<Inner>>> {
    charge_sync_op();
    let ctx = par_ctx();
    if let Some(rc) = &ctx {
        deliver_cancel(rc);
    }
    ctx
}

struct MutexInner<T: ?Sized> {
    owner: Cell<Option<ThreadId>>,
    queue: Rc<WaitQueue>,
    value: UnsafeCell<T>,
}

/// A blocking mutual-exclusion lock protecting a `T`.
///
/// Lock handoff is direct: `unlock` transfers ownership to the first waiter
/// (FIFO), which avoids barging and makes the timing model simple.
pub struct Mutex<T> {
    inner: Rc<MutexInner<T>>,
}

impl<T> Clone for Mutex<T> {
    fn clone(&self) -> Self {
        Mutex {
            inner: self.inner.clone(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex")
            .field("locked", &self.is_locked())
            .finish()
    }
}

/// RAII guard; unlocks on drop.
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: Rc::new(MutexInner {
                owner: Cell::new(None),
                queue: Rc::default(),
                value: UnsafeCell::new(value),
            }),
        }
    }

    /// Acquires the lock, blocking the calling thread if necessary.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        untimed(self.lock_for(None))
    }

    /// Like [`Mutex::lock`], but gives up after `timeout` of virtual time,
    /// returning [`crate::TimedOut`] instead of a guard.
    ///
    /// Timed waits are exempt from the deadlock sentinel — the deadline
    /// itself guarantees progress — which makes this the building block for
    /// deadlock *recovery* (pair it with [`crate::backoff::Backoff`]).
    pub fn lock_timeout(&self, timeout: VirtTime) -> Result<MutexGuard<'_, T>, TimedOut> {
        self.lock_for(Some(timeout))
    }

    // The shared body, and `WaitQueue::wait` in it, are inlined into the entry
    // points: a cancel unwinds ~0.4 µs per frame (`sync.cancel_blocked_ns`).
    #[inline(always)]
    fn lock_for(&self, timeout: Option<VirtTime>) -> Result<MutexGuard<'_, T>, TimedOut> {
        let ctx = enter_blocking_op();
        let (st, me) = (&*self.inner, current_or_sentinel());
        if let Some(owner) = st.owner.get() {
            let evict = Evict::Queue(st.queue.clone());
            let holder = || Holders::One(owner);
            st.queue
                .wait(ctx, BlockReason::Mutex, timeout, evict, holder)?;
            // Direct handoff: the unlocker made us the owner.
            debug_assert_eq!(st.owner.get(), Some(me));
        } else {
            st.owner.set(Some(me));
        }
        Ok(MutexGuard { mutex: self })
    }

    /// Attempts the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        charge_sync_op();
        let st = &*self.inner;
        if st.owner.get().is_none() {
            st.owner.set(Some(current_or_sentinel()));
            Some(MutexGuard { mutex: self })
        } else {
            None
        }
    }

    /// Whether the mutex is currently held.
    pub fn is_locked(&self) -> bool {
        self.inner.owner.get().is_some()
    }

    /// Consumes the mutex, returning the protected value (fails if other
    /// handles still share it).
    pub fn into_inner(self) -> Result<T, Mutex<T>> {
        assert!(!self.is_locked(), "into_inner on a locked mutex");
        match Rc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.value.into_inner()),
            Err(inner) => Err(Mutex { inner }),
        }
    }

    /// What a release admits: the next waiter, as the new owner (direct
    /// handoff: the resumed waiter can assert it).
    fn unlock(&self) {
        charge_sync_op();
        let ctx = par_ctx();
        let mut inner = ctx.as_ref().and_then(|rc| rc.try_borrow_mut().ok());
        let st = &*self.inner;
        st.owner
            .set(st.queue.grant_one(inner.as_deref_mut(), BlockReason::Mutex));
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard witnesses exclusive logical ownership.
        unsafe { &*self.mutex.inner.value.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.mutex.inner.value.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.unlock();
    }
}

/// A condition variable; pairs with [`Mutex`] as `pthread_cond_t` pairs with
/// `pthread_mutex_t`.
#[derive(Clone, Default)]
pub struct Condvar {
    queue: Rc<WaitQueue>,
}

impl Condvar {
    /// New condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically releases `guard` and blocks until notified; re-acquires
    /// the mutex before returning.
    ///
    /// There is no naked-notify window: the waiter is queued *before* the
    /// mutex is released, and the engine runs no other thread in between
    /// (the preemption hooks on the unlock path refuse to yield a thread
    /// already `Blocked`). A notifier either sees the waiter or runs
    /// strictly before the wait began.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_for(guard, None).0
    }

    /// Blocks until `cond(&mut value)` is false, re-checking after every
    /// wakeup (`pthread_cond_wait` in its canonical while-loop idiom).
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut cond: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while cond(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Like [`Condvar::wait`], but gives up after `timeout` of virtual
    /// time. The mutex is re-acquired either way; `Err(TimedOut)` tells the
    /// caller the deadline passed without a delivered notify.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: VirtTime,
    ) -> (MutexGuard<'a, T>, Result<(), TimedOut>) {
        let (guard, timed_out) = self.wait_for(guard, Some(timeout));
        (guard, if timed_out { Err(TimedOut) } else { Ok(()) })
    }

    /// Returns the re-acquired guard and whether a deadline ended the wait.
    fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Option<VirtTime>,
    ) -> (MutexGuard<'a, T>, bool) {
        let rc = par_ctx().expect("Condvar::wait requires a runtime");
        // Cancellation point on entry (the unwind drops `guard`). A cancel
        // delivered *during* the wait unwinds without re-acquiring the
        // mutex — see the crate::cancel module docs.
        deliver_cancel(&rc);
        let mutex = guard.mutex;
        {
            let mut inner = rc.borrow_mut();
            // Chaos fault: occasionally arm a short artificial deadline so
            // an untimed wait returns *spuriously* (POSIX sanctions it; the
            // `wait_while` idiom tolerates it). Confined to condvars: every
            // other primitive's resume protocol asserts a real handoff.
            let deadline = timeout.or_else(|| {
                let chaos = inner.schedule.chaos()?;
                chaos
                    .chance(1, 8)
                    .then(|| VirtTime::from_ns(500 + chaos.below(1_500)))
            });
            let evict = Evict::Queue(self.queue.clone());
            self.queue
                .park(&mut inner, BlockReason::Condvar, deadline, evict);
        }
        drop(guard); // releases the mutex (may hand it to a lock waiter)
        suspend_current(&rc, YieldReason::Blocked);
        unwind_if_cancel_woken(&rc);
        // A spurious wake is a fired deadline too: consume the flag always.
        let timed_out = rc.borrow_mut().consume_timeout();
        if timed_out && timeout.is_some() {
            // An expiry is itself a cancellation point: a request that
            // raced the deadline and lost delivers before the re-acquire.
            deliver_cancel(&rc);
        }
        (mutex.lock(), timed_out)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        charge_sync_op();
        let Some(rc) = par_ctx() else {
            return assert!(self.queue.is_empty(), "notify requires a runtime");
        };
        let mut inner = rc.borrow_mut();
        let woken = self.queue.grant_one(Some(&mut inner), BlockReason::Condvar);
        if woken.is_none() {
            // A notify nobody heard is a record too: the checker tells a
            // lost notify from a naked one by it.
            let obj = self.queue.id(&mut inner);
            inner.note_sync(BlockReason::Condvar, obj, 0, 0);
        }
    }

    /// Wakes all waiters (delivery order is shuffled under schedule
    /// perturbation — simultaneous wakes have no defined order).
    pub fn notify_all(&self) {
        charge_sync_op();
        let Some(rc) = par_ctx() else {
            return assert!(self.queue.is_empty(), "notify requires a runtime");
        };
        self.queue
            .grant_all(&mut rc.borrow_mut(), BlockReason::Condvar);
    }

    /// Number of threads currently waiting.
    pub fn waiter_count(&self) -> usize {
        self.queue.len()
    }
}

/// A counting semaphore (POSIX `sem_t`), used by the paper's Figure 3
/// two-thread synchronization microbenchmark.
#[derive(Clone)]
pub struct Semaphore {
    permits: Rc<Cell<i64>>,
    queue: Rc<WaitQueue>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: i64) -> Self {
        Semaphore {
            permits: Rc::new(Cell::new(permits)),
            queue: Rc::default(),
        }
    }

    /// P / `sem_wait`: takes a permit, blocking while none are available.
    pub fn acquire(&self) {
        untimed(self.acquire_for(None))
    }

    /// Timed P: takes a permit, giving up with [`crate::TimedOut`] if none
    /// arrived within `timeout` of virtual time.
    pub fn acquire_timeout(&self, timeout: VirtTime) -> Result<(), TimedOut> {
        self.acquire_for(Some(timeout))
    }

    #[inline(always)]
    fn acquire_for(&self, timeout: Option<VirtTime>) -> Result<(), TimedOut> {
        let ctx = enter_blocking_op();
        if self.try_take() {
            return Ok(());
        }
        // Direct handoff: a grant means the releaser consumed the permit
        // for us.
        let evict = Evict::Queue(self.queue.clone());
        let reason = BlockReason::Semaphore;
        self.queue
            .wait(ctx, reason, timeout, evict, Holders::default)
    }

    fn try_take(&self) -> bool {
        let free = self.permits.get() > 0;
        self.permits.set(self.permits.get() - i64::from(free));
        free
    }

    /// Non-blocking P: takes a permit if one is available.
    pub fn try_acquire(&self) -> bool {
        charge_sync_op();
        self.try_take()
    }

    /// V / `sem_post`: returns a permit, waking the longest-blocked waiter
    /// (FIFO) if one may now proceed. While the permit count is negative —
    /// a "debt" from constructing the semaphore with a negative initial
    /// value — releases pay the debt down toward zero *before* any waiter
    /// is woken.
    pub fn release(&self) {
        charge_sync_op();
        if self.permits.get() < 0 {
            self.permits.set(self.permits.get() + 1);
            return;
        }
        let ctx = par_ctx();
        let mut inner = ctx.as_ref().and_then(|rc| rc.try_borrow_mut().ok());
        // Direct handoff: the permit is consumed on the grantee's behalf,
        // never parked in `permits` for a `try_acquire` to steal.
        let granted = self
            .queue
            .grant_one(inner.as_deref_mut(), BlockReason::Semaphore);
        if granted.is_none() {
            self.permits.set(self.permits.get() + 1);
        }
    }

    /// Current permit count.
    pub fn permits(&self) -> i64 {
        self.permits.get()
    }
}

/// A reusable barrier for `n` threads (the coarse-grained SPMD benchmarks
/// synchronize phases with one of these, as in SPLASH-2).
#[derive(Clone)]
pub struct Barrier {
    n: usize,
    /// Arrivals of the open round, and rounds completed. The leader closes
    /// the round *before* it wakes anyone: back-to-back reuse always joins
    /// a fresh round, and a resumed waiter can assert its own round closed.
    round: Rc<Cell<(usize, u64)>>,
    queue: Rc<WaitQueue>,
}

impl Barrier {
    /// Creates a barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        Barrier {
            n,
            round: Rc::default(),
            queue: Rc::default(),
        }
    }

    /// Blocks until all `n` participants arrive. Returns `true` on the
    /// leader (last arriver). Not a cancellation point (POSIX parity): a
    /// request latched on a waiter delivers after the barrier releases it.
    pub fn wait(&self) -> bool {
        charge_sync_op();
        if self.n == 1 {
            return true;
        }
        let rc = par_ctx().expect("Barrier::wait with n > 1 requires a runtime");
        let (arrived, generation) = self.round.get();
        let leader = arrived + 1 == self.n;
        if leader {
            // A woken thread re-entering `wait` starts the next round against
            // reset state even while this round's wakes are being delivered.
            self.round.set((0, generation.wrapping_add(1)));
            self.queue
                .grant_all(&mut rc.borrow_mut(), BlockReason::Barrier);
        } else {
            self.round.set((arrived + 1, generation));
            let mut eng = rc.borrow_mut();
            self.queue
                .park(&mut eng, BlockReason::Barrier, None, Evict::Never);
            drop(eng);
            suspend_current(&rc, YieldReason::Blocked);
            // The leader takes the whole queue while closing the round: a
            // same-round resume would be a stale wake from a previous
            // round's delivery leaking across reuse.
            assert_ne!(
                self.round.get().1,
                generation,
                "barrier waiter resumed with its own round still open"
            );
        }
        leader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_trace, Violation};
    use crate::{run, scope, spawn, Config, SchedKind};

    #[test]
    fn wait_while_loops_until_condition_clears() {
        let (seen, _) = run(Config::new(2, SchedKind::Df), || {
            let q = Mutex::new(0u32);
            let cv = Condvar::new();
            let (q2, cv2) = (q.clone(), cv.clone());
            let producer = spawn(move || {
                for _ in 0..5 {
                    crate::work(10_000);
                    *q2.lock() += 1;
                    cv2.notify_one(); // wakes even when below threshold
                }
            });
            let g = cv.wait_while(q.lock(), |v| *v < 5);
            let seen = *g;
            drop(g);
            producer.join();
            seen
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn try_acquire_counts_permits() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn mutex_into_inner_roundtrip() {
        let m = Mutex::new(vec![1, 2, 3]);
        let m2 = m.clone();
        // Shared: must fail and give the handle back.
        let m = m.into_inner().unwrap_err();
        drop(m2);
        assert_eq!(m.into_inner().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn semaphore_negative_permits_require_extra_releases() {
        // Regression: release() used to hand the permit to any queued
        // waiter even while the count was negative, making `new(-2)`
        // behave like `new(0)` — the waiter must only run after the debt
        // is paid *and* one real permit arrives (3 releases for -2).
        let (order, _) = run(Config::new(2, SchedKind::Fifo), || {
            let s = Semaphore::new(-2);
            let log = Mutex::new(Vec::<&'static str>::new());
            let (s2, log2) = (s.clone(), log.clone());
            let h = spawn(move || {
                s2.acquire();
                log2.lock().push("acquired");
            });
            while s.queue.is_empty() {
                crate::yield_now();
            }
            for _ in 0..3 {
                log.lock().push("release");
                s.release();
            }
            h.join();
            assert_eq!(s.permits(), 0, "handoff consumed the permit directly");
            let v = log.lock().clone();
            v
        });
        assert_eq!(order, ["release", "release", "release", "acquired"]);
    }

    #[test]
    fn semaphore_negative_permits_nonblocking_accounting() {
        let s = Semaphore::new(-1);
        assert!(!s.try_acquire(), "in debt: nothing to take");
        s.release();
        assert_eq!(s.permits(), 0);
        assert!(!s.try_acquire(), "debt paid but no permit yet");
        s.release();
        assert_eq!(s.permits(), 1);
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
    }

    #[test]
    fn semaphore_wakes_waiters_in_fifo_order() {
        // p=1 FIFO makes the blocking order deterministic (spawn order);
        // releases must then admit waiters strictly first-come-first-served.
        let (order, _) = run(Config::new(1, SchedKind::Fifo), || {
            let s = Semaphore::new(0);
            let log = Mutex::new(Vec::new());
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let (s2, log2) = (s.clone(), log.clone());
                    spawn(move || {
                        s2.acquire();
                        log2.lock().push(i);
                    })
                })
                .collect();
            while s.queue.len() < 3 {
                crate::yield_now();
            }
            for _ in 0..3 {
                s.release();
            }
            for h in handles {
                h.join();
            }
            let v = log.lock().clone();
            v
        });
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn no_naked_notify_window_under_perturbation() {
        // Satellite audit of Condvar::notify_one vs a racing wait: the
        // waiter enqueues itself *before* releasing the mutex and the
        // engine's yield hooks refuse to preempt a thread that is already
        // Blocked, so no schedule can slip a notify between the predicate
        // check and the block. Fuzz the claim across perturbed schedules
        // and prove every trace causally clean.
        for kind in [SchedKind::Fifo, SchedKind::Ws] {
            for seed in 0..16u64 {
                let cfg = Config::new(4, kind).with_trace().with_perturbation(seed);
                let (_, report) = run(cfg, || {
                    let m = Mutex::new(0u32);
                    let cv = Condvar::new();
                    scope(|s| {
                        for _ in 0..4 {
                            let (m, cv) = (m.clone(), cv.clone());
                            s.spawn(move || {
                                let mut g = m.lock();
                                *g += 1;
                                cv.notify_one(); // often naked: nobody waits yet
                                g = cv.wait_while(g, |v| *v < 4);
                                drop(g);
                                cv.notify_one(); // unblock the next waiter
                            });
                        }
                    });
                    assert_eq!(*m.lock(), 4);
                });
                let check = check_trace(&report.trace.unwrap());
                assert!(
                    check.is_clean(),
                    "{kind:?} seed {seed}: {:?}",
                    check.violations
                );
            }
        }
    }

    #[test]
    fn barrier_immediate_reuse_under_perturbation() {
        // Back-to-back rounds with zero work between them: a woken thread
        // re-enters `wait` while the previous round's wakes are still
        // being delivered (in shuffled order under perturbation). The
        // generation assert inside `wait` catches stale-round wakes; the
        // checker proves block/wake pairing for every round.
        for seed in 0..16u64 {
            let cfg = Config::new(4, SchedKind::Ws)
                .with_trace()
                .with_perturbation(seed);
            let (_, report) = run(cfg, || {
                let b = Barrier::new(4);
                let hits = Mutex::new(vec![0u32; 8]);
                scope(|s| {
                    for _ in 0..4 {
                        let (b, hits) = (b.clone(), hits.clone());
                        s.spawn(move || {
                            for round in 0..8 {
                                b.wait();
                                hits.lock()[round] += 1;
                            }
                        });
                    }
                });
                let v = hits.lock().clone();
                assert_eq!(v, vec![4; 8], "every round must see all 4 threads");
            });
            let check = check_trace(&report.trace.unwrap());
            assert!(check.is_clean(), "seed {seed}: {:?}", check.violations);
        }
    }

    /// Raw wake, behind the queue's back (every production wake is the
    /// queue's own).
    fn wake(t: ThreadId) {
        let rc = par_ctx().expect("runtime");
        let mut inner = rc.borrow_mut();
        let (_, p) = inner.cur.expect("inside a thread");
        inner.make_ready(t, p);
    }

    #[test]
    fn checker_catches_a_dropped_notify() {
        // Acceptance: an intentionally lossy condvar — records the Notify
        // a real notify_one would have published, then drops the wake on
        // the floor — must be flagged by the checker. (A rescue wake lets
        // the run terminate; the lie is already in the trace.)
        let (_, report) = run(Config::new(2, SchedKind::Fifo).with_trace(), || {
            let m = Mutex::new(());
            let cv = Condvar::new();
            let (m2, cv2) = (m.clone(), cv.clone());
            let h = spawn(move || {
                let g = m2.lock();
                let _g = cv2.wait(g);
            });
            while cv.waiter_count() == 0 {
                crate::yield_now();
            }
            let w = cv.queue.lose_front().expect("one waiter");
            {
                let rc = par_ctx().expect("runtime");
                let mut inner = rc.borrow_mut();
                let obj = cv.queue.id(&mut inner);
                inner.note_sync(crate::trace::BlockReason::Condvar, obj, 1, 0);
            }
            wake(w);
            h.join();
        });
        let check = check_trace(&report.trace.unwrap());
        assert!(
            check
                .violations
                .iter()
                .any(|v| matches!(v, Violation::LostNotify { waiters: 1, .. })),
            "lossy notify must be flagged, got {:?}",
            check.violations
        );
    }

    #[test]
    fn wait_while_under_contention() {
        let (total, _) = run(Config::new(4, SchedKind::Ws), || {
            let slots = Mutex::new(3i32);
            let cv = Condvar::new();
            let done = Mutex::new(0u32);
            scope(|s| {
                for _ in 0..12 {
                    let (slots, cv, done) = (slots.clone(), cv.clone(), done.clone());
                    s.spawn(move || {
                        // Acquire one of 3 slots, work, release.
                        let mut g = cv.wait_while(slots.lock(), |v| *v == 0);
                        *g -= 1;
                        drop(g);
                        crate::work(5_000);
                        *slots.lock() += 1;
                        cv.notify_one();
                        *done.lock() += 1;
                    });
                }
            });
            let v = *done.lock();
            v
        });
        assert_eq!(total, 12);
    }
}
