//! The wait queue: the one place a thread is parked on, granted from, or
//! evicted from a sync object.
//!
//! Every blocking primitive is a small policy over this module: it keeps
//! its admission state (an owner, a permit count, a reader set, a round
//! counter) and says what a release admits. The queue does the rest —
//! [`WaitQueue::park`], [`WaitQueue::grant_one`] / [`WaitQueue::grant_batch`]
//! and [`evict`] — and holds three invariants, which close the stale-slot
//! bug class (a grant handed to a waiter that had already given up) by
//! construction rather than by a check at every grant:
//!
//! 1. **A slot leaves its queue only at a wake site.** A grant pops the
//!    slots it wakes; an eviction removes the slot of the thread it wakes.
//! 2. **A grant's candidates are exactly the queue.** Every queued thread
//!    is blocked on this object (`debug_assert`ed at each grant), so the
//!    decision points see the same `n` whatever raced before.
//! 3. **An eviction re-runs the primitive's own admission function.** What
//!    a withdrawn slot unblocks (readers behind a timed-out writer) is
//!    decided by the code that decides it on a release.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ptdf_smp::VirtTime;

use crate::cancel::{deliver_cancel, unwind_if_cancel_woken};
use crate::runtime::{suspend_current, Inner};
use crate::sentinel::{DeadlockError, TimedOut};
use crate::thread::{ThreadId, Wait, YieldReason};
use crate::trace::BlockReason;

/// Who holds a contended object, as the deadlock sentinel sees it: the
/// successors of every thread blocked on the object. A single holder —
/// every mutex, every write-held rwlock — is inline.
#[derive(Debug, Default)]
pub(crate) enum Holders {
    /// Nobody the sentinel should follow (also: retire the entry).
    #[default]
    None,
    One(ThreadId),
    Many(Vec<ThreadId>),
}

impl Holders {
    pub fn as_slice(&self) -> &[ThreadId] {
        match self {
            Holders::None => &[],
            Holders::One(t) => std::slice::from_ref(t),
            Holders::Many(ts) => ts,
        }
    }
}

/// Whether a wait for `reason` is a wait on an *owner*. Only those have a
/// "who must act" edge for the sentinel to follow and a grant to move;
/// condvar, semaphore and barrier waits can be satisfied by anyone.
pub(crate) fn owned(reason: BlockReason) -> bool {
    use BlockReason::{Mutex, RwRead, RwWrite};
    matches!(reason, Mutex | RwRead | RwWrite)
}

/// How to take a parked thread out of its wait when a deadline or a cancel
/// wakes it: plain data on the TCB, run by [`evict`], dropped by a grant.
pub(crate) enum Evict {
    /// Withdraw the slot; the queue's primitive has nothing to re-admit.
    Queue(Rc<WaitQueue>),
    /// Withdraw the slot and re-run the rwlock's admission.
    RwAdmission(Rc<crate::rwlock::RwState>),
    /// Withdraw the registration as this thread's joiner.
    Joiner(ThreadId),
    /// A barrier wait: no deadline, and not a cancellation point.
    Never,
}

/// The threads blocked on one sync object, in arrival order, each with the
/// [`BlockReason`] it parked for, and the object's per-run trace id.
#[derive(Default)]
pub(crate) struct WaitQueue {
    /// Assigned at the object's first engine interaction, so ids are dense
    /// and engine-order deterministic.
    id: Cell<Option<u32>>,
    slots: RefCell<VecDeque<(ThreadId, BlockReason)>>,
}

impl WaitQueue {
    pub fn len(&self) -> usize {
        self.slots.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.borrow().is_empty()
    }

    /// The slot a FIFO grant would take.
    pub fn front(&self) -> Option<(ThreadId, BlockReason)> {
        self.slots.borrow().front().copied()
    }

    /// Whether any thread is parked here for `reason`.
    pub fn holds(&self, reason: BlockReason) -> bool {
        self.slots.borrow().iter().any(|&(_, r)| r == reason)
    }

    /// Visits the threads at the front of the queue that parked for
    /// `reason`, up to the first that did not; returns how many.
    pub fn front_run(&self, reason: BlockReason, mut each: impl FnMut(ThreadId)) -> usize {
        let slots = self.slots.borrow();
        let run = slots.iter().take_while(|&&(_, r)| r == reason);
        run.map(|&(t, _)| each(t)).count()
    }

    /// The object's per-run id.
    pub fn id(&self, eng: &mut Inner) -> u32 {
        eng.sync_id_for(&self.id)
    }

    /// Blocks the current thread here for `reason` until a grant, its
    /// `timeout` or a cancellation ends the wait ([`WaitQueue::park`], then
    /// [`parked`]). An *untimed* wait on an owned object first passes the
    /// deadlock sentinel (a timed one cannot sustain a cycle): the live
    /// `holders` are published and the waits-for graph walked *before* the
    /// thread is enqueued, so a closed cycle — the recursive self-lock
    /// included — leaves every queue untouched and unwinds the caller with
    /// a [`DeadlockError`], releasing its guards so its cycle peers proceed.
    /// Outside a runtime (no `ctx`) nobody can release: a timed wait times
    /// out at once, an untimed one would wait forever.
    #[inline(always)]
    pub fn wait(
        &self,
        ctx: Option<Rc<RefCell<Inner>>>,
        reason: BlockReason,
        timeout: Option<VirtTime>,
        evict: Evict,
        holders: impl FnOnce() -> Holders,
    ) -> Result<(), TimedOut> {
        let Some(rc) = ctx else {
            assert!(
                timeout.is_some(),
                "{reason:?} wait outside a runtime would deadlock"
            );
            return Err(TimedOut);
        };
        let mut eng = rc.borrow_mut();
        if timeout.is_none() && owned(reason) {
            let obj = self.id(&mut eng);
            eng.sentinel.note_holders(obj, holders());
            if let Some(info) = eng.probe_deadlock(Some(obj), None) {
                if self.is_empty() {
                    eng.sentinel.note_holders(obj, Holders::None);
                }
                drop(eng);
                std::panic::panic_any(DeadlockError { info });
            }
        }
        self.park(&mut eng, reason, timeout, evict);
        drop(eng);
        parked(&rc, timeout.is_some())
    }

    /// Parks the current thread here for `reason`: enqueues it, blocks it
    /// and arms `timeout` if there is one ([`Inner::park`]). `evict` says
    /// how a deadline or a cancel takes the slot back out. To be followed
    /// by a `Blocked` suspend ([`parked`]).
    pub fn park(
        &self,
        eng: &mut Inner,
        reason: BlockReason,
        timeout: Option<VirtTime>,
        evict: Evict,
    ) {
        let obj = self.id(eng);
        let (me, _) = eng.cur.expect("block outside a thread");
        self.slots.borrow_mut().push_back((me, reason));
        let wait = Wait {
            reason,
            obj: Some(obj),
            target: None,
        };
        eng.park(wait, timeout, evict);
    }

    /// Grants to one waiter: the oracle's pick among the whole queue (FIFO
    /// naturally; a decision only when two or more wait). Returns the
    /// grantee, already woken; a mutex grantee becomes the object's holder.
    /// With no engine (outside a runtime, or a guard dropped while it is
    /// borrowed during stall teardown) the front slot goes, nobody is woken.
    pub fn grant_one(&self, eng: Option<&mut Inner>, reason: BlockReason) -> Option<ThreadId> {
        let Some(eng) = eng else {
            return self.slots.borrow_mut().pop_front().map(|(t, _)| t);
        };
        let obj = self.id(eng);
        let n = self.len();
        if n == 0 {
            return None;
        }
        debug_assert!(
            self.slots
                .borrow()
                .iter()
                .all(|&(t, _)| eng.blocked_on(t, obj)),
            "a stale slot in the queue of sync object {obj}"
        );
        let i = eng.grant_pick(obj, n);
        let (w, _) = self
            .slots
            .borrow_mut()
            .remove(i)
            .expect("picked inside the queue");
        // Lenient on context: a stall-teardown destructor releases with no
        // current thread; the slot goes, nobody is woken.
        if let Some((_, p)) = eng.cur {
            eng.note_sync(reason, obj, n as u64, 1);
            if owned(reason) {
                self.publish_holders(eng, || Holders::One(w));
            }
            eng.make_ready(w, p);
        }
        Some(w)
    }

    /// Grants to the first `k` waiters at once (a barrier round, a
    /// `notify_all`, an rwlock's admitted batch), in an order that is a
    /// schedule decision: shuffled under perturbation, scripted under the
    /// oracle. `holders`: who holds an owned object once they are in.
    pub fn grant_batch(
        &self,
        eng: Option<&mut Inner>,
        reason: BlockReason,
        k: usize,
        holders: impl FnOnce() -> Holders,
    ) {
        let mut slots = self.slots.borrow_mut();
        let (waiters, drained) = (slots.len() as u64, slots.len() == k);
        // Lenient like `grant_one`: the slots go, nobody is woken.
        if let Some((eng, (_, p))) = eng.and_then(|e| e.cur.map(|cur| (e, cur))) {
            let obj = self.id(eng);
            let batch = &mut slots.make_contiguous()[..k];
            debug_assert!(batch.iter().all(|&(t, _)| eng.blocked_on(t, obj)));
            eng.wake_order(obj, batch);
            eng.note_sync(reason, obj, waiters, k as u64);
            if owned(reason) {
                let holders = if drained { Holders::None } else { holders() };
                eng.sentinel.note_holders(obj, holders);
            }
            for &(w, _) in batch.iter() {
                eng.make_ready(w, p);
            }
        }
        slots.drain(..k);
    }

    /// [`WaitQueue::grant_batch`] to everyone queued, on an unowned object.
    pub fn grant_all(&self, eng: &mut Inner, reason: BlockReason) {
        self.grant_batch(Some(eng), reason, self.len(), Holders::default);
    }

    /// Moves the sentinel's holder edge: `holders()` while threads wait
    /// here, retired once the queue has drained.
    pub fn publish_holders(&self, eng: &mut Inner, holders: impl FnOnce() -> Holders) {
        let obj = self.id(eng);
        if self.is_empty() {
            eng.sentinel.note_holders(obj, Holders::None);
        } else {
            eng.sentinel.note_holders(obj, holders());
        }
    }

    /// Test-only sabotage: takes the front slot *without* waking its
    /// thread, which no production path can do.
    #[cfg(test)]
    pub fn lose_front(&self) -> Option<ThreadId> {
        self.slots.borrow_mut().pop_front().map(|(t, _)| t)
    }
}

/// The second half of a park: suspends the current thread until a grant, its
/// deadline or a cancel wakes it. A cancel unwinds from here, without the
/// resource; an expired `timed` wait is itself a cancellation point — a
/// request that raced the deadline and lost delivers before [`TimedOut`].
#[inline]
pub(crate) fn parked(rc: &Rc<RefCell<Inner>>, timed: bool) -> Result<(), TimedOut> {
    suspend_current(rc, YieldReason::Blocked);
    unwind_if_cancel_woken(rc);
    if timed && rc.borrow_mut().consume_timeout() {
        deliver_cancel(rc);
        return Err(TimedOut);
    }
    Ok(())
}

/// What an untimed wait returns: it has no deadline to miss.
pub(crate) fn untimed<T>(wait: Result<T, TimedOut>) -> T {
    wait.unwrap_or_else(|TimedOut| unreachable!("an untimed wait has no deadline"))
}

/// Takes `t`, just woken by its deadline or a cancel, out of the wait it
/// parked in — invariant 1's other half. Called by [`Inner::evict_wake`]
/// with `cur` pointed at `t`: its withdrawal is what admits whoever it
/// unblocks, so their `Notify`/`Wake` records name it as the waker.
pub(crate) fn evict(eng: &mut Inner, t: ThreadId, record: Evict) {
    let withdraw = |q: &WaitQueue| q.slots.borrow_mut().retain(|&(w, _)| w != t);
    match record {
        Evict::Queue(q) => {
            withdraw(&q);
            if q.is_empty() {
                q.publish_holders(eng, Holders::default);
            }
        }
        // A writer that gives up admits the readers held back only by
        // writer preference; a front reader, the writer behind it.
        Evict::RwAdmission(st) => {
            withdraw(&st.queue);
            crate::rwlock::admit(&st, Some(eng));
        }
        // The target may have exited meanwhile and taken the registration;
        // the next join attempt observes the exit.
        Evict::Never => unreachable!("a barrier wait is never evicted"),
        Evict::Joiner(target) => {
            if let Some(tcb) = eng.threads.get_mut(target) {
                if tcb.joiner == Some(t) {
                    tcb.joiner = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The stale slot, built by hand: what `Config::lazy_timeout_eviction`
    //! used to switch back on, as three direct tests of invariant 1.

    use super::*;
    use crate::api::par_ctx;
    use crate::trace::EventKind;
    use crate::{run, spawn, work, yield_now, Config, JoinError, RwLock, SchedKind};

    /// Parks the calling thread on `q` like a semaphore waiter would.
    fn park_on(q: &Rc<WaitQueue>, timeout: Option<VirtTime>) -> Result<(), TimedOut> {
        let rc = par_ctx().expect("inside a run");
        let evict = Evict::Queue(q.clone());
        q.park(&mut rc.borrow_mut(), BlockReason::Semaphore, timeout, evict);
        parked(&rc, timeout.is_some())
    }

    fn grant(q: &WaitQueue) -> Option<ThreadId> {
        let rc = par_ctx().expect("inside a run");
        let mut eng = rc.borrow_mut();
        q.grant_one(Some(&mut eng), BlockReason::Semaphore)
    }

    /// A (first in the queue) leaves by `leave`; the grant that follows must
    /// reach B, and the queue must be empty after it.
    fn the_next_grant_reaches_b(timeout: Option<VirtTime>, leave: fn(&crate::JoinHandle<bool>)) {
        run(Config::new(1, SchedKind::Fifo), move || {
            let q = Rc::<WaitQueue>::default();
            let (qa, qb) = (q.clone(), q.clone());
            let a = spawn(move || park_on(&qa, timeout).is_ok());
            let b = spawn(move || park_on(&qb, None).is_ok());
            while q.len() < 2 {
                yield_now();
            }
            assert_eq!(q.front().map(|(t, _)| t), Some(a.id()));
            leave(&a);
            assert_eq!(q.len(), 1, "A's slot left the queue with its wake");
            assert_eq!(grant(&q), Some(b.id()), "the grant reaches B");
            assert!(q.is_empty());
            assert!(b.join(), "B was granted");
            match a.try_join() {
                Ok(granted) => assert!(!granted, "A timed out"),
                Err(e) => assert!(matches!(e, JoinError::Canceled(_)), "{e}"),
            }
        });
    }

    #[test]
    fn a_fired_deadline_takes_the_slot_with_it() {
        the_next_grant_reaches_b(Some(VirtTime::from_us(50)), |_| {
            work(20_000); // well past A's deadline
            yield_now(); // an engine round fires it
        });
    }

    #[test]
    fn a_cancel_takes_the_slot_with_it() {
        the_next_grant_reaches_b(None, |a| assert!(a.cancel()));
    }

    #[test]
    fn a_timed_out_writer_admits_the_readers_behind_it_itself() {
        let ((writer, readers), report) = run(Config::new(1, SchedKind::Fifo).with_trace(), || {
            let l = RwLock::new(0u32);
            let held = l.read(); // keeps the writer out for the whole test
            let lw = l.clone();
            let w = spawn(move || lw.write_timeout(VirtTime::from_us(50)).is_err());
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let l = l.clone();
                    spawn(move || *l.read())
                })
                .collect();
            // Both readers park behind the queued writer (writer
            // preference) although a reader holds the lock.
            while l.queued() < 3 {
                yield_now();
            }
            let ids = (w.id(), [readers[0].id(), readers[1].id()]);
            assert!(w.join(), "the writer timed out");
            assert_eq!(l.queued(), 0, "its eviction emptied the queue");
            // Still under `held`: only the eviction can have admitted them.
            for r in readers {
                assert_eq!(r.join(), 0);
            }
            drop(held);
            assert!(l.try_write().is_some(), "nothing left queued or held");
            ids
        });
        let trace = report.trace.expect("traced");
        assert!(crate::check_trace(&trace).is_clean());
        for r in readers {
            let wakers: Vec<_> = trace
                .events
                .iter()
                .filter(|e| e.thread == Some(r.0))
                .filter_map(|e| match e.kind {
                    EventKind::Wake { waker } => waker,
                    _ => None,
                })
                .collect();
            assert_eq!(
                wakers,
                [writer.0],
                "{r}'s one wake names the timed-out writer"
            );
        }
    }
}
