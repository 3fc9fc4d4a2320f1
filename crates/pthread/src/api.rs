//! Application-facing API: spawning, joining, scoped forks, work/locality
//! charging. These free functions dispatch on the active execution context:
//!
//! * inside [`crate::run`] — full runtime semantics (real threads on the
//!   virtual SMP);
//! * inside [`crate::run_serial`] — `spawn` runs its closure inline (a
//!   function call, exactly the paper's serial version) and charges are
//!   accounted on the single serial processor;
//! * outside any run — everything is a plain call with no accounting, so
//!   application code remains unit-testable in isolation.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

use crate::config::Attr;
use crate::runtime::{
    make_fiber, make_fiber_erased, suspend_current, with_active, ActiveCtx, Inner,
};
use crate::thread::{JoinHandle, Kind, Slot, ThreadId, YieldReason};

pub(crate) fn par_ctx() -> Option<Rc<RefCell<Inner>>> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        _ => None,
    })
}

/// Forks a new thread with default attributes (the Pthreads `fork` of the
/// paper's programs). Under preempt-on-fork policies (DF, WS) the caller is
/// preempted and the child starts immediately, per the space-efficient
/// scheduling rule.
pub fn spawn<T: 'static>(f: impl FnOnce() -> T + 'static) -> JoinHandle<T> {
    spawn_attr(Attr::default(), f)
}

/// Forks a new thread with explicit attributes.
pub fn spawn_attr<T: 'static>(attr: Attr, f: impl FnOnce() -> T + 'static) -> JoinHandle<T> {
    let slot: Slot<T> = Rc::new(RefCell::new(None));
    match par_ctx() {
        Some(rc) => {
            let (child, preempt, run) = {
                let mut inner = rc.borrow_mut();
                let (cur, p) = inner.cur.expect("spawn called outside a thread");
                let stack = inner.acquire_fiber_stack();
                let fiber = make_fiber(stack, slot.clone(), f);
                let (child, preempt) =
                    inner.create_thread(Some(cur), p, attr, Some(fiber), Kind::User);
                (child, preempt, inner.run_token)
            };
            if preempt {
                suspend_current(&rc, YieldReason::Forked { child });
            }
            JoinHandle { id: child, slot, run: Some(run) }
        }
        None => {
            // Serial or standalone: a fork is a function call.
            *slot.borrow_mut() = Some(f());
            JoinHandle {
                id: ThreadId(u32::MAX),
                slot,
                run: None,
            }
        }
    }
}

/// Thread creation failed: the allocation ledger's failure injector denied
/// the child's stack allocation (see [`crate::Config::with_alloc_failures`]).
/// The modelled analogue of `pthread_create` returning `EAGAIN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnError {
    /// Stack bytes whose allocation was denied.
    pub stack_bytes: u64,
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spawn failed: stack allocation of {} bytes denied",
            self.stack_bytes
        )
    }
}

impl std::error::Error for SpawnError {}

/// Fallible fork: like [`spawn`], but when allocation-failure injection is
/// armed a denied stack allocation surfaces as `Err(SpawnError)` instead of
/// aborting — callers exercise their out-of-memory degradation paths.
pub fn try_spawn<T: 'static>(f: impl FnOnce() -> T + 'static) -> Result<JoinHandle<T>, SpawnError> {
    try_spawn_attr(Attr::default(), f)
}

/// Fallible fork with explicit attributes; see [`try_spawn`].
pub fn try_spawn_attr<T: 'static>(
    attr: Attr,
    f: impl FnOnce() -> T + 'static,
) -> Result<JoinHandle<T>, SpawnError> {
    if let Some(rc) = par_ctx() {
        let mut inner = rc.borrow_mut();
        if inner.ledger.as_mut().is_some_and(|l| l.should_fail()) {
            let stack_bytes = attr.stack_size.unwrap_or(inner.default_stack);
            return Err(SpawnError { stack_bytes });
        }
    }
    Ok(spawn_attr(attr, f))
}

/// Voluntarily yields the processor (re-queued as ready).
///
/// A cancellation point on both edges: a latched cancel request delivers
/// before the processor is given up, and a request that arrived while the
/// thread sat on the ready queue delivers on resume (a ready thread is
/// never woken by a cancel `evict_wake`, so the resume edge is plain latched
/// delivery).
pub fn yield_now() {
    if let Some(rc) = par_ctx() {
        crate::runtime::deliver_cancel(&rc);
        suspend_current(&rc, YieldReason::Yielded);
        crate::runtime::deliver_cancel(&rc);
    }
}

/// Charges `cycles` cycles of application compute to the current virtual
/// processor. This is how benchmark kernels report their work to the
/// virtual-time model (see DESIGN.md: the code *also* really executes; the
/// charge is the modelled duration on the 167 MHz reference machine).
pub fn work(cycles: u64) {
    let after = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let mut inner = rc.borrow_mut();
            let (tid, p) = inner.cur.expect("work outside a thread");
            if inner.hot_path {
                // Hot path: defer the charge into the machine's pending
                // transaction and test the cached timeslice threshold — one
                // borrow, no processor scan. Bit-identical to the slow path
                // (clock reads are pending-aware, the threshold is exact).
                inner.machine.compute_deferred(p, cycles);
                inner.timeslice_due(tid, p).then(|| (rc.clone(), true))
            } else {
                inner.machine.compute(p, cycles);
                Some((rc.clone(), false))
            }
        }
        Some(ActiveCtx::Serial(rc)) => {
            // Serial runs have no observers between charges; always batch.
            rc.borrow_mut().machine.compute_deferred(0, cycles);
            None
        }
        None => None,
    });
    if let Some((rc, due)) = after {
        if due {
            suspend_current(&rc, YieldReason::Timeslice);
        } else {
            crate::runtime::maybe_timeslice(&rc);
        }
    }
}

/// Declares that the current thread is about to work on `bytes` of data
/// region `region` (locality model; see [`ptdf_smp::CacheModel`]).
pub fn touch(region: u64, bytes: u64) {
    let after = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let mut inner = rc.borrow_mut();
            let (tid, p) = inner.cur.expect("touch outside a thread");
            if inner.hot_path {
                inner.machine.touch_deferred(p, region, bytes);
                inner.timeslice_due(tid, p).then(|| (rc.clone(), true))
            } else {
                inner.machine.touch(p, region, bytes);
                Some((rc.clone(), false))
            }
        }
        Some(ActiveCtx::Serial(rc)) => {
            rc.borrow_mut().machine.touch_deferred(0, region, bytes);
            None
        }
        None => None,
    });
    if let Some((rc, due)) = after {
        if due {
            suspend_current(&rc, YieldReason::Timeslice);
        } else {
            crate::runtime::maybe_timeslice(&rc);
        }
    }
}

/// Id of the current runtime thread, if inside one.
pub fn current_thread() -> Option<ThreadId> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc.borrow().cur.map(|(t, _)| t),
        _ => None,
    })
}

/// Number of virtual processors of the active run (1 in serial mode; `None`
/// outside any run).
pub fn processors() -> Option<usize> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.borrow().machine.processors()),
        Some(ActiveCtx::Serial(_)) => Some(1),
        None => None,
    })
}

/// Current virtual time on the calling thread's processor (`None` outside
/// any run). Pending hot-path charge transactions are included, so the
/// reading is exact at any point in a thread's execution.
pub fn now() -> Option<ptdf_smp::VirtTime> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let inner = rc.borrow();
            let p = inner.cur.map(|(_, p)| p).unwrap_or(0);
            Some(inner.machine.clock(p))
        }
        Some(ActiveCtx::Serial(rc)) => Some(rc.borrow().machine.clock(0)),
        None => None,
    })
}

/// Live modelled heap footprint of the active run, in bytes (`None`
/// outside any run).
pub fn footprint() -> Option<u64> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.borrow().machine.footprint()),
        Some(ActiveCtx::Serial(rc)) => Some(rc.borrow().machine.footprint()),
        None => None,
    })
}

/// Headroom under the armed space bound: `bound - footprint`, saturating
/// at zero. `None` when no bound is armed (see
/// [`crate::Config::with_space_bound`]) or outside a run. Overload-control
/// policies poll this to shed work *before* the bound trips as a
/// [`ptdf_smp::MemEventKind::BoundViolation`].
pub fn space_margin() -> Option<u64> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let inner = rc.borrow();
            inner
                .machine
                .space_bound()
                .map(|b| b.saturating_sub(inner.machine.footprint()))
        }
        Some(ActiveCtx::Serial(rc)) => {
            let inner = rc.borrow();
            inner
                .machine
                .space_bound()
                .map(|b| b.saturating_sub(inner.machine.footprint()))
        }
        None => None,
    })
}

/// A fork scope that permits borrowing from the enclosing stack frame, like
/// `std::thread::scope`. All threads spawned through the scope are joined
/// before [`scope`] returns (also on panic), which is what makes the
/// lifetime erasure sound.
pub struct Scope<'env> {
    pending: Rc<RefCell<Vec<ThreadId>>>,
    _env: PhantomData<&'env mut &'env ()>,
}

/// Handle to a scope-spawned thread.
pub struct ScopedHandle<'scope, T> {
    id: ThreadId,
    slot: Slot<T>,
    inline: bool,
    pending: Rc<RefCell<Vec<ThreadId>>>,
    _scope: PhantomData<&'scope ()>,
}

impl<'env> Scope<'env> {
    /// Forks a thread that may borrow from the environment.
    pub fn spawn<T, F>(&self, f: F) -> ScopedHandle<'_, T>
    where
        F: FnOnce() -> T + 'env,
        T: 'env,
    {
        self.spawn_attr(Attr::default(), f)
    }

    /// Forks with explicit attributes.
    pub fn spawn_attr<T, F>(&self, attr: Attr, f: F) -> ScopedHandle<'_, T>
    where
        F: FnOnce() -> T + 'env,
        T: 'env,
    {
        let slot: Slot<T> = Rc::new(RefCell::new(None));
        match par_ctx() {
            Some(rc) => {
                let slot2 = slot.clone();
                let body: Box<dyn FnOnce() + 'env> = Box::new(move || {
                    *slot2.borrow_mut() = Some(f());
                });
                // SAFETY (lifetime erasure): every thread spawned through
                // this scope is joined before `scope` returns — by handle
                // join or by the scope's drop guard, which also runs during
                // unwinding — so all borrows captured by `body` (and the
                // slot) outlive the thread's execution.
                let body: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(body) };
                let (child, preempt) = {
                    let mut inner = rc.borrow_mut();
                    let (cur, p) = inner.cur.expect("scope spawn outside a thread");
                    let stack = inner.acquire_fiber_stack();
                    let fiber = make_fiber_erased(stack, body);
                    inner.create_thread(Some(cur), p, attr, Some(fiber), Kind::User)
                };
                self.pending.borrow_mut().push(child);
                if preempt {
                    suspend_current(&rc, YieldReason::Forked { child });
                }
                ScopedHandle {
                    id: child,
                    slot,
                    inline: false,
                    pending: self.pending.clone(),
                    _scope: PhantomData,
                }
            }
            None => {
                *slot.borrow_mut() = Some(f());
                ScopedHandle {
                    id: ThreadId(u32::MAX),
                    slot,
                    inline: true,
                    pending: self.pending.clone(),
                    _scope: PhantomData,
                }
            }
        }
    }
}

impl<T> ScopedHandle<'_, T> {
    /// The thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Waits for the thread and returns its value (re-raising its panic;
    /// a cancelled child re-raises its structured [`crate::CancelError`]).
    pub fn join(self) -> T {
        match self.try_join() {
            Ok(v) => v,
            Err(crate::thread::JoinError::Panicked(payload)) => {
                std::panic::resume_unwind(payload)
            }
            Err(crate::thread::JoinError::Canceled(e)) => crate::runtime::raise_cancel(e),
            Err(e @ crate::thread::JoinError::NoValue) => panic!("scoped {e}"),
        }
    }

    /// Waits for the thread; a panic in it becomes a
    /// [`JoinError::Panicked`](crate::thread::JoinError) and a cancelled
    /// child a [`JoinError::Canceled`](crate::thread::JoinError) instead of
    /// unwinding the joiner.
    pub fn try_join(self) -> Result<T, crate::thread::JoinError> {
        if !self.inline {
            self.pending.borrow_mut().retain(|&t| t != self.id);
            if let Some(payload) = crate::runtime::join_wait(self.id) {
                return Err(match payload.downcast::<crate::CancelError>() {
                    Ok(e) => crate::thread::JoinError::Canceled(*e),
                    Err(p) => crate::thread::JoinError::Panicked(p),
                });
            }
        }
        self.slot
            .borrow_mut()
            .take()
            .ok_or(crate::thread::JoinError::NoValue)
    }
}

struct ScopeGuard {
    pending: Rc<RefCell<Vec<ThreadId>>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        // Join every thread not explicitly joined. During a panic unwind we
        // still join (soundness!), but swallow child panics to avoid a
        // double panic.
        let pending = std::mem::take(&mut *self.pending.borrow_mut());
        for id in pending {
            if std::thread::panicking() {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    crate::runtime::join_wait(id)
                }));
            } else if let Some(payload) = crate::runtime::join_wait(id) {
                // A cancelled child terminated by request; cancellation is
                // not contagious, so the scope parent does not unwind.
                if !payload.is::<crate::CancelError>() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Runs `f` with a fork [`Scope`]; joins all unjoined scope threads before
/// returning (or before propagating a panic).
pub fn scope<'env, T>(f: impl FnOnce(&Scope<'env>) -> T) -> T {
    let pending = Rc::new(RefCell::new(Vec::new()));
    let guard = ScopeGuard {
        pending: pending.clone(),
    };
    let s = Scope {
        pending,
        _env: PhantomData,
    };
    let out = f(&s);
    drop(guard);
    out
}

pub(crate) use crate::runtime::join_impl;
