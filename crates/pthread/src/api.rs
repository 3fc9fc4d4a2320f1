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

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::rc::Rc;

use ptdf_fiber::Coroutine;
use ptdf_smp::{Machine, ProcId};

use crate::config::Attr;
use crate::runtime::{fiber_body, make_fiber, suspend_current, with_active, ActiveCtx, Inner};
use crate::thread::{
    join_wait, Exit, JoinCell, JoinError, JoinHandle, Kind, ThreadId, YieldReason,
};

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
    let cell = Rc::new(JoinCell::new());
    match par_ctx() {
        Some(rc) => {
            let (child, preempt, run) = {
                let mut inner = rc.borrow_mut();
                let (cur, p) = inner.cur.expect("spawn called outside a thread");
                let stack = inner.acquire_fiber_stack();
                let fiber = make_fiber(stack, cell.clone(), f);
                let (child, preempt) =
                    inner.create_thread(Some(cur), p, attr, Some(fiber), Kind::User);
                (child, preempt, inner.run_token)
            };
            if preempt {
                suspend_current(&rc, YieldReason::Forked { child });
            }
            JoinHandle {
                id: child,
                cell,
                run: Some(run),
            }
        }
        None => {
            // Serial or standalone: a fork is a function call.
            cell.value.set(Some(f()));
            JoinHandle {
                id: ThreadId(u32::MAX),
                cell,
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
        crate::cancel::deliver_cancel(&rc);
        suspend_current(&rc, YieldReason::Yielded);
        crate::cancel::deliver_cancel(&rc);
    }
}

/// Charges `cycles` cycles of application compute to the current virtual
/// processor. This is how benchmark kernels report their work to the
/// virtual-time model (see DESIGN.md: the code *also* really executes; the
/// charge is the modelled duration on the 167 MHz reference machine).
pub fn work(cycles: u64) {
    charge_current(
        |m, p| m.compute_deferred(p, cycles),
        "work outside a thread",
    );
}

/// Declares that the current thread is about to work on `bytes` of data
/// region `region` (locality model; see [`ptdf_smp::CacheModel`]).
pub fn touch(region: u64, bytes: u64) {
    charge_current(
        |m, p| m.touch_deferred(p, region, bytes),
        "touch outside a thread",
    );
}

/// Defers `charge` into the machine's pending transaction on the calling
/// thread's processor (processor 0 under the serial baseline) and tests
/// the cached timeslice threshold — one borrow, no processor scan (clock
/// reads are pending-aware, the threshold is exact) — then takes the
/// timeslice yield if it is due. `outside`: the panic message for a call
/// from outside a thread of a run.
#[inline(always)]
fn charge_current(charge: impl FnOnce(&mut Machine, ProcId), outside: &str) {
    let due = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let mut inner = rc.borrow_mut();
            let (tid, p) = inner.cur.expect(outside);
            charge(&mut inner.machine, p);
            inner.timeslice_due(tid, p).then(|| rc.clone())
        }
        Some(ActiveCtx::Serial(rc)) => {
            charge(&mut rc.borrow_mut().machine, 0);
            None
        }
        None => None,
    });
    if let Some(rc) = due {
        suspend_current(&rc, YieldReason::Timeslice);
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
    read_machine(|m, _| m.processors())
}

/// Current virtual time on the calling thread's processor (`None` outside
/// any run). Pending hot-path charge transactions are included, so the
/// reading is exact at any point in a thread's execution.
pub fn now() -> Option<ptdf_smp::VirtTime> {
    read_machine(|m, p| m.clock(p))
}

/// Live modelled heap footprint of the active run, in bytes (`None`
/// outside any run).
pub fn footprint() -> Option<u64> {
    read_machine(|m, _| m.footprint())
}

/// Headroom under the armed space bound: `bound - footprint`, saturating
/// at zero. `None` when no bound is armed (see
/// [`crate::Config::with_space_bound`]) or outside a run. Overload-control
/// policies poll this to shed work *before* the bound trips as a
/// [`ptdf_smp::MemEventKind::BoundViolation`].
pub fn space_margin() -> Option<u64> {
    read_machine(|m, _| m.space_bound().map(|b| b.saturating_sub(m.footprint()))).flatten()
}

/// `f` of the active run's machine and the calling thread's processor
/// (processor 0 outside a thread and under the serial baseline); `None`
/// outside any run.
fn read_machine<R>(f: impl FnOnce(&Machine, ProcId) -> R) -> Option<R> {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            let inner = rc.borrow();
            Some(f(&inner.machine, inner.cur.map_or(0, |(_, p)| p)))
        }
        Some(ActiveCtx::Serial(rc)) => Some(f(&rc.borrow().machine, 0)),
        None => None,
    })
}

/// A fork scope that permits borrowing from the enclosing stack frame, like
/// `std::thread::scope`. All threads spawned through the scope are joined
/// before [`scope`] returns (also on panic), which is what makes the
/// lifetime erasure sound.
pub struct Scope<'env> {
    pending: Pending<'env>,
    _env: PhantomData<&'env mut &'env ()>,
}

/// A link of a scope's [`Pending`] list.
type Link<'env> = Option<Rc<dyn Child<'env> + 'env>>;

/// The threads spawned through a scope that nobody has started to join,
/// oldest first, linked through their cells: keeping track of a scoped
/// thread costs no allocation beyond its cell.
#[derive(Default)]
struct Pending<'env> {
    head: Cell<Link<'env>>,
    /// A second reference to the youngest thread, for appending.
    tail: Cell<Link<'env>>,
}

/// What a [`Pending`] list needs of a scoped thread's cell.
trait Child<'env> {
    fn id(&self) -> ThreadId;
    fn exit(&self) -> &Exit;
    /// The next-younger thread of the list.
    fn next(&self) -> &Cell<Link<'env>>;
}

/// A scoped thread's join cell, with its link in the scope's list.
struct ScopedCell<'env, T> {
    /// Set once the thread is created, before the cell joins the list.
    id: Cell<ThreadId>,
    next: Cell<Link<'env>>,
    join: JoinCell<T>,
}

impl<'env, T> Child<'env> for ScopedCell<'env, T> {
    fn id(&self) -> ThreadId {
        self.id.get()
    }
    fn exit(&self) -> &Exit {
        &self.join.exit
    }
    fn next(&self) -> &Cell<Link<'env>> {
        &self.next
    }
}

impl<T> AsRef<JoinCell<T>> for ScopedCell<'_, T> {
    fn as_ref(&self) -> &JoinCell<T> {
        &self.join
    }
}

impl<'env> Pending<'env> {
    fn push(&self, child: Rc<dyn Child<'env> + 'env>) {
        match self.tail.replace(Some(child.clone())) {
            Some(last) => last.next().set(Some(child)),
            None => self.head.set(Some(child)),
        }
    }

    /// Takes the oldest thread off the list.
    fn pop(&self) -> Link<'env> {
        let first = self.head.take()?;
        match first.next().take() {
            Some(next) => self.head.set(Some(next)),
            None => self.tail.set(None),
        }
        Some(first)
    }
}

/// Unlinks one by one, so a long list cannot overflow the stack with nested
/// drops.
impl Drop for Pending<'_> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

/// The one thing a handle does to its scope's list; a trait object, because
/// a handle cannot name the scope's `'env`.
trait Forget {
    /// Takes thread `id` off the list, keeping the others' order.
    fn forget(&self, id: ThreadId);
}

impl Forget for Pending<'_> {
    fn forget(&self, id: ThreadId) {
        let kept = Pending::default();
        while let Some(child) = self.pop() {
            if child.id() != id {
                kept.push(child);
            }
        }
        self.head.set(kept.head.take());
        self.tail.set(kept.tail.take());
    }
}

/// Handle to a scope-spawned thread.
pub struct ScopedHandle<'scope, T> {
    id: ThreadId,
    cell: Rc<dyn AsRef<JoinCell<T>> + 'scope>,
    /// The list of the scope the thread runs in; `None` for a handle
    /// completed inline.
    pending: Option<&'scope dyn Forget>,
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
        let cell = Rc::new(ScopedCell {
            id: Cell::new(ThreadId(u32::MAX)),
            next: Cell::new(None),
            join: JoinCell::new(),
        });
        match par_ctx() {
            Some(rc) => {
                let (child, preempt) = {
                    let mut inner = rc.borrow_mut();
                    let (cur, p) = inner.cur.expect("scope spawn outside a thread");
                    let stack = inner.acquire_fiber_stack();
                    // SAFETY (lifetime erasure): every thread spawned through
                    // this scope is joined before `scope` returns — by handle
                    // join or by the scope's drop guard, which also runs
                    // during unwinding — so all borrows captured by `f` (and
                    // the cell) outlive the thread's execution.
                    let fiber = unsafe {
                        Coroutine::with_stack_unchecked(stack, fiber_body(cell.clone(), f))
                    };
                    inner.create_thread(Some(cur), p, attr, Some(fiber), Kind::User)
                };
                cell.id.set(child);
                self.pending.push(cell.clone());
                if preempt {
                    suspend_current(&rc, YieldReason::Forked { child });
                }
                ScopedHandle {
                    id: child,
                    cell,
                    pending: Some(&self.pending),
                }
            }
            None => {
                cell.join.value.set(Some(f()));
                ScopedHandle {
                    id: ThreadId(u32::MAX),
                    cell,
                    pending: None,
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
        self.try_join().unwrap_or_else(|e| e.raise("scoped "))
    }

    /// Waits for the thread; a panic in it becomes a
    /// [`JoinError::Panicked`](crate::thread::JoinError) and a cancelled
    /// child a [`JoinError::Canceled`](crate::thread::JoinError) instead of
    /// unwinding the joiner.
    pub fn try_join(self) -> Result<T, JoinError> {
        let join = (*self.cell).as_ref();
        if let Some(pending) = self.pending {
            pending.forget(self.id);
            if let Some(payload) = join_wait(self.id, &join.exit) {
                return Err(JoinError::of(payload));
            }
        }
        join.value.take().ok_or(JoinError::NoValue)
    }
}

/// See [`JoinHandle`]'s `Drop`.
impl<T> Drop for ScopedHandle<'_, T> {
    fn drop(&mut self) {
        (*self.cell).as_ref().detach();
    }
}

struct ScopeGuard<'a, 'env> {
    pending: &'a Pending<'env>,
}

impl Drop for ScopeGuard<'_, '_> {
    fn drop(&mut self) {
        // Join every thread not explicitly joined, oldest first. During a
        // panic unwind we still join (soundness!), but swallow child panics
        // to avoid a double panic.
        while let Some(child) = self.pending.pop() {
            if std::thread::panicking() {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    join_wait(child.id(), child.exit())
                }));
            } else if let Some(payload) = join_wait(child.id(), child.exit()) {
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
    let s = Scope {
        pending: Pending::default(),
        _env: PhantomData,
    };
    let guard = ScopeGuard {
        pending: &s.pending,
    };
    let out = f(&s);
    drop(guard);
    out
}
