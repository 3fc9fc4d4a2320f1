//! Safe(ish) coroutine object on top of the raw context switch.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::arch::{init_stack, ptdf_raw_switch, EntryThunk, FiberExit};
use crate::coro_api::{ForcedUnwind, Step};
use crate::stack::Stack;

/// Shared mailbox between the resumer side and the fiber side. Lives in a
/// `Box` so its address is stable across switches.
struct Shared<In, Y, R> {
    /// Suspended stack pointer of the fiber (valid when state != Running).
    fiber_sp: Cell<*mut c_void>,
    /// Suspended stack pointer of the resumer (valid while fiber runs).
    caller_sp: Cell<*mut c_void>,
    input: Cell<Option<In>>,
    output: Cell<Option<Step<Y, R>>>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
    cancel: Cell<bool>,
    state: Cell<u8>, // State discriminant; u8 to keep Cell simple
}

/// The fiber's main closure, type- and lifetime-erased.
type ErasedMain = Box<dyn FnOnce() -> FiberExit>;

const ST_CREATED: u8 = 0;
const ST_SUSPENDED: u8 = 1;
const ST_RUNNING: u8 = 2;
const ST_DONE: u8 = 3;

/// A stackful coroutine: resumed with values of type `In`, yields values of
/// type `Y`, and completes with a value of type `R`.
///
/// See the crate-level docs for an example. `Coroutine` is intentionally
/// **not** `Send`: the SC'98 reproduction drives all fibers from a single
/// OS thread (the virtual-SMP engine), which keeps the unsafe surface small.
pub struct Coroutine<In, Y, R> {
    shared: Box<Shared<In, Y, R>>,
    /// `Some` until [`Coroutine::into_stack`] moves the stack out for reuse.
    stack: Option<Stack>,
    /// Set for `Created` coroutines so an unused entry thunk can be reclaimed.
    pending_thunk: *mut EntryThunk,
    _not_send: PhantomData<*mut ()>,
}

/// Handle passed to the coroutine body for suspending back to the resumer.
pub struct Yielder<In, Y, R> {
    shared: *const Shared<In, Y, R>,
}

/// Starts the forced unwind of a dropped coroutine. Control flow, not a
/// fault: straight to the unwinder, past the panic hook. Out of line and
/// cold, so that `suspend` — every context switch — pays one untaken branch
/// for it.
#[cold]
#[inline(never)]
fn forced_unwind() -> ! {
    resume_unwind(Box::new(ForcedUnwind))
}

impl<In, Y, R> Yielder<In, Y, R> {
    /// Suspends the coroutine, delivering `value` to the pending
    /// [`Coroutine::resume`] call, and blocks until resumed again; returns
    /// the next resume input.
    ///
    /// # Panics
    /// Panics with [`ForcedUnwind`] if the owning `Coroutine` is being
    /// dropped; the unwind runs destructors of live frames on this stack.
    pub fn suspend(&self, value: Y) -> In {
        // SAFETY: `shared` outlives the coroutine body (owned by Coroutine,
        // which cannot be dropped while its fiber is running).
        let shared = unsafe { &*self.shared };
        shared.output.set(Some(Step::Yield(value)));
        shared.state.set(ST_SUSPENDED);
        // SAFETY: caller_sp holds the resumer's suspended context.
        unsafe {
            ptdf_raw_switch(shared.fiber_sp.as_ptr(), shared.caller_sp.get());
        }
        shared.state.set(ST_RUNNING);
        if shared.cancel.get() {
            forced_unwind();
        }
        shared
            .input
            .take()
            .expect("resume must provide an input value")
    }
}

impl<In, Y, R> Coroutine<In, Y, R> {
    /// Creates a coroutine with a fresh stack of `stack_size` bytes running
    /// `body`. The body receives a [`Yielder`] and the input of the first
    /// `resume` call.
    pub fn new<F>(stack_size: usize, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R + 'static,
        In: 'static,
        Y: 'static,
        R: 'static,
    {
        // SAFETY: 'static bounds satisfy new_unchecked's contract trivially.
        unsafe { Self::new_unchecked(stack_size, body) }
    }

    /// Like [`Coroutine::new`] but runs `body` on a caller-supplied stack —
    /// typically one recycled through a [`StackPool`](crate::StackPool).
    pub fn with_stack<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R + 'static,
        In: 'static,
        Y: 'static,
        R: 'static,
    {
        // SAFETY: 'static bounds satisfy the unchecked contract trivially.
        unsafe { Self::with_stack_unchecked(stack, body) }
    }

    /// Creates a coroutine whose body is not `'static`.
    ///
    /// # Safety
    /// The caller must guarantee that every borrow captured by `body` (and
    /// carried by `In`, `Y`, `R`) outlives the coroutine's execution — i.e.
    /// the coroutine is driven to completion (or dropped, which force-unwinds
    /// it) before any borrowed data dies. The SC'98 runtime upholds this via
    /// its structured `scope` API.
    pub unsafe fn new_unchecked<F>(stack_size: usize, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        Self::with_stack_unchecked(Stack::new(stack_size), body)
    }

    /// [`Coroutine::with_stack`] for a non-`'static` body.
    ///
    /// # Safety
    /// Same contract as [`Coroutine::new_unchecked`].
    pub unsafe fn with_stack_unchecked<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        let shared = Box::new(Shared::<In, Y, R> {
            fiber_sp: Cell::new(std::ptr::null_mut()),
            caller_sp: Cell::new(std::ptr::null_mut()),
            input: Cell::new(None),
            output: Cell::new(None),
            panic: Cell::new(None),
            cancel: Cell::new(false),
            state: Cell::new(ST_CREATED),
        });
        let shared_ptr: *const Shared<In, Y, R> = &*shared;

        // The closure that runs on the fiber stack. It is boxed (type-erased
        // through EntryThunk) and executed exactly once by ptdf_fiber_entry.
        // It returns the final switch instead of performing it: a switch
        // made from in here would never return, so the closure's own box
        // (and everything else owned by the frames below) would leak.
        let fiber_main = move || {
            let shared = &*shared_ptr;
            shared.state.set(ST_RUNNING);
            if shared.cancel.get() {
                // Cancelled before the body observed its first input.
                shared.output.set(None);
            } else {
                let input = shared.input.take().expect("first resume provides input");
                let yielder = Yielder { shared: shared_ptr };
                match catch_unwind(AssertUnwindSafe(move || body(&yielder, input))) {
                    Ok(ret) => shared.output.set(Some(Step::Complete(ret))),
                    Err(payload) => {
                        if payload.is::<ForcedUnwind>() {
                            shared.output.set(None);
                        } else {
                            shared.panic.set(Some(payload));
                        }
                    }
                }
            }
            shared.state.set(ST_DONE);
            // Final switch back to the resumer. fiber_sp doubles as the
            // (dead) save slot. `shared` outlives the switch: its owner is
            // blocked in the resume (or drop) this switch returns to.
            FiberExit {
                save: shared.fiber_sp.as_ptr(),
                restore: shared.caller_sp.get(),
            }
        };

        // Double-box: EntryThunk::payload is a thin pointer to the fat one.
        // Lifetime erasure — justified by this function's safety contract.
        let erased: ErasedMain = std::mem::transmute::<
            Box<dyn FnOnce() -> FiberExit + '_>,
            Box<dyn FnOnce() -> FiberExit + 'static>,
        >(Box::new(fiber_main));
        let payload = Box::into_raw(Box::new(erased)) as *mut c_void;

        fn run_erased(payload: *mut c_void) -> FiberExit {
            // SAFETY: payload was produced by Box::into_raw above.
            let f: Box<ErasedMain> = unsafe { Box::from_raw(payload.cast()) };
            // Consumes the closure and frees both boxes before returning.
            f()
        }

        let thunk = Box::into_raw(Box::new(EntryThunk { run: run_erased, payload }));
        let initial_sp = init_stack(stack.top(), thunk);
        shared.fiber_sp.set(initial_sp);

        Coroutine {
            shared,
            stack: Some(stack),
            pending_thunk: thunk,
            _not_send: PhantomData,
        }
    }

    /// Resumes the coroutine with `input`, blocking the caller until the
    /// coroutine yields or completes.
    ///
    /// # Panics
    /// Panics if the coroutine already completed, and re-raises any panic
    /// that escaped the coroutine body.
    pub fn resume(&mut self, input: In) -> Step<Y, R> {
        match self.shared.state.get() {
            ST_DONE => panic!("resume called on a completed coroutine"),
            ST_RUNNING => panic!("re-entrant resume on a running coroutine"),
            _ => {}
        }
        self.pending_thunk = std::ptr::null_mut(); // consumed on first switch
        self.shared.input.set(Some(input));
        // SAFETY: fiber_sp holds a valid suspended context (bootstrap frame
        // for Created, a suspend() frame for Suspended).
        unsafe {
            ptdf_raw_switch(self.shared.caller_sp.as_ptr(), self.shared.fiber_sp.get());
        }
        if let Some(payload) = self.shared.panic.take() {
            resume_unwind(payload);
        }
        self.shared
            .output
            .take()
            .expect("coroutine must yield or complete before switching back")
    }

    /// True once the coroutine body has returned (or unwound).
    pub fn is_done(&self) -> bool {
        self.shared.state.get() == ST_DONE
    }

    /// True if the coroutine was created but never resumed.
    pub fn is_fresh(&self) -> bool {
        self.shared.state.get() == ST_CREATED
    }

    /// The coroutine's stack, for canary checks / usage statistics.
    pub fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("stack still owned")
    }

    /// Consumes the coroutine and returns its stack for recycling.
    ///
    /// If the body has not finished, the same cleanup [`Drop`] would perform
    /// runs first (thunk reclaim for a never-resumed coroutine, forced unwind
    /// for a suspended one), so the returned stack carries no live frames.
    /// Always returns `Some` on this backend; the portable thread backend's
    /// placeholder stacks return `None` (see [`crate::HAS_REAL_STACKS`]).
    pub fn into_stack(mut self) -> Option<Stack> {
        self.cleanup();
        self.stack.take()
    }

    /// Releases everything except the stack: reclaims a never-run entry
    /// thunk, force-unwinds a suspended fiber. Idempotent; `Drop` calls it.
    fn cleanup(&mut self) {
        match self.shared.state.get() {
            ST_DONE => {}
            ST_CREATED => {
                if self.pending_thunk.is_null() {
                    return;
                }
                // Entry never ran: reclaim the thunk and its payload.
                // SAFETY: pointers were produced by Box::into_raw in new_unchecked.
                unsafe {
                    let thunk = Box::from_raw(self.pending_thunk);
                    drop(Box::from_raw(thunk.payload as *mut ErasedMain));
                }
                self.pending_thunk = std::ptr::null_mut();
                self.shared.state.set(ST_DONE);
            }
            ST_SUSPENDED => {
                // Force-unwind the fiber so destructors on its stack run:
                // `suspend` returns into an unwind with a ForcedUnwind
                // payload.
                self.shared.cancel.set(true);
                self.shared.input.set(None);
                // SAFETY: same contract as resume().
                unsafe {
                    ptdf_raw_switch(
                        self.shared.caller_sp.as_ptr(),
                        self.shared.fiber_sp.get(),
                    );
                }
                debug_assert_eq!(self.shared.state.get(), ST_DONE);
                if let Some(payload) = self.shared.panic.take() {
                    // A destructor panicked during forced unwind; propagate.
                    if !std::thread::panicking() {
                        resume_unwind(payload);
                    }
                }
            }
            _ => unreachable!("dropping a running coroutine"),
        }
    }
}

impl<In, Y, R> Drop for Coroutine<In, Y, R> {
    fn drop(&mut self) {
        self.cleanup();
    }
}

impl<In, Y, R> fmt::Debug for Coroutine<In, Y, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.shared.state.get() {
            ST_CREATED => "created",
            ST_SUSPENDED => "suspended",
            ST_RUNNING => "running",
            _ => "done",
        };
        f.debug_struct("Coroutine")
            .field("state", &state)
            .field("stack_size", &self.stack.as_ref().map_or(0, Stack::size))
            .finish()
    }
}
