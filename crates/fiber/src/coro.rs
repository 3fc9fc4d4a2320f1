//! Safe(ish) coroutine object on top of the raw context switch.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::fmt;
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

use crate::arch::{init_stack, ptdf_raw_switch, EntryThunk, FiberExit};
use crate::coro_api::{ForcedUnwind, Step};
use crate::stack::Stack;

/// Shared mailbox between the resumer side and the fiber side. Lives in the
/// [`Record`] at the top of the fiber's stack, so its address is stable
/// across switches.
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

/// Everything a fiber needs besides its frames, written at the top of its
/// own stack: creating a coroutine allocates nothing. `repr(C)` with the
/// thunk first, so the thunk's address — what `ptdf_fiber_entry` is handed —
/// is the record's.
#[repr(C)]
struct Record<In, Y, R, F> {
    entry: EntryThunk,
    shared: Shared<In, Y, R>,
    /// Taken by [`run_record`] on the first resume, or dropped in place by
    /// [`drop_body`] if there never is one; `shared.state` says which
    /// (`ST_CREATED` exactly while it is still here).
    body: ManuallyDrop<F>,
}

/// Largest record kept whole at the top of a stack: a quarter of the
/// smallest stack. A body closure that would make the record larger is
/// boxed, and the record holds the box.
const INLINE_RECORD_MAX: usize = crate::MIN_STACK_SIZE / 4;

/// The alignment [`init_stack`] needs below the record.
const FRAME_ALIGN: usize = 16;

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
    /// The record at the top of `stack`, as its thunk.
    record: NonNull<EntryThunk>,
    /// The record's `shared` member.
    shared: NonNull<Shared<In, Y, R>>,
    /// Drops the record's body in place; for a coroutine that never ran.
    drop_body: unsafe fn(NonNull<EntryThunk>),
    /// `Some` until [`Coroutine::into_stack`] (or drop) releases the record
    /// and moves the stack out.
    stack: Option<Stack>,
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
        // SAFETY: `shared` outlives the coroutine body (it is in the record
        // at the top of this very stack, released only once the body is
        // done).
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

/// The fiber's main, entered once through the record's thunk: runs the body
/// and returns the final switch instead of performing it. A switch made from
/// in here would never return, so everything owned by this frame — the body
/// closure above all — would leak.
fn run_record<In, Y, R, F>(data: *mut c_void) -> FiberExit
where
    F: FnOnce(&Yielder<In, Y, R>, In) -> R,
{
    let record = data.cast::<Record<In, Y, R, F>>();
    // SAFETY: `data` is the record `Coroutine::on_stack` wrote at the top of
    // this fiber's stack, live until the coroutine is released — which waits
    // for this function to return. The thunk runs once, on the first resume,
    // while the state is still `ST_CREATED`: the body has not been taken or
    // dropped. The references cover disjoint members of the record.
    let (shared, body) = unsafe {
        (
            &*ptr::addr_of!((*record).shared),
            ManuallyDrop::take(&mut *ptr::addr_of_mut!((*record).body)),
        )
    };
    shared.state.set(ST_RUNNING);
    let input = shared.input.take().expect("first resume provides input");
    let yielder = Yielder { shared };
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
    shared.state.set(ST_DONE);
    // Final switch back to the resumer. fiber_sp doubles as the (dead) save
    // slot. `shared` outlives the switch: its owner is blocked in the resume
    // (or drop) this switch returns to.
    FiberExit {
        save: shared.fiber_sp.as_ptr(),
        restore: shared.caller_sp.get(),
    }
}

/// Drops the body of a record whose fiber never ran.
///
/// # Safety
/// `record` points to a live `Record<In, Y, R, F>` whose body has been
/// neither taken nor dropped.
unsafe fn drop_body<In, Y, R, F>(record: NonNull<EntryThunk>) {
    let record = record.cast::<Record<In, Y, R, F>>().as_ptr();
    // SAFETY: the caller's contract; only the body member is touched.
    unsafe { ManuallyDrop::drop(&mut *ptr::addr_of_mut!((*record).body)) };
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
    /// The body lives in a record at the top of `stack` unless that would
    /// make the record larger than a quarter of the smallest stack (or it
    /// needs more than 16-byte alignment); then the record holds it boxed.
    ///
    /// # Safety
    /// Same contract as [`Coroutine::new_unchecked`].
    pub unsafe fn with_stack_unchecked<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        // SAFETY: the caller's contract is `on_stack`'s.
        unsafe {
            if size_of::<Record<In, Y, R, F>>() <= INLINE_RECORD_MAX
                && align_of::<F>() <= FRAME_ALIGN
            {
                Self::on_stack(stack, body)
            } else {
                Self::on_stack(stack, Box::new(body))
            }
        }
    }

    /// Writes the record for `body` at the top of `stack` and the bootstrap
    /// frame below it.
    ///
    /// # Safety
    /// Same contract as [`Coroutine::new_unchecked`].
    unsafe fn on_stack<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        let align = align_of::<Record<In, Y, R, F>>().max(FRAME_ALIGN);
        let size = size_of::<Record<In, Y, R, F>>();
        assert!(
            size + align <= stack.size() / 2,
            "a {size}-byte coroutine record leaves too little of a {}-byte stack",
            stack.size()
        );
        let at = (stack.top() as usize - size) & !(align - 1);
        let record = at as *mut Record<In, Y, R, F>;
        // SAFETY: `at` is aligned for the record and, by the assert, the
        // record lies inside the stack, above any frame; nothing else uses
        // that memory until the record is released.
        unsafe {
            record.write(Record {
                entry: EntryThunk {
                    run: run_record::<In, Y, R, F>,
                },
                shared: Shared {
                    fiber_sp: Cell::new(ptr::null_mut()),
                    caller_sp: Cell::new(ptr::null_mut()),
                    input: Cell::new(None),
                    output: Cell::new(None),
                    panic: Cell::new(None),
                    cancel: Cell::new(false),
                    state: Cell::new(ST_CREATED),
                },
                body: ManuallyDrop::new(body),
            })
        };
        // SAFETY: `record` is non-null and points to the record just
        // written.
        let (thunk, shared) = unsafe {
            (
                NonNull::new_unchecked(ptr::addr_of_mut!((*record).entry)),
                NonNull::new_unchecked(ptr::addr_of_mut!((*record).shared)),
            )
        };
        // SAFETY: `at` is 16-byte aligned, the frame below it fits in the
        // stack by the assert, and the thunk lives as long as the record.
        let initial_sp = unsafe { init_stack(at as *mut u8, thunk.as_ptr()) };
        // SAFETY: the record was just written and nothing else refers to it.
        unsafe { shared.as_ref() }.fiber_sp.set(initial_sp);
        Coroutine {
            record: thunk,
            shared,
            drop_body: drop_body::<In, Y, R, F>,
            stack: Some(stack),
            _not_send: PhantomData,
        }
    }

    /// The record's mailbox.
    fn shared(&self) -> &Shared<In, Y, R> {
        debug_assert!(self.stack.is_some(), "record used after release");
        // SAFETY: the record lives at the top of `self.stack`, which this
        // coroutine owns until `release`, and `release` is the last use.
        unsafe { self.shared.as_ref() }
    }

    /// Resumes the coroutine with `input`, blocking the caller until the
    /// coroutine yields or completes.
    ///
    /// # Panics
    /// Panics if the coroutine already completed, and re-raises any panic
    /// that escaped the coroutine body.
    pub fn resume(&mut self, input: In) -> Step<Y, R> {
        let shared = self.shared();
        match shared.state.get() {
            ST_DONE => panic!("resume called on a completed coroutine"),
            ST_RUNNING => panic!("re-entrant resume on a running coroutine"),
            _ => {}
        }
        shared.input.set(Some(input));
        // SAFETY: fiber_sp holds a valid suspended context (bootstrap frame
        // for Created, a suspend() frame for Suspended).
        unsafe {
            ptdf_raw_switch(shared.caller_sp.as_ptr(), shared.fiber_sp.get());
        }
        if let Some(payload) = shared.panic.take() {
            resume_unwind(payload);
        }
        shared
            .output
            .take()
            .expect("coroutine must yield or complete before switching back")
    }

    /// True once the coroutine body has returned (or unwound).
    pub fn is_done(&self) -> bool {
        self.shared().state.get() == ST_DONE
    }

    /// The coroutine's stack, for canary checks / usage statistics.
    pub fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("stack still owned")
    }

    /// Consumes the coroutine and returns its stack for recycling.
    ///
    /// If the body has not finished, the same cleanup [`Drop`] would perform
    /// runs first (the body is dropped for a never-resumed coroutine, a
    /// suspended one is force-unwound), so the returned stack carries no
    /// live frames and no record.
    /// Always returns `Some` on this backend; the portable thread backend's
    /// placeholder stacks return `None` (see [`crate::HAS_REAL_STACKS`]).
    pub fn into_stack(mut self) -> Option<Stack> {
        self.release()
    }

    /// Finishes the body (see [`Self::cleanup`]), drops the record's
    /// mailbox and hands the stack out. Idempotent; `Drop` calls it.
    fn release(&mut self) -> Option<Stack> {
        self.stack.as_ref()?;
        self.cleanup();
        // SAFETY: the body is done, so nothing references the mailbox any
        // more; this is its only drop, as `stack` goes with it.
        unsafe { ptr::drop_in_place(self.shared.as_ptr()) };
        self.stack.take()
    }

    /// Brings the body to an end: drops a never-run body, force-unwinds a
    /// suspended fiber. Idempotent.
    fn cleanup(&mut self) {
        let shared = self.shared();
        match shared.state.get() {
            ST_DONE => {}
            ST_CREATED => {
                shared.state.set(ST_DONE);
                // SAFETY: the entry never ran, so the body is still in the
                // record; the state just left ST_CREATED, so it is dropped
                // once.
                unsafe { (self.drop_body)(self.record) };
            }
            ST_SUSPENDED => {
                // Force-unwind the fiber so destructors on its stack run:
                // `suspend` returns into an unwind with a ForcedUnwind
                // payload.
                shared.cancel.set(true);
                shared.input.set(None);
                // SAFETY: same contract as resume().
                unsafe {
                    ptdf_raw_switch(shared.caller_sp.as_ptr(), shared.fiber_sp.get());
                }
                debug_assert_eq!(shared.state.get(), ST_DONE);
                if let Some(payload) = shared.panic.take() {
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
        drop(self.release());
    }
}

impl<In, Y, R> fmt::Debug for Coroutine<In, Y, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = match self.shared().state.get() {
            ST_CREATED => "created",
            ST_SUSPENDED => "suspended",
            ST_RUNNING => "running",
            _ => "done",
        };
        f.debug_struct("Coroutine")
            .field("state", &state)
            .field("stack_size", &self.stack().size())
            .finish()
    }
}
