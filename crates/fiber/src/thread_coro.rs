//! Portable coroutine backend: one parked OS thread per coroutine.
//!
//! Selected on non-x86_64 targets (or with `--features thread-backend`),
//! this backend provides the exact [`Coroutine`] API of the assembly
//! backend, at the cost of one OS thread (and kernel-assisted handoffs)
//! per coroutine — the trade-off the paper's Figure 3 quantifies between
//! bound and unbound threads.
//!
//! # Why the `Send` erasure is sound
//!
//! Coroutine bodies are not required to be `Send` (the virtual-SMP engine
//! shares `Rc`-based state between fibers), yet this backend runs each body
//! on its own OS thread. That is sound under this crate's execution
//! discipline:
//!
//! * exactly **one** side (resumer or coroutine) runs at any instant — the
//!   other is blocked on a rendezvous channel;
//! * every control transfer goes through that channel, whose send/recv pair
//!   establishes a happens-before edge, so all writes made by one side are
//!   visible to the other before it runs;
//! * therefore the non-`Send` data is never accessed concurrently and every
//!   access is ordered — the same reasoning that makes a mutex-protected
//!   `!Sync` value safe to move between threads.
//!
//! The `SendCell` wrapper encapsulates this argument.

use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

pub use crate::coro_api::{ForcedUnwind, Step};
use crate::stack::Stack;

/// Moves a non-`Send` value across the rendezvous boundary. See the module
/// docs for the soundness argument.
struct SendCell<T>(T);
// SAFETY: values are only ever accessed by the thread that currently holds
// the rendezvous baton; transfers are synchronized by the channel.
unsafe impl<T> Send for SendCell<T> {}

enum ToFiber<In> {
    Resume(In),
    Cancel,
}

enum FromFiber<Y, R> {
    Yield(Y),
    Complete(R),
    Panicked(Box<dyn Any + Send>),
    Cancelled,
}

/// A coroutine backed by a parked OS thread (portable backend).
pub struct Coroutine<In, Y, R> {
    to_fiber: SyncSender<SendCell<ToFiber<In>>>,
    from_fiber: Receiver<SendCell<FromFiber<Y, R>>>,
    handle: Option<std::thread::JoinHandle<()>>,
    started: bool,
    done: bool,
    stack: Stack,
    _not_send: PhantomData<*mut ()>,
}

/// Suspension handle passed to the coroutine body (portable backend).
pub struct Yielder<In, Y, R> {
    to_caller: SyncSender<SendCell<FromFiber<Y, R>>>,
    from_caller: *const Receiver<SendCell<ToFiber<In>>>,
}

impl<In, Y, R> Yielder<In, Y, R> {
    /// Suspends the coroutine, delivering `value`; returns the next resume
    /// input. Panics with [`ForcedUnwind`] if the coroutine is being
    /// dropped.
    pub fn suspend(&self, value: Y) -> In {
        self.to_caller
            .send(SendCell(FromFiber::Yield(value)))
            .expect("resumer alive");
        // SAFETY: the receiver outlives the body (owned by the fiber main).
        let rx = unsafe { &*self.from_caller };
        match rx.recv().expect("resumer alive").0 {
            ToFiber::Resume(input) => input,
            // Control flow, not a fault: past the panic hook.
            ToFiber::Cancel => std::panic::resume_unwind(Box::new(ForcedUnwind)),
        }
    }
}

impl<In, Y, R> Coroutine<In, Y, R> {
    /// Creates a coroutine running `body` (see the assembly backend for the
    /// API contract). `stack_size` sizes the OS thread's stack.
    pub fn new<F>(stack_size: usize, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R + 'static,
        In: 'static,
        Y: 'static,
        R: 'static,
    {
        // SAFETY: 'static bounds satisfy the contract trivially.
        unsafe { Self::new_unchecked(stack_size, body) }
    }

    /// API-parity shim for the assembly backend's `with_stack`: this backend
    /// runs bodies on OS threads, so the supplied stack only sizes the
    /// thread's stack and is then freed.
    pub fn with_stack<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R + 'static,
        In: 'static,
        Y: 'static,
        R: 'static,
    {
        Self::new(stack.size(), body)
    }

    /// API-parity shim; see [`Coroutine::with_stack`].
    ///
    /// # Safety
    /// Same contract as [`Coroutine::new_unchecked`].
    pub unsafe fn with_stack_unchecked<F>(stack: Stack, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        Self::new_unchecked(stack.size(), body)
    }

    /// Creates a coroutine whose body is not `'static`.
    ///
    /// # Safety
    /// As for the assembly backend: the caller must drive the coroutine to
    /// completion (or drop it) before any borrow captured by `body` dies.
    pub unsafe fn new_unchecked<F>(stack_size: usize, body: F) -> Self
    where
        F: FnOnce(&Yielder<In, Y, R>, In) -> R,
    {
        let (to_fiber, from_caller) = sync_channel::<SendCell<ToFiber<In>>>(1);
        let (to_caller, from_fiber) = sync_channel::<SendCell<FromFiber<Y, R>>>(1);
        // The whole fiber main is erased to `Box<dyn FnOnce() + 'static>`:
        // the lifetime erasure is covered by this function's safety contract
        // (the Coroutine is driven to completion or dropped — and drop joins
        // the thread — before any borrow dies), and the Send erasure by the
        // rendezvous discipline (module docs).
        let fiber_main = move || {
            let first = match from_caller.recv() {
                Ok(SendCell(ToFiber::Resume(input))) => input,
                _ => return, // cancelled before first resume or dropped
            };
            let yielder = Yielder {
                to_caller: to_caller.clone(),
                from_caller: &from_caller,
            };
            let out = match catch_unwind(AssertUnwindSafe(move || body(&yielder, first))) {
                Ok(r) => FromFiber::Complete(r),
                Err(p) if p.is::<ForcedUnwind>() => FromFiber::Cancelled,
                Err(p) => FromFiber::Panicked(p),
            };
            let _ = to_caller.send(SendCell(out));
        };
        let fiber_main: Box<dyn FnOnce() + 'static> =
            std::mem::transmute(Box::new(fiber_main) as Box<dyn FnOnce() + '_>);
        let cell = SendCell(fiber_main);
        let handle = std::thread::Builder::new()
            .stack_size(stack_size.max(512 * 1024)) // OS stacks are lazily committed; floor generously
            .name("ptdf-fiber".into())
            .spawn(move || {
                // Capture the whole SendCell (edition-2021 disjoint capture
                // would otherwise capture the non-Send boxed closure).
                let cell = cell;
                (cell.0)()
            })
            .expect("spawn fiber thread");
        Coroutine {
            to_fiber,
            from_fiber,
            handle: Some(handle),
            started: false,
            done: false,
            stack: Stack::new(64), // placeholder for API parity (canary etc.)
            _not_send: PhantomData,
        }
    }

    /// Resumes the coroutine with `input` (see the assembly backend).
    pub fn resume(&mut self, input: In) -> Step<Y, R> {
        assert!(!self.done, "resume called on a completed coroutine");
        self.started = true;
        self.to_fiber
            .send(SendCell(ToFiber::Resume(input)))
            .expect("fiber thread alive");
        match self.from_fiber.recv().expect("fiber thread alive").0 {
            FromFiber::Yield(y) => Step::Yield(y),
            FromFiber::Complete(r) => {
                self.done = true;
                self.join_thread();
                Step::Complete(r)
            }
            FromFiber::Panicked(p) => {
                self.done = true;
                self.join_thread();
                resume_unwind(p)
            }
            FromFiber::Cancelled => unreachable!("cancel without drop"),
        }
    }

    fn join_thread(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// True once the body has returned or unwound.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Placeholder stack (real stacks belong to the OS threads here).
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// API-parity shim for the assembly backend's `into_stack`: there is no
    /// reusable host stack on this backend, so this always returns `None`
    /// (see [`crate::HAS_REAL_STACKS`]).
    pub fn into_stack(self) -> Option<Stack> {
        None
    }
}

impl<In, Y, R> Drop for Coroutine<In, Y, R> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        // Cancel: the body (if started) unwinds via ForcedUnwind; if never
        // started, the fiber thread exits at its first recv.
        let _ = self.to_fiber.send(SendCell(ToFiber::Cancel));
        if self.started {
            // Wait for the unwind acknowledgement.
            let _ = self.from_fiber.recv();
        }
        self.join_thread();
    }
}

impl<In, Y, R> fmt::Debug for Coroutine<In, Y, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coroutine(thread-backend)")
            .field("started", &self.started)
            .field("done", &self.done)
            .finish()
    }
}
