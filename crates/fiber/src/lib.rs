//! Stackful user-level coroutines ("fibers") with hand-written context switching.
//!
//! This crate is the lowest-level substrate of the SC'98 Pthreads reproduction:
//! it plays the role that `setjmp`/`longjmp`-style user-level context switching
//! played inside the Solaris threads library. A [`Coroutine`] owns a private
//! call stack; [`Coroutine::resume`] transfers control onto that stack, and the
//! coroutine transfers control back by calling [`Yielder::suspend`]. Control
//! transfer is a ~20-instruction assembly routine that saves and restores the
//! callee-saved register set and swaps stack pointers — no syscalls, no heap
//! traffic, no OS scheduler involvement. Creating a coroutine on a given
//! stack makes no heap allocation either: its mailbox and its body closure
//! live in a record at the top of that stack (a body too large for it is
//! boxed inside the record).
//!
//! # Example
//!
//! ```
//! use ptdf_fiber::{Coroutine, Step};
//!
//! // A coroutine that receives `u32`s, yields `&'static str`s, and returns a `String`.
//! let mut co = Coroutine::<u32, &'static str, String>::new(16 * 1024, |yielder, first| {
//!     let second = yielder.suspend("got first");
//!     let third = yielder.suspend("got second");
//!     format!("{first}+{second}+{third}")
//! });
//! assert_eq!(co.resume(1), Step::Yield("got first"));
//! assert_eq!(co.resume(2), Step::Yield("got second"));
//! assert_eq!(co.resume(3), Step::Complete("1+2+3".to_string()));
//! ```
//!
//! # Safety model
//!
//! The assembly backend (`arch`) is only built on `x86_64`; the [`Stack`] type
//! allocates 16-byte-aligned stacks with a canary region that is checked on
//! drop so that silent stack overflows are loudly reported. Dropping a
//! suspended coroutine force-unwinds its stack so that destructors of live
//! frames run (see [`ForcedUnwind`]).
//!
//! **Stack sizing:** a panic raised inside a coroutine runs the panic hook
//! (message formatting, and backtrace capture in debug builds) on the
//! coroutine's own stack, which can take tens of kilobytes. Code that may
//! panic on a fiber should use generous stacks (the 64 KiB
//! [`DEFAULT_STACK_SIZE`] is a reasonable floor; debug builds may want
//! more).

#![warn(missing_docs)]

mod coro_api;
mod pool;
mod stack;

#[cfg(all(target_arch = "x86_64", not(feature = "thread-backend")))]
mod arch;
#[cfg(all(target_arch = "x86_64", not(feature = "thread-backend")))]
mod coro;
#[cfg(all(target_arch = "x86_64", not(feature = "thread-backend")))]
pub use coro::{Coroutine, Yielder};

#[cfg(not(all(target_arch = "x86_64", not(feature = "thread-backend"))))]
mod thread_coro;
#[cfg(not(all(target_arch = "x86_64", not(feature = "thread-backend"))))]
pub use thread_coro::{Coroutine, Yielder};

pub use coro_api::{ForcedUnwind, Step};
pub use pool::{StackPool, StackPoolStats, DEFAULT_POOL_CAP};
pub use stack::{Stack, StackOverflow, DEFAULT_STACK_SIZE, MIN_STACK_SIZE};

/// True when this build's [`Coroutine`] runs on real, recyclable host stacks
/// (the assembly backend). The portable thread backend parks one OS thread
/// per coroutine instead; its `into_stack` always returns `None`, so a
/// [`StackPool`] never gets a stack back and every acquire is a miss.
pub const HAS_REAL_STACKS: bool =
    cfg!(all(target_arch = "x86_64", not(feature = "thread-backend")));

#[cfg(test)]
mod coro_tests;
#[cfg(test)]
mod prop_tests;
