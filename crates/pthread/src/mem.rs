//! Tracked memory allocation: the reproduction of the paper's instrumented
//! `malloc`/`free` (§4 item 2).
//!
//! Applications route their significant allocations through [`rt_alloc`] /
//! [`rt_free`] (or the RAII [`TrackedBuf`]). In a runtime with the DF
//! policy, allocations are charged against the current thread's per-quantum
//! memory quota `K`:
//!
//! * an allocation that drives the quota to (or below) zero **preempts** the
//!   thread — it re-enters the ready queue at its depth-first position and
//!   receives a fresh quota on its next dispatch;
//! * an allocation of `m > K` bytes first inserts `δ = ⌈m/K⌉` no-op *dummy
//!   threads* to the left of the allocating thread, so that the processors
//!   must burn `δ` scheduling quanta (giving leftward, serially-earlier
//!   threads a chance to run) before the large allocation proceeds.
//!
//! The paper forks the dummies as a binary tree (the Pthreads interface only
//! has binary fork); this reproduction inserts them directly as `δ` sibling
//! entries, which preserves the throttle (δ quanta of scheduler work) while
//! charging all creation costs to the allocating thread. See DESIGN.md.

use std::collections::HashMap;
use std::fmt;

use ptdf_smp::Prng;

use crate::runtime::{suspend_current, with_active, ActiveCtx};
use crate::thread::YieldReason;

// ---------------------------------------------------------------------------
// Allocation ledger
// ---------------------------------------------------------------------------

/// Per-thread slice of the allocation ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ThreadLedger {
    /// Thread id (the `ThreadId`'s raw value).
    pub thread: u32,
    /// Bytes this thread allocated via `rt_alloc`.
    pub allocated: u64,
    /// Bytes this thread freed via `rt_free`.
    pub freed: u64,
    /// TLS slot bytes currently attributed to this thread.
    pub tls_bytes: u64,
}

/// End-of-run summary of the allocation ledger: what leaked, what
/// double-freed, and what the failure injector did. Available on
/// [`crate::Report::leaks`] when the run was configured with
/// [`crate::Config::with_ledger`].
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct LeakReport {
    /// Total bytes allocated through `rt_alloc` over the run.
    pub total_allocated: u64,
    /// Total bytes freed through `rt_free` over the run.
    pub total_freed: u64,
    /// Bytes allocated but never freed (`0` in a leak-free run).
    pub leaked_bytes: u64,
    /// TLS bytes still attributed at run end (`0` once every thread's slots
    /// were destroyed at exit).
    pub tls_leaked_bytes: u64,
    /// Frees that underflowed the machine's live byte count — double frees.
    pub free_underflows: u64,
    /// Allocation failures injected by the seeded failure injector.
    pub injected_failures: u64,
    /// Threads with a non-zero net balance (allocated ≠ freed or resident
    /// TLS bytes), sorted by thread id. Cross-thread handoff (one thread
    /// allocates, another frees) legitimately produces entries here; the
    /// run-level totals above are the leak verdict.
    pub per_thread: Vec<ThreadLedger>,
}

impl LeakReport {
    /// True when nothing leaked and nothing double-freed.
    pub fn is_clean(&self) -> bool {
        self.leaked_bytes == 0 && self.tls_leaked_bytes == 0 && self.free_underflows == 0
    }
}

/// The allocation ledger: exact, per-thread attribution of tracked memory,
/// plus the seeded allocation-failure injector. Owned by the runtime when
/// armed via [`crate::Config::with_ledger`]; replaces "a bare counter" with
/// accounting that can name the thread behind every leaked byte.
#[derive(Debug)]
pub(crate) struct Ledger {
    per_thread: HashMap<u32, ThreadLedger>,
    total_allocated: u64,
    total_freed: u64,
    total_tls: u64,
    injector: Option<Injector>,
}

#[derive(Debug)]
struct Injector {
    prng: Prng,
    rate: u64,
    injected: u64,
}

impl Ledger {
    /// A ledger; `fail` = `(seed, rate)` arms the failure injector.
    pub(crate) fn new(fail: Option<(u64, u64)>) -> Self {
        Ledger {
            per_thread: HashMap::new(),
            total_allocated: 0,
            total_freed: 0,
            total_tls: 0,
            injector: fail.map(|(seed, rate)| Injector {
                prng: Prng::new(seed ^ 0x1ED6_E20F_A117_B17E),
                rate,
                injected: 0,
            }),
        }
    }

    fn entry(&mut self, thread: u32) -> &mut ThreadLedger {
        self.per_thread.entry(thread).or_insert(ThreadLedger {
            thread,
            ..ThreadLedger::default()
        })
    }

    pub(crate) fn charge_alloc(&mut self, thread: u32, bytes: u64) {
        self.total_allocated += bytes;
        self.entry(thread).allocated += bytes;
    }

    pub(crate) fn charge_free(&mut self, thread: u32, bytes: u64) {
        self.total_freed += bytes;
        self.entry(thread).freed += bytes;
    }

    pub(crate) fn charge_tls(&mut self, thread: u32, bytes: u64) {
        self.total_tls += bytes;
        self.entry(thread).tls_bytes += bytes;
    }

    pub(crate) fn release_tls(&mut self, thread: u32, bytes: u64) {
        self.total_tls = self.total_tls.saturating_sub(bytes);
        let e = self.entry(thread);
        e.tls_bytes = e.tls_bytes.saturating_sub(bytes);
    }

    /// Consults the failure injector for one fallible allocation request.
    /// Returns `true` when the request must fail.
    pub(crate) fn should_fail(&mut self) -> bool {
        match self.injector.as_mut() {
            Some(inj) => {
                let fail = inj.prng.chance(1, inj.rate);
                if fail {
                    inj.injected += 1;
                }
                fail
            }
            None => false,
        }
    }

    /// Builds the end-of-run report; `free_underflows` comes from the
    /// machine's checked-free counter.
    pub(crate) fn report(&self, free_underflows: u64) -> LeakReport {
        let mut per_thread: Vec<ThreadLedger> = self
            .per_thread
            .values()
            .filter(|t| t.allocated != t.freed || t.tls_bytes != 0)
            .copied()
            .collect();
        per_thread.sort_by_key(|t| t.thread);
        LeakReport {
            total_allocated: self.total_allocated,
            total_freed: self.total_freed,
            leaked_bytes: self.total_allocated.saturating_sub(self.total_freed),
            tls_leaked_bytes: self.total_tls,
            free_underflows,
            injected_failures: self.injector.as_ref().map_or(0, |i| i.injected),
            per_thread,
        }
    }
}

/// Error returned by [`try_rt_alloc`] when the seeded failure injector
/// rejects the request (modelling `malloc` returning `NULL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Requested size in bytes.
    pub bytes: u64,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allocation of {} bytes failed (injected)", self.bytes)
    }
}

impl std::error::Error for AllocError {}

/// Registers an allocation of `bytes` with the active context, charging
/// allocation costs and enforcing the DF memory quota. Returns after the
/// (possibly delayed) allocation is accounted.
pub fn rt_alloc(bytes: u64) {
    let rc = match with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => Some(rc.clone()),
        Some(ActiveCtx::Serial(rc)) => {
            rc.borrow_mut().machine.alloc(0, bytes);
            None
        }
        None => None,
    }) {
        Some(rc) => rc,
        None => return,
    };

    // Quota enforcement (DF policy only).
    let quota = rc.borrow().policy.quota();
    if let Some(k) = quota {
        if bytes > k {
            // Large allocation: insert δ = ⌈bytes/K⌉ dummy threads at our
            // depth-first position and preempt; the allocation proceeds on
            // redispatch. The dummies are forked lazily as a binary tree
            // (the Pthreads interface only has binary fork, §4 item 2), so
            // only O(log δ) of them are live at once per processor.
            let delta = bytes.div_ceil(k.max(1));
            {
                let mut inner = rc.borrow_mut();
                // Lenient on context: an allocating destructor during stall
                // teardown has no current thread; skip the bookkeeping.
                let Some((cur, p)) = inner.cur else {
                    return;
                };
                let kind = crate::trace::EventKind::DummyInsert { count: delta };
                inner.trace_event(p, cur.0, kind);
                inner.create_dummy_tree(cur, p, delta);
            }
            suspend_current(&rc, YieldReason::Preempted);
        }
    }

    let over_quota = {
        let mut inner = rc.borrow_mut();
        let Some((cur, p)) = inner.cur else {
            return;
        };
        inner.machine.alloc(p, bytes);
        if let Some(ledger) = inner.ledger.as_mut() {
            ledger.charge_alloc(cur.0, bytes);
        }
        if quota.is_some() {
            let t = inner.threads.live_mut(cur);
            t.quota -= bytes as i64;
            t.quota <= 0
        } else {
            false
        }
    };
    if over_quota {
        // "When the counter reaches zero, the thread is preempted."
        suspend_current(&rc, YieldReason::Preempted);
    } else {
        crate::runtime::maybe_timeslice(&rc);
    }
}

/// Registers a free of `bytes` with the active context.
///
/// A free of more bytes than are live (a double free in the modelled
/// program) is no longer silently saturated away: the machine counts it
/// into `MemStats::free_underflows`, records a trace event (surfaced as a
/// violation by [`crate::check_trace`]), and the leak report shows it.
pub fn rt_free(bytes: u64) {
    with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => {
            // During engine teardown (forced unwind) the context may be
            // mid-borrow; skip accounting rather than double-panic.
            if let Ok(mut inner) = rc.try_borrow_mut() {
                if let Some((cur, p)) = inner.cur {
                    let _underflow = inner.machine.free(p, bytes);
                    if let Some(ledger) = inner.ledger.as_mut() {
                        ledger.charge_free(cur.0, bytes);
                    }
                }
            }
        }
        Some(ActiveCtx::Serial(rc)) => {
            let _ = rc.borrow_mut().machine.free(0, bytes);
        }
        None => {}
    });
}

/// Fallible variant of [`rt_alloc`]: consults the run's seeded failure
/// injector ([`crate::Config::with_alloc_failures`]) before accounting.
/// Returns `Err` without charging anything when the injector rejects the
/// request; otherwise behaves exactly like [`rt_alloc`]. Without an armed
/// injector this never fails.
pub fn try_rt_alloc(bytes: u64) -> Result<(), AllocError> {
    let fail = with_active(|ctx| match ctx {
        Some(ActiveCtx::Par(rc)) => rc
            .borrow_mut()
            .ledger
            .as_mut()
            .is_some_and(Ledger::should_fail),
        _ => false,
    });
    if fail {
        return Err(AllocError { bytes });
    }
    rt_alloc(bytes);
    Ok(())
}

/// A heap buffer whose size is tracked by the active run's memory model.
///
/// The buffer is a real `Vec<T>` (the benchmarks compute real results in
/// it); construction charges `rt_alloc(len * size_of::<T>())` and drop
/// charges the matching `rt_free`.
#[derive(Debug)]
pub struct TrackedBuf<T> {
    data: Vec<T>,
    bytes: u64,
}

impl<T> TrackedBuf<T> {
    /// Tracks an existing vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        let bytes = (data.capacity() * std::mem::size_of::<T>()) as u64;
        rt_alloc(bytes);
        TrackedBuf { data, bytes }
    }

    /// Allocates `n` copies of `value`.
    pub fn filled(value: T, n: usize) -> Self
    where
        T: Clone,
    {
        Self::from_vec(vec![value; n])
    }

    /// Allocates `n` default-valued elements.
    pub fn zeroed(n: usize) -> Self
    where
        T: Default + Clone,
    {
        Self::filled(T::default(), n)
    }

    /// Tracked size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Consumes the buffer, releasing the tracking, and returns the vector.
    pub fn into_vec(mut self) -> Vec<T> {
        rt_free(self.bytes);
        self.bytes = 0;
        std::mem::take(&mut self.data)
    }
}

impl<T> std::ops::Deref for TrackedBuf<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> std::ops::DerefMut for TrackedBuf<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for TrackedBuf<T> {
    fn drop(&mut self) {
        if self.bytes > 0 {
            rt_free(self.bytes);
        }
    }
}
