//! Direct access to the scheduler dispatch hot paths for benchmarking.
//!
//! Only compiled under the `bench-internals` feature. The benchmark crate
//! uses this to drive a scheduling policy (`sched::Policy`) through
//! synthetic fork/join storms without the engine, fibers, or cost model in
//! the way — isolating the per-dispatch cost that the indexed schedulers
//! optimise.
//!
//! This is **not** part of the public API proper: types are flattened to
//! primitives (`u32` thread ids, `u64` nanosecond times) so the bench crate
//! needs no access to crate internals, and the surface may change freely.

use ptdf_smp::VirtTime;

use crate::sched::{DfDequesSched, DfSched, Policy, Pop, WsSched};
use crate::thread::ThreadId;

/// Result of a [`BenchPolicy::pop`], mirroring the internal `Pop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchPop {
    /// A thread to run.
    Got {
        /// Dispatched thread id.
        tid: u32,
        /// True when the dispatch migrated work between processors.
        stolen: bool,
    },
    /// Nothing eligible yet; earliest entry becomes ready at this time (ns).
    NotYet(u64),
    /// No schedulable entries exist.
    Empty,
}

/// A scheduling policy driven directly (no engine).
pub struct BenchPolicy {
    inner: Box<dyn Policy>,
}

impl BenchPolicy {
    /// The indexed depth-first scheduler (paper §4).
    pub fn df(quota: u64) -> Self {
        BenchPolicy {
            inner: Box::new(DfSched::new(quota)),
        }
    }

    /// The indexed `DFDeques` scheduler.
    pub fn dfdeques(quota: u64, procs: usize) -> Self {
        BenchPolicy {
            inner: Box::new(DfDequesSched::new(quota, procs)),
        }
    }

    /// The per-processor work-stealing scheduler.
    pub fn ws(procs: usize, seed: u64) -> Self {
        BenchPolicy {
            inner: Box::new(WsSched::new(procs, seed)),
        }
    }

    /// Thread `tid` created by `parent` on processor `p` at `at_ns`;
    /// `enqueue` false models a preempt-on-fork direct handoff.
    pub fn on_create(
        &mut self,
        tid: u32,
        parent: Option<u32>,
        enqueue: bool,
        at_ns: u64,
        p: usize,
    ) {
        self.inner.on_create(
            ThreadId(tid),
            parent.map(ThreadId),
            0,
            enqueue,
            VirtTime::from_ns(at_ns),
            p,
        );
    }

    /// Thread `tid` became ready, published by processor `waker` at `at_ns`.
    pub fn on_ready(&mut self, tid: u32, at_ns: u64, waker: usize, affinity: Option<usize>) {
        self.inner
            .on_ready(ThreadId(tid), 0, VirtTime::from_ns(at_ns), waker, affinity);
    }

    /// Thread `tid` blocked.
    pub fn on_block(&mut self, tid: u32) {
        self.inner.on_block(ThreadId(tid));
    }

    /// Thread `tid` exited.
    pub fn on_exit(&mut self, tid: u32) {
        self.inner.on_exit(ThreadId(tid));
    }

    /// Processor `p` asks for a thread at virtual time `now_ns`.
    pub fn pop(&mut self, p: usize, now_ns: u64) -> BenchPop {
        match self.inner.pop(p, VirtTime::from_ns(now_ns)) {
            Pop::Got { tid, stolen } => BenchPop::Got { tid: tid.0, stolen },
            Pop::NotYet(t) => BenchPop::NotYet(t.as_ns()),
            Pop::Empty => BenchPop::Empty,
        }
    }

    /// Number of ready (schedulable) entries.
    pub fn ready_len(&self) -> usize {
        self.inner.ready_len()
    }
}
