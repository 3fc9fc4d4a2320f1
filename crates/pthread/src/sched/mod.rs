//! Scheduling policies.
//!
//! A policy manages the set of schedulable threads. The engine calls into it
//! at thread creation, wakeup, block, exit, and dispatch. Entries carry a
//! `ready_at` virtual timestamp: a thread published at time `t` by one
//! processor is invisible to another processor dispatching at an earlier
//! virtual time (the simulation's causality rule). The rule binds **every**
//! dispatch path, steals included: a work-stealing or `DFDeques` thief may
//! neither take an entry published in its causal future nor reach *behind*
//! such an entry where the policy's order makes it a barrier (a `DFDeques`
//! deque whose top is ineligible is not stealable at all).

mod df;
mod dfdeques;
mod fifo;
mod lifo;
mod ws;

#[cfg(test)]
mod reference;

#[cfg(test)]
mod diff_tests;

pub(crate) use df::DfSched;
pub(crate) use dfdeques::DfDequesSched;
pub(crate) use fifo::FifoSched;
pub(crate) use lifo::LifoSched;
pub(crate) use ws::WsSched;

use ptdf_smp::{ProcId, VirtTime};

use crate::config::{Config, SchedKind};
use crate::thread::ThreadId;

/// Result of a dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pop {
    /// A thread to run; `stolen` marks a work-stealing migration (extra cost).
    Got { tid: ThreadId, stolen: bool },
    /// Nothing eligible yet; the earliest entry becomes ready at this time.
    NotYet(VirtTime),
    /// No schedulable entries exist anywhere.
    Empty,
}

/// A scheduling policy. All methods are called with engine-quiesced state.
pub(crate) trait Policy {
    /// Policy identity (for reports).
    fn kind(&self) -> SchedKind;

    /// Whether dispatch/queue operations go through the single global
    /// scheduler lock (true for FIFO/LIFO/DF — the paper's serialized
    /// scheduler; false for per-processor work stealing).
    fn global_lock(&self) -> bool {
        true
    }

    /// Whether fork preempts the parent and hands the child to the parent's
    /// processor (DF and child-first work stealing).
    fn preempt_on_fork(&self) -> bool {
        false
    }

    /// Per-quantum memory quota in bytes (DF policy only).
    fn quota(&self) -> Option<u64> {
        None
    }

    /// A thread was created on processor `on_proc`. `enqueue` is false when
    /// the engine will direct-hand the child to a processor
    /// (preempt-on-fork policies); the policy may still need a placeholder
    /// (DF's ordered list).
    #[allow(clippy::too_many_arguments)]
    fn on_create(
        &mut self,
        t: ThreadId,
        parent: Option<ThreadId>,
        prio: i32,
        enqueue: bool,
        at: VirtTime,
        on_proc: ProcId,
    );

    /// A thread became ready (woken, preempted, yielded, or parent re-queued
    /// after fork). `waker` is the processor that published the wakeup;
    /// `affinity` is the processor the thread last ran on (kernel
    /// processor-affinity hint — honoured by the queue policies, ignored by
    /// the DF policy, whose strict depth-first order is exactly the
    /// locality-blindness the paper's §5.3 discusses).
    fn on_ready(
        &mut self,
        t: ThreadId,
        prio: i32,
        at: VirtTime,
        waker: ProcId,
        affinity: Option<ProcId>,
    );

    /// A thread blocked (placeholder policies keep its position).
    fn on_block(&mut self, _t: ThreadId) {}

    /// A thread exited; drop any placeholder.
    fn on_exit(&mut self, _t: ThreadId) {}

    /// Processor `p` asks for a thread at virtual time `now`.
    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop;

    /// Number of ready (schedulable) entries, for diagnostics.
    fn ready_len(&self) -> usize;

    /// Number of successful steals over the run (0 for policies that never
    /// migrate work between processors).
    fn steals(&self) -> u64 {
        0
    }

    /// Processor the most recent successful steal took its thread from
    /// (flight-recorder provenance; `None` for non-stealing policies or
    /// when the victim deque was orphaned).
    fn last_steal_victim(&self) -> Option<ProcId> {
        None
    }

    /// Current number of live deques, for policies organized around deques
    /// (`None` for the single-queue policies).
    fn active_deques(&self) -> Option<usize> {
        None
    }
}

/// How many of the leftmost ready threads a [`SchedKind::DfLocal`]
/// processor may inspect for an affinity match.
const LOCALITY_WINDOW: usize = 16;

/// Instantiates the policy selected by `config`.
pub(crate) fn make_policy(config: &Config) -> Box<dyn Policy> {
    match config.scheduler {
        SchedKind::Fifo => Box::new(FifoSched::new()),
        SchedKind::Lifo => Box::new(LifoSched::new()),
        SchedKind::Df => Box::new(DfSched::new(config.quota.max(1))),
        SchedKind::DfLocal => Box::new(DfSched::with_window(
            config.quota.max(1),
            LOCALITY_WINDOW,
            config.processors,
        )),
        SchedKind::DfDeques => {
            Box::new(DfDequesSched::new(config.quota.max(1), config.processors))
        }
        SchedKind::Ws => {
            // Schedule perturbation re-keys the victim sequence: steal
            // targeting is the Ws policy's own schedule degree of freedom,
            // so each perturbation seed explores a different one.
            let seed = match config.schedule.perturb_seed() {
                Some(ps) => config.seed ^ ps.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15,
                None => config.seed,
            };
            Box::new(WsSched::new(config.processors, seed))
        }
    }
}
