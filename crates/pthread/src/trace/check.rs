//! Happens-before checker over flight-recorder traces.
//!
//! Consumes the event stream the runtime already records — spawn,
//! block/wake (with reason and sync-object id), notify, join, steal — and
//! verifies that the schedule it describes is causally consistent:
//!
//! * **Block/wake alternation** — every thread alternates `Block` and
//!   `Wake`; a second block without an intervening wake, or a wake of a
//!   thread that is not blocked, is flagged.
//! * **Lost notifies** — a [`EventKind::Notify`] that observed waiters but
//!   woke none of them ([`Violation::LostNotify`]); this is the signature
//!   of a dropped wakeup in a notify-style primitive, recorded by the
//!   primitive itself at the instant it ran, so no wait-list state has to
//!   be reconstructed from interleaved per-processor timestamps.
//! * **Lost wakeups** — a thread still blocked when the trace ends
//!   ([`Violation::LostWakeup`]).
//! * **Waits past notify** — a lost wakeup whose sync object received a
//!   naked notify (no waiters present, nobody woken) *in the blocked
//!   thread's causal past*, established with vector clocks: the thread
//!   observed the notify before deciding to wait, i.e. the classic
//!   missing-predicate-recheck bug ([`Violation::WaitPastNotify`]).
//! * **Unrecorded handoffs** — every wake of a thread blocked on a sync
//!   object must be published by a thread that performed a `Notify` on
//!   that object ([`Violation::WakeWithoutNotify`]); there are exactly
//!   **three sanctioned wakes** that require no notifier — join wakes
//!   (they block on a thread, not an object), [`EventKind::Timeout`]
//!   wakes (the deadline heap published the wake), and
//!   [`EventKind::Cancel`] wakes (a cancellation request evicted and woke
//!   the waiter to unwind).
//! * **Lifecycle causality** — a thread cannot first-dispatch before its
//!   spawn, exit before its first dispatch, or be joined before its exit;
//!   the run's `live-threads` counter must return to zero.
//! * **Deadlocks** — the runtime's deadlock sentinel records one
//!   [`EventKind::Deadlock`] event per waits-for-cycle member; the checker
//!   reassembles the cycle and reports it as [`Violation::Deadlock`], so a
//!   trace containing a detected deadlock is dirty by construction.
//!
//! ## Why the checker runs in timestamp order, not "engine order"
//!
//! Virtual times across processors are **not** a linearization of the
//! engine's execution order: a notifier whose processor clock reads 50ns
//! can serve a waiter that blocked at 100ns on a faster processor. The
//! trace is stable-sorted by virtual time (ties keep publication order),
//! and every rule above is chosen to be sound in that order — per-thread
//! sequences stay ordered because a wake never timestamps earlier than
//! its block (the runtime's `make_ready` clamps with `max`), and
//! cross-thread rules rely only on self-recorded `Notify` payloads and
//! vector-clock edges, never on comparing wait-list sizes across
//! processors.
//!
//! Together with deterministic schedule perturbation
//! (`Config::with_perturbation`), any flagged run is a repro: the
//! `(policy, seed)` pair in [`CheckReport::replay`] replays the identical
//! schedule bit-for-bit.

use std::collections::{HashMap, HashSet};

use ptdf_smp::VirtTime;

use super::critpath::{causal_edge, CausalEdge};
use super::index::TraceIndex;
use super::{BlockReason, EventKind, Trace};

/// One causality violation found in a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A thread blocked while already blocked (no intervening wake).
    DoubleBlock {
        /// Offending thread.
        thread: u32,
        /// Time of the block it never woke from.
        first: VirtTime,
        /// Time of the second block.
        second: VirtTime,
    },
    /// A thread was woken while not blocked.
    SpuriousWake {
        /// Woken thread.
        thread: u32,
        /// Time of the wake.
        at: VirtTime,
    },
    /// A wake timestamped before the block it resolves (the engine clamps
    /// wake times with `max(clock, blocked_at)`, so this can only appear
    /// in corrupted or hand-built traces).
    WakeTimeInversion {
        /// Woken thread.
        thread: u32,
        /// When it blocked.
        blocked_at: VirtTime,
        /// When it was (impossibly early) woken.
        woken_at: VirtTime,
    },
    /// A wake of an object-blocked thread whose waker never recorded a
    /// `Notify` on that object: the handoff protocol was bypassed.
    WakeWithoutNotify {
        /// Woken thread.
        thread: u32,
        /// Waking thread, when the trace knows it.
        waker: Option<u32>,
        /// Sync object the woken thread was blocked on.
        obj: u32,
        /// Time of the wake.
        at: VirtTime,
    },
    /// A notify-style operation observed waiters but woke none of them.
    LostNotify {
        /// Primitive kind.
        reason: BlockReason,
        /// Sync object.
        obj: u32,
        /// Time of the operation.
        at: VirtTime,
        /// Waiters it observed (and abandoned).
        waiters: u64,
    },
    /// A thread was still blocked when the trace ended.
    LostWakeup {
        /// Stranded thread.
        thread: u32,
        /// What it blocked on.
        reason: BlockReason,
        /// Sync object, when the block names one.
        obj: Option<u32>,
        /// When it blocked.
        blocked_at: VirtTime,
    },
    /// A stranded thread whose sync object received a naked notify in the
    /// thread's own causal past (vector-clock ordered before its block):
    /// the thread waited *past* a notify it had already observed.
    WaitPastNotify {
        /// Stranded thread.
        thread: u32,
        /// Sync object.
        obj: u32,
        /// When the thread blocked.
        blocked_at: VirtTime,
        /// The causally-earlier naked notify it missed.
        notified_at: VirtTime,
    },
    /// A join completed before its target's recorded exit.
    JoinBeforeExit {
        /// Joining thread.
        joiner: u32,
        /// Joined thread.
        target: u32,
        /// When the join completed.
        join_at: VirtTime,
        /// When the target actually exited.
        exit_at: VirtTime,
    },
    /// A thread's first dispatch precedes its spawn, or its exit precedes
    /// its first dispatch.
    LifecycleInversion {
        /// Offending thread.
        thread: u32,
        /// The earlier bound that was violated.
        bound: VirtTime,
        /// The event time that undershot it.
        at: VirtTime,
    },
    /// A monotonic run invariant tracked by a counter failed (e.g. the
    /// `live-threads` track not returning to zero at end of run).
    CounterLeak {
        /// Counter track name.
        track: String,
        /// Its final sampled value.
        last: u64,
    },
    /// A free underflowed the live byte count — a double free in the
    /// modelled program (machine-recorded; see
    /// `MemStats::free_underflows`).
    FreeUnderflow {
        /// Bytes by which the free exceeded the live count.
        bytes: u64,
        /// Time of the offending free.
        at: VirtTime,
    },
    /// The runtime's deadlock sentinel detected a waits-for cycle (recorded
    /// as one [`EventKind::Deadlock`] event per member). Thread `cycle[i]`
    /// waits for a resource held by `cycle[(i + 1) % len]`.
    Deadlock {
        /// Member thread ids in waits-for order.
        cycle: Vec<u32>,
        /// Time of detection.
        at: VirtTime,
    },
    /// The committed footprint crossed the armed space bound
    /// (`Config::with_space_bound`, typically `S1 + c·p·D`).
    SpaceBound {
        /// Footprint after the crossing growth.
        footprint: u64,
        /// The armed bound in bytes.
        bound: u64,
        /// Time of the crossing.
        at: VirtTime,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::DoubleBlock { thread, first, second } => write!(
                f,
                "double block: t{thread} blocked at {second} while still blocked from {first}"
            ),
            Violation::SpuriousWake { thread, at } => {
                write!(f, "spurious wake: t{thread} woken at {at} while not blocked")
            }
            Violation::WakeTimeInversion { thread, blocked_at, woken_at } => write!(
                f,
                "wake time inversion: t{thread} woken at {woken_at}, before its block at {blocked_at}"
            ),
            Violation::WakeWithoutNotify { thread, waker, obj, at } => write!(
                f,
                "wake without notify: t{thread} (blocked on obj {obj}) woken at {at} by {} \
                 which recorded no notify on that object",
                match waker {
                    Some(w) => format!("t{w}"),
                    None => "an unknown waker".into(),
                }
            ),
            Violation::LostNotify { reason, obj, at, waiters } => write!(
                f,
                "lost notify: {} obj {obj} at {at} observed {waiters} waiter(s) but woke none",
                reason.name()
            ),
            Violation::LostWakeup { thread, reason, obj, blocked_at } => write!(
                f,
                "lost wakeup: t{thread} still blocked on {}{} at end of trace (blocked at {blocked_at})",
                reason.name(),
                match obj {
                    Some(o) => format!(" obj {o}"),
                    None => String::new(),
                }
            ),
            Violation::WaitPastNotify { thread, obj, blocked_at, notified_at } => write!(
                f,
                "wait past notify: t{thread} blocked on obj {obj} at {blocked_at}, after \
                 causally observing the naked notify at {notified_at}"
            ),
            Violation::JoinBeforeExit { joiner, target, join_at, exit_at } => write!(
                f,
                "join before exit: t{joiner} joined t{target} at {join_at}, before its exit at {exit_at}"
            ),
            Violation::LifecycleInversion { thread, bound, at } => write!(
                f,
                "lifecycle inversion: t{thread} event at {at} precedes its lower bound {bound}"
            ),
            Violation::CounterLeak { track, last } => {
                write!(f, "counter leak: track {track:?} ends at {last}, expected 0")
            }
            Violation::FreeUnderflow { bytes, at } => write!(
                f,
                "free underflow: a free at {at} exceeded the live byte count by {bytes} \
                 (double free)"
            ),
            Violation::Deadlock { cycle, at } => {
                write!(f, "deadlock at {at}: waits-for cycle ")?;
                for t in cycle {
                    write!(f, "t{t} -> ")?;
                }
                write!(f, "t{}", cycle.first().copied().unwrap_or(0))
            }
            Violation::SpaceBound { footprint, bound, at } => write!(
                f,
                "space bound exceeded: footprint {footprint} crossed the armed bound \
                 {bound} at {at}"
            ),
        }
    }
}

/// Result of [`check_trace`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Everything the checker flagged, in timestamp order of discovery.
    pub violations: Vec<Violation>,
    /// Events examined.
    pub events: usize,
    /// Threads seen (lifecycle table).
    pub threads: usize,
    /// Replay recipe for the schedule, when the trace carries one —
    /// e.g. `"--sched df --perturb-seed 42"`. Rerunning the same workload
    /// with this policy and seed reproduces the flagged schedule exactly.
    pub replay: Option<String>,
}

impl CheckReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sparse vector clock: `(thread id, last observed event counter)`, sorted by
/// thread id.
#[derive(Debug, Clone, Default, PartialEq)]
struct Vc(Vec<(u32, u64)>);

impl Vc {
    fn position(&self, t: u32) -> Result<usize, usize> {
        self.0.binary_search_by_key(&t, |&(thread, _)| thread)
    }

    fn tick(&mut self, t: u32) -> u64 {
        let i = self.position(t).unwrap_or_else(|i| {
            self.0.insert(i, (t, 0));
            i
        });
        self.0[i].1 += 1;
        self.0[i].1
    }

    fn get(&self, t: u32) -> u64 {
        self.position(t).map_or(0, |i| self.0[i].1)
    }

    /// Componentwise maximum: one merge of the two sorted lists.
    fn join(&mut self, other: &Vc) {
        if other.0.is_empty() {
            return;
        }
        let mut mine = std::mem::take(&mut self.0).into_iter().peekable();
        for &(t, c) in &other.0 {
            while let Some(entry) = mine.next_if(|m| m.0 < t) {
                self.0.push(entry);
            }
            let c = mine.next_if(|m| m.0 == t).map_or(c, |m| m.1.max(c));
            self.0.push((t, c));
        }
        self.0.extend(mine);
    }
}

/// `vcs[into]` absorbs the clock of the thread in slot `from`; a thread
/// without a slot has no clock to absorb.
fn absorb(vcs: &mut [Vc], into: usize, from: Option<usize>) {
    if let Some(from) = from.filter(|&from| from != into) {
        let other = std::mem::take(&mut vcs[from]);
        vcs[into].join(&other);
        vcs[from] = other;
    }
}

/// A thread's open block, awaiting its wake.
struct PendingBlock {
    reason: BlockReason,
    obj: Option<u32>,
    at: VirtTime,
    /// A naked notify on `obj` that was already in this thread's causal
    /// past when it blocked (the waits-past-notify precondition).
    missed_notify: Option<VirtTime>,
}

/// Past the VC bound the checker stops maintaining vector clocks (their
/// cost is O(threads) per join); the order-insensitive rules still run.
const VC_THREAD_LIMIT: usize = 4096;

/// Runs every happens-before rule over `trace` and reports violations.
///
/// The trace is checked in stable virtual-time order (re-sorting is
/// idempotent for traces produced by `run`). A clean report means
/// the recorded schedule is causally consistent under the rules listed in
/// the [module docs](self); it does *not* prove the program race-free —
/// only that this schedule's synchronization protocol held.
pub fn check_trace(trace: &Trace) -> CheckReport {
    check(trace).0
}

/// [`check_trace`], plus the number of distinct (sync object, notifier)
/// pairs it ended with — the checker's only per-handoff state, which must
/// stay bounded by objects × threads however long the trace is.
fn check(trace: &Trace) -> (CheckReport, usize) {
    let idx = TraceIndex::new(trace);
    let track_vcs = trace.threads.len() <= VC_THREAD_LIMIT;
    let mut violations = Vec::new();
    // Per-thread state lives in vectors keyed by the index's thread slot.
    let mut vcs = vec![Vc::default(); if track_vcs { idx.threads() } else { 0 }];
    let mut pending: Vec<Option<PendingBlock>> = (0..idx.threads()).map(|_| None).collect();
    let mut obj_vcs: HashMap<u32, Vc> = HashMap::new();
    // (sync-object id, thread) for every thread that performed a Notify on
    // the object: a set, so a long-lived mutex costs one entry per thread
    // that ever handed it off, not one per handoff.
    let mut notifiers: HashSet<(u32, u32)> = HashSet::new();
    // Naked notifies per object: (notifier, notifier's VC counter, time).
    // Only a notifier's first one is kept — its counter is the smallest, so
    // whenever a later one is in a thread's causal past, so is the first.
    let mut naked: HashMap<u32, Vec<(u32, u64, VirtTime)>> = HashMap::new();
    // Sentinel-recorded deadlocks: cycle id → (detection time, members in
    // waits-for order — the runtime publishes one event per member, in
    // cycle order, at the same timestamp).
    let mut cycles: HashMap<u32, (VirtTime, Vec<u32>)> = HashMap::new();

    // Machine-recorded memory diagnostics, reported after everything else.
    // (They ride in with `thread: None`, which the causality rules skip.)
    let mut memory = Vec::new();

    for e in idx.events() {
        match e.kind {
            EventKind::FreeUnderflow { bytes } => {
                memory.push(Violation::FreeUnderflow { bytes, at: e.at });
            }
            EventKind::BoundViolation { footprint, bound } => {
                memory.push(Violation::SpaceBound {
                    footprint,
                    bound,
                    at: e.at,
                });
            }
            _ => {}
        }
        let Some(subject) = e.thread else { continue };
        let s = idx.slot(subject).expect("an event's subject has a slot");
        let tick = |vcs: &mut [Vc]| if track_vcs { vcs[s].tick(subject) } else { 0 };
        // The happens-before content of the event, shared with the
        // critical-path analyzer (`critpath::analyze`): every vector-clock
        // join below consumes a [`CausalEdge`], so the two features cannot
        // disagree on what constitutes an ordering edge.
        let edge = causal_edge(e);
        match e.kind {
            EventKind::Spawn { .. } => {
                if track_vcs {
                    if let Some(CausalEdge::Spawn { parent, .. }) = edge {
                        let p = idx.slot(parent).expect("a spawn parent has a slot");
                        vcs[p].tick(parent);
                        absorb(&mut vcs, s, Some(p));
                    }
                }
                tick(&mut vcs);
            }
            EventKind::Block { reason, obj } => {
                tick(&mut vcs);
                if let Some(prev) = &pending[s] {
                    violations.push(Violation::DoubleBlock {
                        thread: subject,
                        first: prev.at,
                        second: e.at,
                    });
                }
                let mut missed_notify = None;
                if let Some(CausalEdge::BlockPublish { obj: o, .. }) = edge {
                    if track_vcs {
                        // Waits-past-notify precondition: a naked notify on
                        // this object already in our causal past.
                        if let Some(list) = naked.get(&o) {
                            missed_notify = list
                                .iter()
                                .find(|&&(w, c, _)| vcs[s].get(w) >= c)
                                .map(|&(_, _, at)| at);
                        }
                        obj_vcs.entry(o).or_default().join(&vcs[s]);
                    }
                }
                pending[s] = Some(PendingBlock {
                    reason,
                    obj,
                    at: e.at,
                    missed_notify,
                });
            }
            EventKind::Notify {
                reason,
                obj,
                waiters,
                woken,
            } => {
                let counter = tick(&mut vcs);
                if track_vcs {
                    if let Some(CausalEdge::NotifyExchange { obj, .. }) = edge {
                        let ovc = obj_vcs.entry(obj).or_default();
                        vcs[s].join(ovc);
                        ovc.join(&vcs[s]);
                    }
                }
                notifiers.insert((obj, subject));
                if waiters > 0 && woken == 0 {
                    violations.push(Violation::LostNotify {
                        reason,
                        obj,
                        at: e.at,
                        waiters,
                    });
                }
                if waiters == 0 && woken == 0 {
                    let list = naked.entry(obj).or_default();
                    if !list.iter().any(|&(w, ..)| w == subject) {
                        list.push((subject, counter, e.at));
                    }
                }
            }
            EventKind::Wake { .. } | EventKind::Timeout { .. } | EventKind::Cancel { .. } => {
                // The three ways a block ends. Only a wake needs a notifier:
                // a timeout is published by the deadline heap
                // (`CausalEdge::Timeout` carries no inbound ordering) and a
                // cancel by the canceller — the sanctioned exceptions to the
                // handoff protocol, with join wakes. And only a cancel may
                // find no block: delivery at a cancellation point the thread
                // reached while running has none to resolve.
                let block = pending[s].take();
                if block.is_none() && !matches!(e.kind, EventKind::Cancel { .. }) {
                    violations.push(Violation::SpuriousWake {
                        thread: subject,
                        at: e.at,
                    });
                    continue;
                }
                if let Some(block) = block {
                    if e.at < block.at {
                        violations.push(Violation::WakeTimeInversion {
                            thread: subject,
                            blocked_at: block.at,
                            woken_at: e.at,
                        });
                    }
                    // Handoff protocol: an object-blocked thread may only be
                    // woken by a thread that notified the object. Join
                    // blocks (obj None) are woken by the exiting target.
                    if let (EventKind::Wake { waker }, Some(o)) = (e.kind, block.obj) {
                        if !waker.is_some_and(|w| notifiers.contains(&(o, w))) {
                            violations.push(Violation::WakeWithoutNotify {
                                thread: subject,
                                waker,
                                obj: o,
                                at: e.at,
                            });
                        }
                    }
                }
                if let Some(
                    CausalEdge::Wake { waker: Some(w), .. }
                    | CausalEdge::Cancel { by: Some(w), .. },
                ) = edge
                {
                    if track_vcs {
                        absorb(&mut vcs, s, idx.slot(w));
                    }
                }
                tick(&mut vcs);
            }
            EventKind::Deadlock { cycle, .. } => {
                tick(&mut vcs);
                let slot = cycles.entry(cycle).or_insert_with(|| (e.at, Vec::new()));
                if !slot.1.contains(&subject) {
                    slot.1.push(subject);
                }
            }
            EventKind::Join { target } => {
                tick(&mut vcs);
                if let Some(CausalEdge::Join { target, .. }) = edge {
                    if track_vcs {
                        absorb(&mut vcs, s, idx.slot(target));
                    }
                }
                if let Some(exit) = idx.exit_of(target) {
                    if e.at < exit {
                        violations.push(Violation::JoinBeforeExit {
                            joiner: subject,
                            target,
                            join_at: e.at,
                            exit_at: exit,
                        });
                    }
                }
            }
            _ => {
                tick(&mut vcs);
            }
        }
    }

    // Sentinel-detected waits-for cycles, reassembled from their per-member
    // events; a trace with a detected deadlock is dirty by construction.
    let mut detected: Vec<_> = cycles.into_iter().collect();
    detected.sort_by_key(|&(id, _)| id);
    for (_, (at, cycle)) in detected {
        violations.push(Violation::Deadlock { cycle, at });
    }

    // Threads still blocked at end of trace: lost wakeups; refine with the
    // vector-clock waits-past-notify evidence gathered at block time.
    // Slots ascend with thread ids, so these come out in thread order.
    for (slot, block) in pending.into_iter().enumerate() {
        let Some(block) = block else { continue };
        let thread = idx.thread(slot);
        violations.push(Violation::LostWakeup {
            thread,
            reason: block.reason,
            obj: block.obj,
            blocked_at: block.at,
        });
        if let (Some(obj), Some(notified_at)) = (block.obj, block.missed_notify) {
            violations.push(Violation::WaitPastNotify {
                thread,
                obj,
                blocked_at: block.at,
                notified_at,
            });
        }
    }

    // Lifecycle causality from the (independently recorded) thread table.
    for lc in &trace.threads {
        if let Some(fd) = lc.first_dispatch {
            if fd < lc.spawned {
                violations.push(Violation::LifecycleInversion {
                    thread: lc.thread,
                    bound: lc.spawned,
                    at: fd,
                });
            }
            if let Some(exit) = lc.exited {
                if exit < fd {
                    violations.push(Violation::LifecycleInversion {
                        thread: lc.thread,
                        bound: fd,
                        at: exit,
                    });
                }
            }
        }
    }

    // Every created thread must eventually die: the live-threads track
    // returns to zero on a completed run.
    if let Some(&(_, last)) = trace.counters.live_threads.last() {
        if last != 0 {
            violations.push(Violation::CounterLeak {
                track: "live-threads".into(),
                last,
            });
        }
    }

    violations.append(&mut memory);

    let report = CheckReport {
        violations,
        events: trace.events.len(),
        threads: trace.threads.len(),
        replay: replay_recipe(trace),
    };
    (report, notifiers.len())
}

fn replay_recipe(trace: &Trace) -> Option<String> {
    let mut flags = Vec::new();
    if let Some(seed) = trace.meta.perturb_seed {
        flags.push(format!("--perturb-seed {seed}"));
    }
    if let Some(seed) = trace.meta.chaos_seed {
        flags.push(format!("--chaos-seed {seed}"));
    }
    if flags.is_empty() {
        return None;
    }
    Some(format!(
        "--sched {} {}",
        trace.meta.scheduler,
        flags.join(" ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Event;

    fn ns(v: u64) -> VirtTime {
        VirtTime::from_ns(v)
    }

    fn event(at: u64, thread: u32, kind: EventKind) -> Event {
        Event {
            at: ns(at),
            proc: 0,
            thread: Some(thread),
            kind,
        }
    }

    #[test]
    fn vc_join_and_tick() {
        let mut a = Vc::default();
        a.tick(1);
        a.tick(1);
        let mut b = Vc::default();
        b.tick(2);
        b.join(&a);
        assert_eq!(b.get(1), 2);
        assert_eq!(b.get(2), 1);
        assert_eq!(a.get(2), 0, "join is one-directional");
    }

    #[test]
    fn synthetic_lost_notify_is_flagged() {
        let mut trace = Trace::default();
        trace.events.push(event(
            10,
            1,
            EventKind::Block {
                reason: BlockReason::Condvar,
                obj: Some(7),
            },
        ));
        trace.events.push(event(
            20,
            2,
            EventKind::Notify {
                reason: BlockReason::Condvar,
                obj: 7,
                waiters: 1,
                woken: 0,
            },
        ));
        let check = check_trace(&trace);
        assert!(check.violations.iter().any(|v| matches!(
            v,
            Violation::LostNotify {
                obj: 7,
                waiters: 1,
                ..
            }
        )));
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LostWakeup { thread: 1, .. })));
    }

    #[test]
    fn synthetic_double_block_and_spurious_wake() {
        let mut trace = Trace::default();
        let block = EventKind::Block {
            reason: BlockReason::Mutex,
            obj: Some(0),
        };
        trace.events.push(event(10, 1, block));
        trace.events.push(event(20, 1, block));
        trace
            .events
            .push(event(30, 2, EventKind::Wake { waker: Some(3) }));
        let check = check_trace(&trace);
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DoubleBlock { thread: 1, .. })));
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SpuriousWake { thread: 2, .. })));
    }

    #[test]
    fn wait_past_notify_detected_through_vector_clocks() {
        // t2 spawns t1 (so t1's clock knows t2's naked notify), then t1
        // blocks on the object the notify already hit: the classic
        // missed-signal-then-wait bug, invisible to timestamp comparison
        // alone but established by the vector-clock edge spawn(t2 → t1).
        let mut trace = Trace::default();
        trace.events.push(event(
            5,
            2,
            EventKind::Notify {
                reason: BlockReason::Condvar,
                obj: 9,
                waiters: 0,
                woken: 0,
            },
        ));
        trace
            .events
            .push(event(6, 1, EventKind::Spawn { parent: Some(2) }));
        trace.events.push(event(
            10,
            1,
            EventKind::Block {
                reason: BlockReason::Condvar,
                obj: Some(9),
            },
        ));
        let check = check_trace(&trace);
        assert!(
            check.violations.iter().any(|v| matches!(
                v,
                Violation::WaitPastNotify {
                    thread: 1,
                    obj: 9,
                    ..
                }
            )),
            "expected WaitPastNotify, got {:?}",
            check.violations
        );
        // Control: without the spawn edge the notify is concurrent with
        // the block, so the refinement must NOT fire (lost wakeup only).
        let mut concurrent = Trace::default();
        concurrent.events.push(event(
            5,
            2,
            EventKind::Notify {
                reason: BlockReason::Condvar,
                obj: 9,
                waiters: 0,
                woken: 0,
            },
        ));
        concurrent.events.push(event(
            10,
            1,
            EventKind::Block {
                reason: BlockReason::Condvar,
                obj: Some(9),
            },
        ));
        let check = check_trace(&concurrent);
        assert!(!check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::WaitPastNotify { .. })));
    }

    #[test]
    fn long_lived_object_keeps_one_notifier_entry_per_thread() {
        // A mutex convoy: 8 threads hand one lock around 50,000 times. Each
        // handoff is block → notify → wake; the checker's notifier state
        // must end at the 8 distinct notifiers, not 50,000 entries.
        let mut trace = Trace::default();
        for k in 0..50_000u64 {
            let (holder, waiter) = ((k % 8) as u32, ((k + 1) % 8) as u32);
            let block = EventKind::Block {
                reason: BlockReason::Mutex,
                obj: Some(0),
            };
            let notify = EventKind::Notify {
                reason: BlockReason::Mutex,
                obj: 0,
                waiters: 1,
                woken: 1,
            };
            let wake = EventKind::Wake {
                waker: Some(holder),
            };
            trace.events.push(event(3 * k, waiter, block));
            trace.events.push(event(3 * k + 1, holder, notify));
            trace.events.push(event(3 * k + 2, waiter, wake));
        }
        let (report, notifier_entries) = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations.first());
        assert_eq!(report.events, 150_000);
        assert_eq!(notifier_entries, 8);
    }

    #[test]
    fn join_uses_the_first_lifecycle_entry_for_a_thread() {
        // Two lifecycle rows claim thread 1 (a hand-edited trace); the
        // first one is the one a join is checked against.
        let lifecycle = |exited| crate::trace::ThreadLifecycle {
            thread: 1,
            spawned: ns(0),
            first_dispatch: None,
            ready_wait: ns(0),
            quanta: 0,
            exited,
        };
        let mut trace = Trace::default();
        trace.threads.push(lifecycle(Some(ns(100))));
        trace.threads.push(lifecycle(Some(ns(10))));
        trace
            .events
            .push(event(50, 0, EventKind::Join { target: 1 }));
        let check = check_trace(&trace);
        assert_eq!(
            check.violations,
            vec![Violation::JoinBeforeExit {
                joiner: 0,
                target: 1,
                join_at: ns(50),
                exit_at: ns(100),
            }]
        );
    }

    #[test]
    fn timeout_resolves_a_pending_block_without_notify() {
        // A timed wait that expires produces Block → Timeout with no Notify
        // anywhere; the checker must treat the deadline wake as sanctioned
        // (no WakeWithoutNotify) and resolved (no LostWakeup).
        let mut trace = Trace::default();
        trace.events.push(event(
            10,
            1,
            EventKind::Block {
                reason: BlockReason::Mutex,
                obj: Some(3),
            },
        ));
        trace
            .events
            .push(event(60, 1, EventKind::Timeout { obj: Some(3) }));
        let check = check_trace(&trace);
        assert!(check.is_clean(), "{:?}", check.violations);
        // A timeout of a thread that never blocked is still flagged.
        let mut bad = Trace::default();
        bad.events
            .push(event(5, 2, EventKind::Timeout { obj: None }));
        let check = check_trace(&bad);
        assert!(check
            .violations
            .iter()
            .any(|v| matches!(v, Violation::SpuriousWake { thread: 2, .. })));
    }

    #[test]
    fn cancel_resolves_a_pending_block_without_notify() {
        // A cancelled blocked waiter produces Block → Cancel with no
        // Notify anywhere; the checker must treat the cancel wake as
        // sanctioned (no WakeWithoutNotify) and resolved (no LostWakeup).
        let mut trace = Trace::default();
        trace.events.push(event(
            10,
            1,
            EventKind::Block {
                reason: BlockReason::Condvar,
                obj: Some(3),
            },
        ));
        trace.events.push(event(
            60,
            1,
            EventKind::Cancel {
                obj: Some(3),
                by: Some(0),
            },
        ));
        let check = check_trace(&trace);
        assert!(check.is_clean(), "{:?}", check.violations);
        // Unlike Timeout, a Cancel with no pending block is NOT spurious:
        // running-thread delivery at a cancellation point has no block.
        let mut running = Trace::default();
        running.events.push(event(
            5,
            2,
            EventKind::Cancel {
                obj: None,
                by: None,
            },
        ));
        let check = check_trace(&running);
        assert!(check.is_clean(), "{:?}", check.violations);
    }

    #[test]
    fn deadlock_events_reassemble_into_a_cycle_violation() {
        let mut trace = Trace::default();
        for (member, next) in [(1u32, 2u32), (2, 3), (3, 1)] {
            trace.events.push(event(
                100,
                member,
                EventKind::Deadlock {
                    cycle: 0,
                    waits_for: next,
                    obj: Some(member),
                },
            ));
        }
        let check = check_trace(&trace);
        assert!(!check.is_clean());
        let v = check
            .violations
            .iter()
            .find_map(|v| match v {
                Violation::Deadlock { cycle, .. } => Some(cycle.clone()),
                _ => None,
            })
            .expect("deadlock violation");
        assert_eq!(v, vec![1, 2, 3], "members in waits-for order");
        let text = check.violations[0].to_string();
        assert!(text.contains("t1 -> t2 -> t3 -> t1"), "{text}");
    }
}
