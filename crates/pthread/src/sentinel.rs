//! The deadlock sentinel and its types: timed-wait errors, structured
//! deadlock reports, and the stall verdict produced by the virtual-time
//! watchdog.
//!
//! The sentinel ([`Sentinel`]) keeps the waits-for edges the thread table
//! does not hold (thread → resource → holder) and runs an incremental cycle
//! check every time a thread is about to
//! block on an ownership-bearing resource (mutex, rwlock, join). When the
//! block would close a cycle, the blocking thread is *not* enqueued; instead
//! a [`DeadlockError`] panic payload unwinds it, the cycle is recorded into
//! [`crate::Report::deadlocks`] as a [`DeadlockInfo`], and one
//! `Deadlock` flight-recorder event per cycle member names the cycle for
//! `ptdf-trace check`.
//!
//! Waits that cannot be avoided are bounded instead: the timed APIs
//! ([`crate::Mutex::lock_timeout`], [`crate::Condvar::wait_timeout`],
//! [`crate::Semaphore::acquire_timeout`], [`crate::JoinHandle::join_timeout`])
//! return [`TimedOut`] via a per-processor deadline heap in the machine. And
//! when every processor goes idle while live threads remain (a lost wakeup or
//! livelock the cycle check cannot see), the watchdog halts the run with a
//! [`StallInfo`] verdict instead of spinning or panicking deep in the engine;
//! [`crate::try_run`] surfaces it as a [`RunError`].

use std::collections::HashMap;

use ptdf_smp::{Machine, VirtTime};

use crate::runtime::Inner;
use crate::thread::{TState, ThreadId, ThreadTable, Wait};
use crate::trace::{BlockReason, EventKind};
use crate::waitq::Holders;

/// A timed synchronization wait expired before the resource was granted.
///
/// Returned by the `*_timeout` family of sync APIs. The wait is measured in
/// *virtual* time on the waiting thread's processor clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOut;

impl std::fmt::Display for TimedOut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("timed wait expired before the resource was granted")
    }
}

impl std::error::Error for TimedOut {}

/// One detected waits-for cycle.
///
/// `cycle` lists the member thread ids in waits-for order: thread `cycle[i]`
/// waits for a resource held (or being exited) by `cycle[(i + 1) % len]`. A
/// self-deadlock (relocking a non-recursive mutex) is the 1-cycle `[t]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Thread ids forming the cycle, in waits-for order.
    pub cycle: Vec<u32>,
    /// Sync-object ids each member waits on (`None` for a join edge),
    /// parallel to `cycle`.
    pub objs: Vec<Option<u32>>,
    /// Virtual time (on the detecting thread's processor) of detection.
    pub at: VirtTime,
}

impl std::fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadlock at {:?}: ", self.at)?;
        for t in &self.cycle {
            write!(f, "t{t} -> ")?;
        }
        write!(f, "t{}", self.cycle.first().copied().unwrap_or(0))
    }
}

/// Panic payload unwinding a thread whose block would have closed a
/// waits-for cycle.
///
/// The runtime raises this *instead of blocking*: the thread never joins the
/// waiter queue, so its unwind releases every lock it holds (guard
/// destructors run during the unwind) and the rest of the cycle proceeds.
/// The panic is delivered to whoever joins the thread; use
/// [`crate::JoinHandle::try_join`] to observe it without re-raising.
#[derive(Debug, Clone)]
pub struct DeadlockError {
    /// The cycle that would have formed, starting at the unwound thread.
    pub info: DeadlockInfo,
}

impl std::fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "waits-for cycle: {}", self.info)
    }
}

impl std::error::Error for DeadlockError {}

/// One live-but-stuck thread in a [`StallInfo`] verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledThread {
    /// Thread id.
    pub thread: u32,
    /// Why it blocked, if it is blocked (`None` for a ready-but-never-
    /// dispatched thread, which indicates an engine bug rather than an
    /// application hang).
    pub reason: Option<BlockReason>,
    /// The sync object it waits on, if the wait names one.
    pub obj: Option<u32>,
    /// Virtual time of the thread's last event (its block time, or spawn
    /// time if it never ran).
    pub since: VirtTime,
}

/// The virtual-time watchdog's verdict: every processor went idle while
/// live threads remained — a lost wakeup or livelock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallInfo {
    /// Virtual time (max processor clock) when the stall was declared.
    pub at: VirtTime,
    /// Scheduling policy name (as in [`crate::SchedKind`]).
    pub scheduler: String,
    /// Every live thread and what it was waiting for.
    pub threads: Vec<StalledThread>,
}

impl std::fmt::Display for StallInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stalled at {:?} under {}: all processors idle, {} live thread(s):",
            self.at,
            self.scheduler,
            self.threads.len()
        )?;
        for t in &self.threads {
            let reason = t
                .reason
                .map(|r| r.name())
                .unwrap_or("ready (never dispatched)");
            match t.obj {
                Some(obj) => writeln!(
                    f,
                    "  t{} blocked on {reason} #{obj} since {:?}",
                    t.thread, t.since
                )?,
                None => writeln!(f, "  t{} blocked on {reason} since {:?}", t.thread, t.since)?,
            }
        }
        Ok(())
    }
}

/// A run halted without completing: the watchdog declared a stall.
///
/// Returned by [`crate::try_run`]; carries the partial [`crate::Report`]
/// (statistics, any trace, and any deadlocks detected before the stall).
#[derive(Debug)]
pub struct RunError {
    /// The stall verdict.
    pub stall: StallInfo,
    /// The partial report for the halted run.
    pub report: Box<crate::Report>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.stall)?;
        for d in self.report.deadlocks() {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

/// The deadlock sentinel's state for one run: the live waits-for edges it
/// cannot read off the thread table, the cycle probe's scratch, and the
/// cycles found so far.
#[derive(Default)]
pub(crate) struct Sentinel {
    /// Current holders of each *contended* sync object, published by the
    /// primitives at block/handoff time only — the uncontended fast path
    /// never touches this map, keeping sentinel bookkeeping off the hot
    /// path. An entry exists exactly while the object has queued waiters.
    holders: HashMap<u32, Holders>,
    /// [`Sentinel::check_for_cycle`]'s scratch, kept between probes so that
    /// a probe allocates nothing: the path walked so far, and the threads
    /// already visited.
    probe_path: Vec<(ThreadId, Option<u32>)>,
    probe_seen: Vec<ThreadId>,
    /// Waits-for cycles detected so far (delivered via
    /// [`crate::Report::deadlocks`]).
    pub deadlocks: Vec<DeadlockInfo>,
}

impl Sentinel {
    /// Publishes the holder set of a contended sync object (or retires the
    /// entry when `holders` is empty). Primitives call this only on their
    /// contended paths, so the map stays off the uncontended hot path.
    pub fn note_holders(&mut self, obj: u32, holders: Holders) {
        if !holders.as_slice().is_empty() {
            self.holders.insert(obj, holders);
        } else if !self.holders.is_empty() {
            self.holders.remove(&obj);
        }
    }

    /// Walks the waits-for graph of `threads` from a prospective edge — `me`
    /// about to block on `obj` (follow its published holders) or on thread
    /// `target` (join) — and returns the cycle, detected at `at`, if one
    /// would close. Called *before* the thread enqueues, so a detected
    /// deadlock leaves every queue untouched and the caller can unwind
    /// instead of blocking.
    pub fn check_for_cycle(
        &mut self,
        threads: &ThreadTable,
        me: ThreadId,
        obj: Option<u32>,
        target: Option<ThreadId>,
        at: VirtTime,
    ) -> Option<DeadlockInfo> {
        fn successors<'a>(holders: &'a HashMap<u32, Holders>, w: &'a Wait) -> &'a [ThreadId] {
            match (&w.target, w.obj) {
                (Some(t), _) => std::slice::from_ref(t),
                // Only a wait on an owner has a "who must act" edge.
                (None, Some(o)) if crate::waitq::owned(w.reason) => {
                    holders.get(&o).map_or(&[], Holders::as_slice)
                }
                _ => &[],
            }
        }
        fn walk(
            threads: &ThreadTable,
            holders: &HashMap<u32, Holders>,
            me: ThreadId,
            t: ThreadId,
            path: &mut Vec<(ThreadId, Option<u32>)>,
            seen: &mut Vec<ThreadId>,
        ) -> bool {
            if t == me {
                return true;
            }
            // A walk visits a handful of threads: a list beats a hash.
            if seen.contains(&t) {
                return false;
            }
            seen.push(t);
            // Exited threads, never-issued ids (the outside-a-runtime owner
            // sentinel) and runnable threads have no outgoing edge.
            let Some(tcb) = threads.get(t) else {
                return false;
            };
            if tcb.state != TState::Blocked {
                return false;
            }
            // A deadline-bounded wait cannot sustain a deadlock: the engine
            // will wake it at its deadline, breaking any cycle through it.
            if tcb.deadline.is_some() {
                return false;
            }
            // Nor can a waiter with a live cancellation request: delivery
            // will evict and unwind it, breaking the cycle.
            if tcb.cancel_requested && tcb.cancel_enabled {
                return false;
            }
            let Some(w) = tcb.wait.as_ref() else {
                return false;
            };
            path.push((t, w.obj));
            for &s in successors(holders, w) {
                if walk(threads, holders, me, s, path, seen) {
                    return true;
                }
            }
            path.pop();
            false
        }
        let edge = Wait {
            reason: obj.map_or(BlockReason::Join, |_| BlockReason::Mutex),
            obj,
            target,
        };
        let first = successors(&self.holders, &edge);
        if first.is_empty() {
            return None;
        }
        let (path, seen) = (&mut self.probe_path, &mut self.probe_seen);
        path.clear();
        seen.clear();
        path.push((me, obj));
        for &s in first {
            if walk(threads, &self.holders, me, s, path, seen) {
                return Some(DeadlockInfo {
                    cycle: path.iter().map(|(t, _)| t.0).collect(),
                    objs: path.iter().map(|(_, o)| *o).collect(),
                    at,
                });
            }
        }
        None
    }

    /// The watchdog's verdict when all processors are idle with live
    /// threads: who is alive, what each waits on, and since when.
    pub fn stall_info(threads: &ThreadTable, machine: &Machine, scheduler: &str) -> StallInfo {
        let at = (0..machine.processors())
            .map(|q| machine.clock(q))
            .max()
            .unwrap_or(VirtTime::ZERO);
        let threads = threads
            .live_ids()
            .map(|id| {
                let t = threads.live(id);
                StalledThread {
                    thread: id.0,
                    reason: t.wait.map(|w| w.reason),
                    obj: t.wait.and_then(|w| w.obj),
                    since: t.blocked_at,
                }
            })
            .collect();
        StallInfo {
            at,
            scheduler: scheduler.to_string(),
            threads,
        }
    }
}

impl Inner {
    /// The sentinel's gate before the current thread blocks untimed on
    /// `obj` (an owned sync object) or on thread `target` (join): when that
    /// edge would close a waits-for cycle, records the cycle — appended to
    /// the report list, and one `Deadlock` event per member, all sharing the
    /// cycle's index and naming who each member waits for and through which
    /// object, through the recorder hook — and returns it.
    pub(crate) fn probe_deadlock(
        &mut self,
        obj: Option<u32>,
        target: Option<ThreadId>,
    ) -> Option<DeadlockInfo> {
        let (me, p) = self.cur.expect("block outside a thread");
        let at = self.machine.clock(p);
        let info = self
            .sentinel
            .check_for_cycle(&self.threads, me, obj, target, at)?;
        let (cycle, n) = (self.sentinel.deadlocks.len() as u32, info.cycle.len());
        for (i, (&member, &obj)) in info.cycle.iter().zip(&info.objs).enumerate() {
            let waits_for = info.cycle[(i + 1) % n];
            let kind = EventKind::Deadlock {
                cycle,
                waits_for,
                obj,
            };
            self.trace_event(p, member, kind);
        }
        self.sentinel.deadlocks.push(info.clone());
        Some(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Attr;
    use crate::thread::{Kind, Tcb};

    /// Thread 0 is running and holds mutex 0; thread 1 holds mutex 1 and
    /// waits for mutex 0.
    fn two_threads_two_mutexes() -> (ThreadTable, Sentinel, ThreadId, ThreadId) {
        let mut threads = ThreadTable::new();
        let me = threads.issue(Tcb::new(Kind::User, Attr::default(), 0));
        let mut waiter = Tcb::new(Kind::User, Attr::default(), 0);
        waiter.state = TState::Blocked;
        waiter.wait = Some(Wait {
            reason: BlockReason::Mutex,
            obj: Some(0),
            target: None,
        });
        let other = threads.issue(waiter);
        let mut sentinel = Sentinel::default();
        sentinel.note_holders(0, Holders::One(me));
        sentinel.note_holders(1, Holders::One(other));
        (threads, sentinel, me, other)
    }

    #[test]
    fn a_two_cycle_is_reported() {
        let (threads, mut sentinel, me, other) = two_threads_two_mutexes();
        let at = VirtTime::from_us(3);
        let info = sentinel.check_for_cycle(&threads, me, Some(1), None, at);
        let info = info.expect("locking mutex 1 closes the cycle");
        assert_eq!(info.cycle, vec![me.0, other.0]);
        assert_eq!(info.objs, vec![Some(1), Some(0)]);
        assert_eq!(info.at, at);
        // Locking a free mutex closes nothing.
        assert!(sentinel
            .check_for_cycle(&threads, me, Some(2), None, at)
            .is_none());
    }

    #[test]
    fn the_same_cycle_through_a_timed_wait_is_not_a_deadlock() {
        let (mut threads, mut sentinel, me, other) = two_threads_two_mutexes();
        threads.live_mut(other).deadline = Some(VirtTime::from_us(9));
        let at = VirtTime::ZERO;
        assert!(sentinel
            .check_for_cycle(&threads, me, Some(1), None, at)
            .is_none());
    }

    #[test]
    fn the_same_cycle_through_a_waiter_with_a_live_cancel_is_not_a_deadlock() {
        let (mut threads, mut sentinel, me, other) = two_threads_two_mutexes();
        threads.live_mut(other).cancel_requested = true;
        let at = VirtTime::ZERO;
        assert!(sentinel
            .check_for_cycle(&threads, me, Some(1), None, at)
            .is_none());
        // A request latched while cancellation is disabled breaks nothing.
        threads.live_mut(other).cancel_enabled = false;
        assert!(sentinel
            .check_for_cycle(&threads, me, Some(1), None, at)
            .is_some());
    }

    #[test]
    fn deadlock_info_displays_the_cycle() {
        let info = DeadlockInfo {
            cycle: vec![2, 5, 9],
            objs: vec![Some(1), Some(2), Some(3)],
            at: VirtTime::from_us(7),
        };
        let s = info.to_string();
        assert!(s.contains("t2 -> t5 -> t9 -> t2"), "{s}");
    }

    #[test]
    fn stall_info_names_every_thread() {
        let stall = StallInfo {
            at: VirtTime::from_ms(1),
            scheduler: "df".into(),
            threads: vec![StalledThread {
                thread: 3,
                reason: Some(BlockReason::Condvar),
                obj: Some(12),
                since: VirtTime::from_us(500),
            }],
        };
        let s = stall.to_string();
        assert!(s.contains("t3 blocked on condvar #12"), "{s}");
        assert!(s.contains("1 live thread(s)"), "{s}");
    }
}
