//! The two queue policies: the original Solaris policy (FIFO, §3) and the
//! LIFO policy (§4 item 1). One ready queue per priority level; a forked
//! child is queued and the parent keeps running. The two differ only in
//! which end a thread joins, and a dispatch takes the first eligible entry
//! from the front either way:
//!
//! * **FIFO** queues at the back, so the computation graph executes
//!   breadth-first — the behaviour whose space and time costs the paper's
//!   §3 documents.
//! * **LIFO** queues at the front, so the most recently readied thread runs
//!   next: an order close to depth-first, which already reduces the number
//!   of simultaneously live threads dramatically compared to FIFO.
//!
//! Woken (previously-run) threads carry a processor-affinity hint: a
//! dispatching processor prefers the first eligible entry that last ran on
//! it, modelling the kernel's LWP/CPU affinity. This matters for the
//! coarse-grained SPMD benchmarks, which park at barriers every iteration.

use std::collections::{BTreeMap, VecDeque};

use ptdf_smp::{ProcId, VirtTime};

use crate::config::SchedKind;
use crate::sched::{Policy, Pop};
use crate::thread::ThreadId;

#[derive(Debug, Clone, Copy)]
struct Entry {
    tid: ThreadId,
    at: VirtTime,
    affinity: Option<ProcId>,
}

#[derive(Debug)]
pub(crate) struct QueueSched {
    /// [`SchedKind::Fifo`] or [`SchedKind::Lifo`]: which end a thread joins.
    kind: SchedKind,
    /// priority → queue; dispatched from the front. Iterated in reverse
    /// order so higher priorities win.
    queues: BTreeMap<i32, VecDeque<Entry>>,
    ready: usize,
}

impl QueueSched {
    /// The FIFO or the LIFO policy, as `kind` says.
    pub fn new(kind: SchedKind) -> Self {
        debug_assert!(matches!(kind, SchedKind::Fifo | SchedKind::Lifo));
        QueueSched {
            kind,
            queues: BTreeMap::new(),
            ready: 0,
        }
    }

    fn push(&mut self, tid: ThreadId, prio: i32, at: VirtTime, affinity: Option<ProcId>) {
        let q = self.queues.entry(prio).or_default();
        let e = Entry { tid, at, affinity };
        match self.kind {
            SchedKind::Lifo => q.push_front(e),
            _ => q.push_back(e),
        }
        self.ready += 1;
    }
}

impl Policy for QueueSched {
    fn kind(&self) -> SchedKind {
        self.kind
    }

    fn on_create(
        &mut self,
        t: ThreadId,
        _parent: Option<ThreadId>,
        prio: i32,
        enqueue: bool,
        at: VirtTime,
        _on_proc: ProcId,
    ) {
        debug_assert!(enqueue, "queue policies never direct-hand children");
        if enqueue {
            self.push(t, prio, at, None);
        }
    }

    fn on_ready(
        &mut self,
        t: ThreadId,
        prio: i32,
        at: VirtTime,
        _waker: ProcId,
        affinity: Option<ProcId>,
    ) {
        self.push(t, prio, at, affinity);
    }

    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop {
        if self.ready == 0 {
            return Pop::Empty;
        }
        let mut earliest: Option<VirtTime> = None;
        for (_, q) in self.queues.iter_mut().rev() {
            // Take the first eligible entry, unless it last ran on a
            // *different* processor and a later eligible entry has affinity
            // for this one (in which case swap preference — the other entry
            // will be picked up by its own processor). This keeps the
            // queue's order while modelling CPU affinity.
            let eligible = |e: &Entry| e.at <= now;
            let first = q.iter().position(eligible);
            let pos = match first {
                Some(f) if q[f].affinity.is_some() && q[f].affinity != Some(p) => q
                    .iter()
                    .position(|e| eligible(e) && e.affinity == Some(p))
                    .or(first),
                other => other,
            };
            if let Some(pos) = pos {
                let e = q.remove(pos).expect("position valid");
                self.ready -= 1;
                return Pop::Got {
                    tid: e.tid,
                    stolen: false,
                };
            }
            if let Some(min) = q.iter().map(|e| e.at).min() {
                earliest = Some(earliest.map_or(min, |x: VirtTime| if min < x { min } else { x }));
            }
        }
        match earliest {
            Some(t) => Pop::NotYet(t),
            None => Pop::Empty,
        }
    }

    fn ready_len(&self) -> usize {
        self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    fn got(tid: ThreadId) -> Pop {
        Pop::Got { tid, stolen: false }
    }

    fn fifo() -> QueueSched {
        QueueSched::new(SchedKind::Fifo)
    }

    fn lifo() -> QueueSched {
        QueueSched::new(SchedKind::Lifo)
    }

    #[test]
    fn fifo_order_within_level() {
        let mut s = fifo();
        for i in 1..=3 {
            s.on_ready(t(i), 0, VirtTime::ZERO, 0, None);
        }
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(2)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(3)));
        assert_eq!(s.pop(0, VirtTime::ZERO), Pop::Empty);
    }

    #[test]
    fn priority_levels_respected() {
        let mut s = fifo();
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(2), 5, VirtTime::ZERO, 0, None);
        s.on_ready(t(3), -1, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(2)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(3)));
    }

    #[test]
    fn future_entries_are_invisible() {
        let mut s = fifo();
        s.on_ready(t(1), 0, VirtTime::from_ns(100), 0, None);
        assert_eq!(
            s.pop(0, VirtTime::from_ns(50)),
            Pop::NotYet(VirtTime::from_ns(100))
        );
        assert_eq!(s.pop(0, VirtTime::from_ns(100)), got(t(1)));
    }

    #[test]
    fn eligible_entry_behind_future_entry_is_found() {
        let mut s = fifo();
        s.on_ready(t(1), 0, VirtTime::from_ns(100), 0, None);
        s.on_ready(t(2), 0, VirtTime::from_ns(10), 0, None);
        assert_eq!(s.pop(0, VirtTime::from_ns(20)), got(t(2)));
    }

    #[test]
    fn affinity_preferred_over_fifo_order() {
        let mut s = fifo();
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, Some(3));
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, Some(7));
        // Processor 7 prefers its own previous thread even though t1 is first.
        assert_eq!(s.pop(7, VirtTime::ZERO), got(t(2)));
        // Processor 5 has no affinity match: plain FIFO.
        assert_eq!(s.pop(5, VirtTime::ZERO), got(t(1)));
    }

    #[test]
    fn lifo_order() {
        let mut s = lifo();
        for i in 1..=3 {
            s.on_ready(t(i), 0, VirtTime::ZERO, 0, None);
        }
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(3)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(2)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
    }

    #[test]
    fn newest_eligible_wins_over_older_eligible() {
        let mut s = lifo();
        s.on_ready(t(1), 0, VirtTime::from_ns(5), 0, None);
        s.on_ready(t(2), 0, VirtTime::from_ns(50), 0, None);
        s.on_ready(t(3), 0, VirtTime::from_ns(8), 0, None);
        assert_eq!(s.pop(0, VirtTime::from_ns(10)), got(t(3)));
        assert_eq!(s.pop(0, VirtTime::from_ns(10)), got(t(1)));
        assert_eq!(
            s.pop(0, VirtTime::from_ns(10)),
            Pop::NotYet(VirtTime::from_ns(50))
        );
    }

    #[test]
    fn affinity_preferred_over_lifo_order() {
        let mut s = lifo();
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, Some(2));
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, Some(0));
        // LIFO would give t2, but t2 last ran elsewhere and processor 2
        // prefers its own t1.
        assert_eq!(s.pop(2, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(2, VirtTime::ZERO), got(t(2)));
        // A fresh (no-affinity) newest entry is NOT skipped.
        s.on_ready(t(3), 0, VirtTime::ZERO, 0, Some(2));
        s.on_ready(t(4), 0, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(2, VirtTime::ZERO), got(t(4)));
    }
}
