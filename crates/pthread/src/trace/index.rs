//! One borrowed index over a recorded [`Trace`], shared by the
//! happens-before checker ([`super::check`]) and the critical-path
//! analyses ([`super::critpath`]). Built in O(spans + events) with no
//! hashing, it gives every thread a *slot* (so per-thread state is a vector,
//! not a map), the order in which the events read, each thread's recorded
//! exit time and, on first use, each thread's sorted span list.
//!
//! Thread ids are dense in a recorded trace, and a thread's slot is its id.
//! A document is user input, though: when the largest id it names is not
//! below its record count, the ids are compacted (sorted, distinct) and a
//! slot is an id's rank, so the index stays O(records) whatever the ids.
//! Either way slots ascend with thread ids. The index is never stored in the
//! trace: `Trace`'s fields are public, and a cached index could go stale.

use std::cell::OnceCell;

use ptdf_smp::VirtTime;

use super::{Event, EventKind, Span, Trace};

pub(crate) struct TraceIndex<'a> {
    trace: &'a Trace,
    /// The distinct thread ids, ascending, when they are sparse; `None`
    /// when slot == id.
    sparse: Option<Vec<u32>>,
    /// Per slot: `exited` of the first lifecycle row naming the thread.
    exit: Vec<Option<VirtTime>>,
    /// Event indices in stable virtual-time order; `None` when `events` is
    /// already sorted (the recorder sorts them; an editor may not).
    order: Option<Vec<usize>>,
    /// Built on first use: the checker never asks.
    spans: OnceCell<SpanLists>,
}

/// Every thread's span indices in one flat array: those of slot `k` are
/// `items[start[k]..start[k + 1]]`.
struct SpanLists {
    start: Vec<usize>,
    items: Vec<usize>,
}

/// Calls `f` with every thread id that gets a slot: span and event
/// subjects, lifecycle rows, and spawn parents (the checker ticks a parent's
/// clock). Wakers, cancellers and join targets are only ever looked up.
fn for_each_named(trace: &Trace, mut f: impl FnMut(u32)) {
    trace.spans.iter().for_each(|s| f(s.thread));
    for e in &trace.events {
        if let Some(t) = e.thread {
            f(t);
        }
        if let EventKind::Spawn { parent: Some(p) } = e.kind {
            f(p);
        }
    }
    trace.threads.iter().for_each(|lc| f(lc.thread));
}

impl<'a> TraceIndex<'a> {
    pub(crate) fn new(trace: &'a Trace) -> Self {
        let records = trace.spans.len() + trace.events.len() + trace.threads.len();
        let mut dense = 0; // slots when slot == id: the largest id + 1
        for_each_named(trace, |t| dense = dense.max(t as usize + 1));
        let sparse = (dense > records).then(|| {
            let mut ids = Vec::new();
            for_each_named(trace, |t| ids.push(t));
            ids.sort_unstable();
            ids.dedup();
            ids
        });
        let sorted = trace.events.windows(2).all(|w| w[0].at <= w[1].at);
        let order = (!sorted).then(|| {
            let mut order: Vec<usize> = (0..trace.events.len()).collect();
            order.sort_by_key(|&i| trace.events[i].at);
            order
        });
        let mut idx = TraceIndex {
            trace,
            exit: vec![None; sparse.as_ref().map_or(dense, Vec::len)],
            sparse,
            order,
            spans: OnceCell::new(),
        };
        // In reverse, so that the first row naming a thread is written last.
        for lc in trace.threads.iter().rev() {
            let slot = idx.slot(lc.thread).expect("a named thread has a slot");
            idx.exit[slot] = lc.exited;
        }
        idx
    }

    /// Number of thread slots.
    pub(crate) fn threads(&self) -> usize {
        self.exit.len()
    }

    /// The slot of `thread`, if a span, an event subject, a spawn parent or
    /// a lifecycle row names it.
    pub(crate) fn slot(&self, thread: u32) -> Option<usize> {
        match &self.sparse {
            None => Some(thread as usize).filter(|&slot| slot < self.exit.len()),
            Some(ids) => ids.binary_search(&thread).ok(),
        }
    }

    /// The thread id in `slot`.
    pub(crate) fn thread(&self, slot: usize) -> u32 {
        self.sparse.as_ref().map_or(slot as u32, |ids| ids[slot])
    }

    /// Exit time in the first lifecycle row naming `thread`.
    pub(crate) fn exit_of(&self, thread: u32) -> Option<VirtTime> {
        self.exit[self.slot(thread)?]
    }

    /// The trace's events in stable virtual-time order.
    pub(crate) fn events(&self) -> impl Iterator<Item = &'a Event> + '_ {
        let events = &self.trace.events;
        (0..events.len()).map(move |k| &events[self.order.as_ref().map_or(k, |o| o[k])])
    }

    /// Indices into `trace.spans` of `thread`'s spans, sorted by
    /// `(start, end, index)`.
    pub(crate) fn spans_of(&self, thread: u32) -> &[usize] {
        let Some(slot) = self.slot(thread) else {
            return &[];
        };
        let lists = self.spans.get_or_init(|| self.span_lists());
        &lists.items[lists.start[slot]..lists.start[slot + 1]]
    }

    /// Counting sort of the span indices by thread slot, then each thread's
    /// list by time (a no-op on what the recorder wrote).
    fn span_lists(&self) -> SpanLists {
        let spans = &self.trace.spans;
        let slot = |s: &Span| self.slot(s.thread).expect("a named thread has a slot");
        // Counts go two places up, so that after the prefix sum
        // `start[k + 1]` is where slot `k` begins; the fill then advances
        // it to where slot `k` ends, which is where slot `k + 1` begins.
        let mut start = vec![0usize; self.threads() + 2];
        spans.iter().for_each(|s| start[slot(s) + 2] += 1);
        for k in 2..start.len() {
            start[k] += start[k - 1];
        }
        let mut items = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let at = &mut start[slot(s) + 1];
            items[*at] = i;
            *at += 1;
        }
        start.pop();
        for k in 0..self.threads() {
            items[start[k]..start[k + 1]]
                .sort_unstable_by_key(|&i| (spans[i].start, spans[i].end, i));
        }
        SpanLists { start, items }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanKind, ThreadLifecycle};

    fn ns(v: u64) -> VirtTime {
        VirtTime::from_ns(v)
    }

    fn span(thread: u32, start: u64, end: u64) -> Span {
        Span {
            proc: 0,
            thread,
            start: ns(start),
            end: ns(end),
            kind: SpanKind::Run,
        }
    }

    fn event(at: u64, thread: Option<u32>, kind: EventKind) -> Event {
        Event {
            at: ns(at),
            proc: 0,
            thread,
            kind,
        }
    }

    fn lifecycle(thread: u32, exited: Option<u64>) -> ThreadLifecycle {
        ThreadLifecycle {
            thread,
            spawned: ns(0),
            first_dispatch: None,
            ready_wait: ns(0),
            quanta: 0,
            exited: exited.map(ns),
        }
    }

    #[test]
    fn dense_ids_are_their_own_slots_and_span_lists_are_sorted() {
        let mut t = Trace::default();
        // Thread 1's spans are recorded out of time order; thread 2 has none.
        t.spans = vec![
            span(1, 30, 40),
            span(0, 0, 10),
            span(1, 10, 20),
            span(1, 10, 15),
        ];
        t.events = vec![
            event(0, Some(0), EventKind::FirstDispatch),
            event(5, Some(2), EventKind::Spawn { parent: Some(0) }),
            event(9, None, EventKind::Alloc { bytes: 1 }),
        ];
        let idx = TraceIndex::new(&t);
        assert_eq!(idx.threads(), 3);
        for id in 0..3 {
            assert_eq!(idx.slot(id), Some(id as usize));
            assert_eq!(idx.thread(id as usize), id);
        }
        assert_eq!(idx.slot(3), None);
        assert_eq!(idx.spans_of(0), [1]);
        assert_eq!(idx.spans_of(1), [3, 2, 0]);
        assert!(idx.spans_of(2).is_empty() && idx.spans_of(99).is_empty());
        // Sorted events are read in place.
        assert!(idx.order.is_none());
        assert!(idx.events().map(|e| e.at).eq([ns(0), ns(5), ns(9)]));
    }

    #[test]
    fn sparse_ids_are_ranked_so_the_index_is_no_larger_than_the_trace() {
        let mut t = Trace::default();
        t.spans = vec![span(u32::MAX, 0, 10)];
        t.events = vec![
            event(0, Some(u32::MAX), EventKind::Spawn { parent: Some(7) }),
            event(3, Some(1 << 31), EventKind::Wake { waker: Some(5) }),
        ];
        let idx = TraceIndex::new(&t);
        // Three ids are named (the waker is only ever looked up).
        assert_eq!(idx.threads(), 3);
        assert_eq!(idx.exit.len(), 3);
        for (slot, id) in [7, 1 << 31, u32::MAX].into_iter().enumerate() {
            assert_eq!(idx.slot(id), Some(slot));
            assert_eq!(idx.thread(slot), id);
        }
        assert_eq!(idx.slot(5), None);
        assert_eq!(idx.spans_of(u32::MAX), [0]);
        assert!(idx.spans_of(7).is_empty() && idx.spans_of(5).is_empty());
        let lists = idx.spans.get().expect("built by spans_of");
        assert_eq!((lists.start.len(), lists.items.len()), (4, 1));
    }

    #[test]
    fn unsorted_events_read_in_their_stable_time_order() {
        let mut t = Trace::default();
        t.events = vec![
            event(20, Some(0), EventKind::Preempt),
            event(10, Some(1), EventKind::FirstDispatch),
            event(20, Some(1), EventKind::Preempt),
            event(10, Some(0), EventKind::FirstDispatch),
        ];
        let idx = TraceIndex::new(&t);
        assert_eq!(idx.order.as_deref(), Some(&[1, 3, 0, 2][..]));
        let read: Vec<_> = idx.events().map(|e| (e.at, e.thread)).collect();
        let mut sorted = t.events.clone();
        sorted.sort_by_key(|e| e.at);
        let want: Vec<_> = sorted.iter().map(|e| (e.at, e.thread)).collect();
        assert_eq!(read, want);
    }

    #[test]
    fn the_first_lifecycle_row_naming_a_thread_gives_its_exit() {
        let mut t = Trace::default();
        t.threads = vec![
            lifecycle(1, Some(100)),
            lifecycle(1, Some(10)),
            lifecycle(0, None),
            lifecycle(0, Some(5)),
        ];
        let idx = TraceIndex::new(&t);
        assert_eq!(idx.exit_of(1), Some(ns(100)));
        assert_eq!(idx.exit_of(0), None);
        assert_eq!(idx.exit_of(2), None);
    }
}
