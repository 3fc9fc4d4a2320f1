//! The paper's space-efficient depth-first scheduler (§4 item 2).
//!
//! A variation of the `S1 + O(p·D)` algorithm of Narlikar & Blelloch [35],
//! as retrofitted into the Solaris Pthreads library:
//!
//! * The scheduling queue holds an entry for **every live thread** — ready,
//!   blocked, or executing — kept in the *serial depth-first execution
//!   order*. Blocked/executing entries act as position placeholders.
//! * A newly forked child is inserted immediately to the **left** of its
//!   parent, and the parent is preempted so the processor runs the child
//!   (the engine direct-hands the child; the parent re-enters as ready at
//!   its placeholder).
//! * Dispatch takes the **leftmost ready** thread (highest priority level
//!   first; depth-first order within a level).
//! * Every dispatch grants a memory quota of `K` bytes; the allocation hook
//!   (in `mem.rs`) preempts a thread that exhausts it and inserts no-op
//!   dummy threads before allocations larger than `K`.
//!
//! # Indexed dispatch (amortized O(log n))
//!
//! The queue is a doubly-linked list over a slab, one list per priority
//! level. Earlier revisions scanned the list from the left on every `pop`
//! (O(live threads) when the left prefix is blocked placeholders or
//! future-published entries — exactly the paper-scale regime). The list now
//! carries **order labels**: every node owns a `u64` label strictly
//! increasing left-to-right within its level, assigned on insertion from
//! the gap between its neighbours (and rebuilt for the whole level on the
//! rare gap exhaustion — amortized O(1) per insert). Ready nodes are
//! indexed by label in two per-level structures:
//!
//! * `eligible` — a `BTreeSet<(label, node)>` of ready entries published at
//!   or before the latest dispatch clock; `pop` takes `first()` in O(log n)
//!   without visiting a single placeholder.
//! * `pending` — a min-heap of ready entries published in the future
//!   (cross-processor wakes); `pop` promotes entries whose `ready_at` has
//!   arrived and reads the earliest remaining one in O(1) for its `NotYet`
//!   answer, instead of rescanning every entry.
//!
//! Thread-id lookups go through the same [`IdDirectory`] as the thread
//! table, not a hash map: ids are issued sequentially and never reused, and
//! its pages follow the threads alive, not the threads ever created.
//!
//! The naive-scan revision survives as `reference::RefDfSched`, and
//! randomized differential tests (`diff_tests`) prove both emit identical
//! `Pop` sequences.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use ptdf_smp::{ProcId, VirtTime};

use crate::config::SchedKind;
use crate::sched::{Policy, Pop};
use crate::thread::{IdDirectory, ThreadId};

const NIL: usize = usize::MAX;

/// Preferred label gap consumed by one insertion. Biasing new labels close
/// to the *left* neighbour leaves room at the insertion point for the DF
/// pattern (children repeatedly inserted immediately left of their parent,
/// appends repeatedly inserted before the tail sentinel), so relabels stay
/// rare.
const LABEL_STRIDE: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct Node {
    prev: usize,
    next: usize,
    tid: ThreadId,
    prio: i32,
    /// Order label: strictly increasing left-to-right within the level.
    label: u64,
    ready: bool,
    ready_at: VirtTime,
    /// Processor the thread last ran on (used only with a locality window).
    affinity: Option<ProcId>,
}

/// Per-priority-level index: sentinels of the order list plus the ready-set
/// structures described in the module docs.
#[derive(Debug, Default)]
struct Level {
    head: usize,
    tail: usize,
    eligible: BTreeSet<(u64, usize)>,
    pending: BinaryHeap<Reverse<(VirtTime, u64, usize)>>,
}

#[derive(Debug)]
pub(crate) struct DfSched {
    quota: u64,
    /// §5.3 locality window: 0 = strict depth-first order.
    window: usize,
    /// Per-processor hint: the thread that was serially adjacent (to the
    /// right) of the last thread this processor dispatched — "schedule
    /// threads that are close in the computation graph on the same
    /// processor" (paper §5.3).
    hint: Vec<Option<ThreadId>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    levels: BTreeMap<i32, Level>,
    /// Priority keys of `levels`, descending (cached so multi-level `pop`
    /// allocates nothing).
    prio_desc: Vec<i32>,
    /// Live `ThreadId -> slab index`.
    pos: IdDirectory,
    ready: usize,
    /// Latest dispatch clock observed; publishes at or before it go
    /// straight to `eligible`, later ones to `pending`.
    clock_hint: VirtTime,
}

impl DfSched {
    pub fn new(quota: u64) -> Self {
        Self::with_window(quota, 0, 0)
    }

    /// DF with the §5.3 locality window (0 = strict order).
    pub fn with_window(quota: u64, window: usize, procs: usize) -> Self {
        DfSched {
            quota,
            window,
            hint: vec![None; procs],
            nodes: Vec::new(),
            free: Vec::new(),
            levels: BTreeMap::new(),
            prio_desc: Vec::new(),
            pos: IdDirectory::new(),
            ready: 0,
            clock_hint: VirtTime::ZERO,
        }
    }

    fn alloc_node(&mut self, tid: ThreadId, prio: i32) -> usize {
        let node = Node {
            prev: NIL,
            next: NIL,
            tid,
            prio,
            label: 0,
            ready: false,
            ready_at: VirtTime::ZERO,
            affinity: None,
        };
        if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Slab position of `t`'s entry, if it has one.
    fn pos_of(&self, t: ThreadId) -> Option<usize> {
        self.pos.get(t).map(|n| n as usize)
    }

    fn level(&mut self, prio: i32) -> (usize, usize) {
        if let Some(level) = self.levels.get(&prio) {
            return (level.head, level.tail);
        }
        let head = self.alloc_node(ThreadId(u32::MAX), prio);
        let tail = self.alloc_node(ThreadId(u32::MAX), prio);
        self.nodes[head].next = tail;
        self.nodes[tail].prev = head;
        self.nodes[head].label = 0;
        self.nodes[tail].label = u64::MAX;
        self.levels.insert(
            prio,
            Level {
                head,
                tail,
                ..Level::default()
            },
        );
        self.prio_desc.push(prio);
        self.prio_desc.sort_unstable_by(|a, b| b.cmp(a));
        (head, tail)
    }

    /// A label strictly between `a` and `b`, biased toward `a` (see
    /// [`LABEL_STRIDE`]); `None` when the gap is exhausted.
    fn label_between(a: u64, b: u64) -> Option<u64> {
        let gap = b - a;
        if gap <= 1 {
            None
        } else {
            Some(a + (gap / 2).min(LABEL_STRIDE))
        }
    }

    /// Links node `n` immediately before node `before`, assigning it an
    /// order label (relabeling the level on gap exhaustion).
    fn link_before(&mut self, n: usize, before: usize, prio: i32) {
        let prev = self.nodes[before].prev;
        let label = match Self::label_between(self.nodes[prev].label, self.nodes[before].label) {
            Some(l) => l,
            None => {
                self.relabel(prio);
                Self::label_between(self.nodes[prev].label, self.nodes[before].label)
                    .expect("relabel must open a gap")
            }
        };
        self.nodes[n].label = label;
        self.nodes[n].prev = prev;
        self.nodes[n].next = before;
        self.nodes[prev].next = n;
        self.nodes[before].prev = n;
    }

    /// Re-spaces all labels of a level and rebuilds its ready indexes.
    /// O(level size), amortized away by [`LABEL_STRIDE`]-spaced inserts.
    fn relabel(&mut self, prio: i32) {
        let level = self.levels.get_mut(&prio).expect("relabel of a live level");
        let (head, tail) = (level.head, level.tail);
        let mut cur = self.nodes[head].next;
        let mut label = 0u64;
        while cur != tail {
            label += LABEL_STRIDE;
            self.nodes[cur].label = label;
            cur = self.nodes[cur].next;
        }
        let level = self.levels.get_mut(&prio).expect("relabel of a live level");
        let nodes = &self.nodes;
        level.eligible = level
            .eligible
            .iter()
            .map(|&(_, idx)| (nodes[idx].label, idx))
            .collect();
        let pending = std::mem::take(&mut level.pending);
        level.pending = pending
            .into_iter()
            .map(|Reverse((at, _, idx))| Reverse((at, nodes[idx].label, idx)))
            .collect();
    }

    fn unlink(&mut self, n: usize) {
        let (prev, next) = (self.nodes[n].prev, self.nodes[n].next);
        self.nodes[prev].next = next;
        self.nodes[next].prev = prev;
    }

    /// Indexes a freshly readied node under its level.
    fn publish(&mut self, n: usize) {
        debug_assert!(self.nodes[n].ready);
        let (prio, label, at) = {
            let node = &self.nodes[n];
            (node.prio, node.label, node.ready_at)
        };
        let level = self
            .levels
            .get_mut(&prio)
            .expect("publish into a live level");
        if at <= self.clock_hint {
            level.eligible.insert((label, n));
        } else {
            level.pending.push(Reverse((at, label, n)));
        }
    }

    /// Marks node `cur` dispatched on processor `p` and records its right
    /// neighbour as the processor's graph-adjacency hint. The caller has
    /// already removed the node from its level's `eligible` set.
    fn take(&mut self, cur: usize, p: ProcId) {
        self.nodes[cur].ready = false;
        self.ready -= 1;
        if let Some(slot) = self.hint.get_mut(p) {
            let next = self.nodes[cur].next;
            *slot = (self.nodes[next].tid != ThreadId(u32::MAX)).then(|| self.nodes[next].tid);
        }
    }

    /// Moves every pending entry whose publish time has arrived into the
    /// eligible set.
    fn promote(level: &mut Level, now: VirtTime) {
        while let Some(&Reverse((at, label, idx))) = level.pending.peek() {
            if at > now {
                break;
            }
            level.pending.pop();
            level.eligible.insert((label, idx));
        }
    }

    /// Dispatch attempt within one priority level. Returns the chosen slab
    /// index, accumulating the earliest future publish time into
    /// `earliest` when nothing is eligible.
    fn pop_level(
        &mut self,
        prio: i32,
        p: ProcId,
        now: VirtTime,
        earliest: &mut Option<VirtTime>,
    ) -> Option<usize> {
        let hint = if self.window == 0 {
            None
        } else {
            self.hint.get(p).copied().flatten()
        };
        let window = self.window;
        let level = self.levels.get_mut(&prio).expect("pop of a live level");
        Self::promote(level, now);
        let nodes = &self.nodes;
        fn note(at: VirtTime, earliest: &mut Option<VirtTime>) {
            *earliest = Some(earliest.map_or(at, |e| if at < e { at } else { e }));
        }
        let mut chosen: Option<(u64, usize)> = None;
        if window == 0 {
            // Strict order: leftmost eligible. Entries with a future
            // `ready_at` can linger here only after a clock regression
            // across processors; skipping them keeps causality exact.
            for &(label, idx) in level.eligible.iter() {
                let node = &nodes[idx];
                if node.ready_at <= now {
                    chosen = Some((label, idx));
                    break;
                }
                note(node.ready_at, earliest);
            }
        } else {
            // §5.3 locality window: a graph-adjacency or affinity match
            // within the first `window` eligible entries beats the
            // leftmost.
            let mut first: Option<(u64, usize)> = None;
            let mut affine: Option<(u64, usize)> = None;
            let mut hinted: Option<(u64, usize)> = None;
            let mut inspected = 0usize;
            for &(label, idx) in level.eligible.iter() {
                let node = &nodes[idx];
                if node.ready_at > now {
                    note(node.ready_at, earliest);
                    continue;
                }
                if hint == Some(node.tid) {
                    hinted = Some((label, idx));
                }
                if affine.is_none() && node.affinity == Some(p) {
                    affine = Some((label, idx));
                }
                if first.is_none() {
                    first = Some((label, idx));
                }
                inspected += 1;
                if inspected >= window {
                    break;
                }
            }
            chosen = hinted.or(affine).or(first);
        }
        if let Some(key) = chosen {
            level.eligible.remove(&key);
            return Some(key.1);
        }
        if let Some(&Reverse((at, _, _))) = level.pending.peek() {
            note(at, earliest);
        }
        None
    }
}

impl Policy for DfSched {
    fn kind(&self) -> SchedKind {
        if self.window == 0 {
            SchedKind::Df
        } else {
            SchedKind::DfLocal
        }
    }

    fn preempt_on_fork(&self) -> bool {
        true
    }

    fn quota(&self) -> Option<u64> {
        Some(self.quota)
    }

    fn on_create(
        &mut self,
        t: ThreadId,
        parent: Option<ThreadId>,
        prio: i32,
        enqueue: bool,
        at: VirtTime,
        _on_proc: ProcId,
    ) {
        // Ensure the level exists before anchoring against it.
        let (_, tail) = self.level(prio);
        let n = self.alloc_node(t, prio);
        self.nodes[n].ready = enqueue;
        self.nodes[n].ready_at = at;
        // Placement: immediately left of the parent's placeholder when the
        // parent lives at the same priority level (the serial depth-first
        // position); otherwise at the tail of the child's level (a fresh
        // serial order for that level).
        let anchor = parent
            .and_then(|par| {
                let pn = self.pos_of(par)?;
                (self.nodes[pn].prio == prio).then_some(pn)
            })
            .unwrap_or(tail);
        self.link_before(n, anchor, prio);
        // One node per live thread: far below 2^32.
        let n32 = u32::try_from(n).expect("node index fits the position map");
        self.pos.insert(t, n32);
        if enqueue {
            self.ready += 1;
            self.publish(n);
        }
    }

    fn on_ready(
        &mut self,
        t: ThreadId,
        _prio: i32,
        at: VirtTime,
        _waker: ProcId,
        _affinity: Option<ProcId>,
    ) {
        let n = self.pos_of(t).expect("readied thread has a placeholder");
        debug_assert!(!self.nodes[n].ready, "double ready for {t}");
        self.nodes[n].ready = true;
        self.nodes[n].ready_at = at;
        self.nodes[n].affinity = _affinity;
        self.ready += 1;
        self.publish(n);
    }

    fn on_block(&mut self, t: ThreadId) {
        // Blocked threads keep their placeholder; they are simply not ready.
        let n = self.pos_of(t).expect("blocked thread has a placeholder");
        debug_assert!(!self.nodes[n].ready, "blocking a queued thread {t}");
        let _ = n;
    }

    fn on_exit(&mut self, t: ThreadId) {
        let n = self
            .pos
            .remove(t)
            .expect("exiting thread has a placeholder") as usize;
        debug_assert!(!self.nodes[n].ready, "exiting thread still queued");
        self.unlink(n);
        self.free.push(n);
    }

    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop {
        if self.ready == 0 {
            return Pop::Empty;
        }
        if now > self.clock_hint {
            self.clock_hint = now;
        }
        let mut earliest: Option<VirtTime> = None;
        if self.prio_desc.len() == 1 {
            // Almost every program runs at a single priority level; skip
            // the key iteration for that case.
            let prio = self.prio_desc[0];
            if let Some(idx) = self.pop_level(prio, p, now, &mut earliest) {
                let tid = self.nodes[idx].tid;
                self.take(idx, p);
                return Pop::Got { tid, stolen: false };
            }
        } else {
            for i in 0..self.prio_desc.len() {
                let prio = self.prio_desc[i];
                if let Some(idx) = self.pop_level(prio, p, now, &mut earliest) {
                    let tid = self.nodes[idx].tid;
                    self.take(idx, p);
                    return Pop::Got { tid, stolen: false };
                }
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

    #[test]
    fn child_left_of_parent_runs_first() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0))); // root dispatched
                                                         // Root forks two children (preempt-on-fork: placeholders, not ready).
        s.on_create(t(1), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        // Parent re-queued at its placeholder; child 1 is direct-handed.
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        // Child 1 later yields: becomes ready at its (leftmost) position.
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        // Leftmost ready is the child, not the parent.
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
    }

    #[test]
    fn serial_order_maintained_across_generations() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        // Root forks c1 then c2: each inserted immediately left of root, so
        // the order is [c1, c2, root] (c1 forked first = leftmost = first in
        // serial depth-first order).
        s.on_create(t(1), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0))); // engine re-runs root (handoff skipped in this unit test)
        s.on_create(t(2), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(2)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
    }

    #[test]
    fn blocked_placeholder_preserves_position() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        s.on_create(t(1), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        // Child 1 runs (handoff), then blocks: placeholder stays left of root.
        s.on_block(t(1));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        // Child wakes: it is again leftmost.
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
    }

    #[test]
    fn exit_unlinks_and_slab_reuses() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        s.on_create(t(1), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        s.on_exit(t(1));
        s.on_create(t(2), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(0), 0, VirtTime::ZERO, 0, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(2)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        assert_eq!(s.pop(0, VirtTime::ZERO), Pop::Empty);
    }

    #[test]
    fn higher_priority_level_wins_regardless_of_order() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        s.on_create(t(1), None, 3, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(1)));
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
    }

    #[test]
    fn locality_window_prefers_affine_within_window() {
        let mut s = DfSched::with_window(1024, 4, 16);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        // Three children, placeholders left of root; mark ready with
        // affinities for different processors.
        for i in 1..=3 {
            s.on_create(t(i), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        }
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, Some(5));
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, Some(7));
        s.on_ready(t(3), 0, VirtTime::ZERO, 0, Some(5));
        // Processor 7 takes its own t2 even though t1 is leftmost.
        assert_eq!(s.pop(7, VirtTime::ZERO), got(t(2)));
        // Processor 9 has no match: leftmost eligible.
        assert_eq!(s.pop(9, VirtTime::ZERO), got(t(1)));
    }

    #[test]
    fn locality_window_bounds_the_search() {
        let mut s = DfSched::with_window(1024, 2, 16);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        for i in 1..=4 {
            s.on_create(t(i), Some(t(0)), 0, false, VirtTime::ZERO, 0);
        }
        // Ready order (left to right): t1, t2, t3, t4 — t4's affinity
        // matches processor 3 but lies beyond the window of 2.
        for i in 1..=4 {
            let aff = if i == 4 { Some(3) } else { Some(8) };
            s.on_ready(t(i), 0, VirtTime::ZERO, 0, aff);
        }
        assert_eq!(
            s.pop(3, VirtTime::ZERO),
            got(t(1)),
            "match outside the window must not override depth-first order"
        );
    }

    #[test]
    fn future_ready_at_respected() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::from_ns(100), 0);
        assert_eq!(
            s.pop(0, VirtTime::from_ns(10)),
            Pop::NotYet(VirtTime::from_ns(100))
        );
        assert_eq!(s.pop(0, VirtTime::from_ns(100)), got(t(0)));
    }

    #[test]
    fn a_long_run_with_few_threads_alive_keeps_few_position_pages() {
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        let mut live = std::collections::VecDeque::new();
        for i in 1..=200_000 {
            s.on_create(t(i), Some(t(0)), 0, false, VirtTime::ZERO, 0);
            live.push_back(t(i));
            if live.len() > 3 {
                s.on_exit(live.pop_front().expect("four are live"));
            }
            assert!(
                s.pos.resident_pages() <= 3,
                "at {i}: {} pages",
                s.pos.resident_pages()
            );
        }
    }

    #[test]
    fn relabel_preserves_order_under_adversarial_inserts() {
        // Repeatedly insert before the same anchor to exhaust label gaps;
        // dispatch order must stay the exact list order throughout.
        let mut s = DfSched::new(1024);
        s.on_create(t(0), None, 0, true, VirtTime::ZERO, 0);
        assert_eq!(s.pop(0, VirtTime::ZERO), got(t(0)));
        let n = 5000;
        for i in 1..=n {
            s.on_create(t(i), Some(t(0)), 0, false, VirtTime::ZERO, 0);
            s.on_ready(t(i), 0, VirtTime::ZERO, 0, None);
        }
        // List order is [t1, t2, ..., tn, t0]; all ready except t0.
        for i in 1..=n {
            assert_eq!(s.pop(0, VirtTime::ZERO), got(t(i)), "at {i}");
            s.on_exit(t(i));
        }
        assert_eq!(s.pop(0, VirtTime::ZERO), Pop::Empty);
    }
}
