//! Naive reference schedulers for differential testing.
//!
//! These are the pre-index revisions of [`super::df::DfSched`] and
//! [`super::dfdeques::DfDequesSched`], kept verbatim except for the
//! `DfDeques` top-only steal fix (the old `iter().position()` steal could
//! take a thread from *behind* an ineligible top, violating the global
//! depth-first order — see the module docs of `dfdeques`). Both define the
//! scheduling semantics by brute force:
//!
//! * `RefDfSched::pop` scans its order list from the left over **every**
//!   live entry (placeholders included) — O(live threads).
//! * `RefDfDequesSched::pop` walks every item of every deque to compute
//!   `NotYet` times and uses `VecDeque` middle removals — O(total items).
//!
//! The randomized differential tests in [`super::diff_tests`] drive each
//! optimized scheduler and its reference through identical event
//! interleavings and assert bit-identical `Pop` sequences (including exact
//! `NotYet` times — the engine charges a scheduling operation per dispatch
//! attempt, so even a *conservative* wake-up estimate would change virtual
//! makespans). They compile only under `cfg(test)`: an oracle, not a
//! shipped scheduler.

use std::collections::{BTreeMap, HashMap, VecDeque};

use ptdf_smp::{ProcId, VirtTime};

use crate::config::SchedKind;
use crate::sched::{Policy, Pop};
use crate::thread::ThreadId;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    prev: usize,
    next: usize,
    tid: ThreadId,
    ready: bool,
    ready_at: VirtTime,
    affinity: Option<ProcId>,
}

/// Pre-index serial DF scheduler: left-to-right scan over all live entries.
#[derive(Debug)]
pub(crate) struct RefDfSched {
    quota: u64,
    window: usize,
    hint: Vec<Option<ThreadId>>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// priority → (head sentinel, tail sentinel).
    lists: BTreeMap<i32, (usize, usize)>,
    pos: HashMap<ThreadId, usize>,
    prio_of: HashMap<ThreadId, i32>,
    ready: usize,
}

impl RefDfSched {
    pub fn new(quota: u64) -> Self {
        Self::with_window(quota, 0, 0)
    }

    pub fn with_window(quota: u64, window: usize, procs: usize) -> Self {
        RefDfSched {
            quota,
            window,
            hint: vec![None; procs],
            nodes: Vec::new(),
            free: Vec::new(),
            lists: BTreeMap::new(),
            pos: HashMap::new(),
            prio_of: HashMap::new(),
            ready: 0,
        }
    }

    fn alloc_node(&mut self, tid: ThreadId) -> usize {
        let node = Node {
            prev: NIL,
            next: NIL,
            tid,
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

    fn level(&mut self, prio: i32) -> (usize, usize) {
        if let Some(&hs) = self.lists.get(&prio) {
            return hs;
        }
        let head = self.alloc_node(ThreadId(u32::MAX));
        let tail = self.alloc_node(ThreadId(u32::MAX));
        self.nodes[head].next = tail;
        self.nodes[tail].prev = head;
        self.lists.insert(prio, (head, tail));
        (head, tail)
    }

    fn link_before(&mut self, n: usize, before: usize) {
        let prev = self.nodes[before].prev;
        self.nodes[n].prev = prev;
        self.nodes[n].next = before;
        self.nodes[prev].next = n;
        self.nodes[before].prev = n;
    }

    fn unlink(&mut self, n: usize) {
        let (prev, next) = (self.nodes[n].prev, self.nodes[n].next);
        self.nodes[prev].next = next;
        self.nodes[next].prev = prev;
    }

    fn take(&mut self, cur: usize, p: ProcId) {
        self.nodes[cur].ready = false;
        self.ready -= 1;
        if let Some(slot) = self.hint.get_mut(p) {
            let next = self.nodes[cur].next;
            *slot = (self.nodes[next].tid != ThreadId(u32::MAX)).then(|| self.nodes[next].tid);
        }
    }
}

impl Policy for RefDfSched {
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
        let n = self.alloc_node(t);
        self.nodes[n].ready = enqueue;
        self.nodes[n].ready_at = at;
        let anchor = parent
            .and_then(|p| {
                if self.prio_of.get(&p) == Some(&prio) {
                    self.pos.get(&p).copied()
                } else {
                    None
                }
            })
            .unwrap_or_else(|| self.level(prio).1);
        self.link_before(n, anchor);
        self.pos.insert(t, n);
        self.prio_of.insert(t, prio);
        if enqueue {
            self.ready += 1;
        }
    }

    fn on_ready(
        &mut self,
        t: ThreadId,
        _prio: i32,
        at: VirtTime,
        _waker: ProcId,
        affinity: Option<ProcId>,
    ) {
        let n = self.pos[&t];
        debug_assert!(!self.nodes[n].ready, "double ready for {t}");
        self.nodes[n].ready = true;
        self.nodes[n].ready_at = at;
        self.nodes[n].affinity = affinity;
        self.ready += 1;
    }

    fn on_block(&mut self, t: ThreadId) {
        let n = self.pos[&t];
        debug_assert!(!self.nodes[n].ready, "blocking a queued thread {t}");
        let _ = n;
    }

    fn on_exit(&mut self, t: ThreadId) {
        let n = self
            .pos
            .remove(&t)
            .expect("exiting thread has a placeholder");
        self.prio_of.remove(&t);
        debug_assert!(!self.nodes[n].ready, "exiting thread still queued");
        self.unlink(n);
        self.free.push(n);
    }

    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop {
        if self.ready == 0 {
            return Pop::Empty;
        }
        let mut earliest: Option<VirtTime> = None;
        let levels: Vec<(usize, usize)> = self.lists.values().rev().copied().collect();
        for (head, tail) in levels {
            let hint = self.hint.get(p).copied().flatten();
            let mut first: Option<usize> = None;
            let mut affine: Option<usize> = None;
            let mut hinted: Option<usize> = None;
            let mut inspected = 0usize;
            let mut cur = self.nodes[head].next;
            while cur != tail {
                let node = &self.nodes[cur];
                if node.ready {
                    if node.ready_at <= now {
                        if self.window == 0 {
                            let tid = node.tid;
                            self.take(cur, p);
                            return Pop::Got { tid, stolen: false };
                        }
                        if hint == Some(node.tid) {
                            hinted = Some(cur);
                        }
                        if affine.is_none() && node.affinity == Some(p) {
                            affine = Some(cur);
                        }
                        if first.is_none() {
                            first = Some(cur);
                        }
                        inspected += 1;
                        if inspected >= self.window {
                            break;
                        }
                    } else {
                        let at = node.ready_at;
                        earliest =
                            Some(earliest.map_or(at, |e: VirtTime| if at < e { at } else { e }));
                    }
                }
                cur = self.nodes[cur].next;
            }
            if let Some(cur) = hinted.or(affine).or(first) {
                let tid = self.nodes[cur].tid;
                self.take(cur, p);
                return Pop::Got { tid, stolen: false };
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

#[derive(Debug)]
struct RefDeque {
    prev: usize,
    next: usize,
    items: VecDeque<(ThreadId, VirtTime)>,
    owner: Option<ProcId>,
    live: bool,
}

/// Pre-index `DFDeques`: full item walks and `VecDeque` middle removals.
/// Includes the top-only steal rule (the semantics being preserved), unlike
/// the buggy revision it descends from.
#[derive(Debug)]
pub(crate) struct RefDfDequesSched {
    quota: u64,
    deques: Vec<RefDeque>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    own: Vec<Option<usize>>,
    ready: usize,
    steals: u64,
}

impl RefDfDequesSched {
    pub fn new(quota: u64, procs: usize) -> Self {
        let mut s = RefDfDequesSched {
            quota,
            deques: Vec::new(),
            free: Vec::new(),
            head: 0,
            tail: 0,
            own: vec![None; procs],
            ready: 0,
            steals: 0,
        };
        s.head = s.alloc();
        s.tail = s.alloc();
        s.deques[s.head].next = s.tail;
        s.deques[s.tail].prev = s.head;
        s
    }

    fn alloc(&mut self) -> usize {
        let d = RefDeque {
            prev: NIL,
            next: NIL,
            items: VecDeque::new(),
            owner: None,
            live: true,
        };
        if let Some(i) = self.free.pop() {
            self.deques[i] = d;
            i
        } else {
            self.deques.push(d);
            self.deques.len() - 1
        }
    }

    fn link_before(&mut self, d: usize, before: usize) {
        let prev = self.deques[before].prev;
        self.deques[d].prev = prev;
        self.deques[d].next = before;
        self.deques[prev].next = d;
        self.deques[before].prev = d;
    }

    fn unlink(&mut self, d: usize) {
        let (prev, next) = (self.deques[d].prev, self.deques[d].next);
        self.deques[prev].next = next;
        self.deques[next].prev = prev;
        self.deques[d].live = false;
        self.free.push(d);
    }

    fn own_or_new(&mut self, p: ProcId) -> usize {
        if let Some(d) = self.own[p] {
            if self.deques[d].live {
                return d;
            }
        }
        let d = self.alloc();
        let tail = self.tail;
        self.link_before(d, tail);
        self.deques[d].owner = Some(p);
        self.own[p] = Some(d);
        d
    }

    fn gc_own(&mut self, p: ProcId) {
        if let Some(d) = self.own[p] {
            if self.deques[d].live && self.deques[d].items.is_empty() {
                self.unlink(d);
                self.own[p] = None;
            }
        }
    }
}

impl Policy for RefDfDequesSched {
    fn kind(&self) -> SchedKind {
        SchedKind::DfDeques
    }

    fn global_lock(&self) -> bool {
        false
    }

    fn preempt_on_fork(&self) -> bool {
        true
    }

    fn quota(&self) -> Option<u64> {
        Some(self.quota)
    }

    fn steals(&self) -> u64 {
        self.steals
    }

    fn on_create(
        &mut self,
        t: ThreadId,
        _parent: Option<ThreadId>,
        _prio: i32,
        enqueue: bool,
        at: VirtTime,
        on_proc: ProcId,
    ) {
        if enqueue {
            let d = self.own_or_new(on_proc);
            self.deques[d].items.push_back((t, at));
            self.ready += 1;
        }
    }

    fn on_ready(
        &mut self,
        t: ThreadId,
        _prio: i32,
        at: VirtTime,
        waker: ProcId,
        _affinity: Option<ProcId>,
    ) {
        let d = self.own_or_new(waker);
        self.deques[d].items.push_back((t, at));
        self.ready += 1;
    }

    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop {
        if self.ready == 0 {
            return Pop::Empty;
        }
        let mut earliest: Option<VirtTime> = None;
        // Own deque, newest first.
        if let Some(d) = self.own[p].filter(|&d| self.deques[d].live) {
            if let Some(pos) = self.deques[d].items.iter().rposition(|&(_, at)| at <= now) {
                let (tid, _) = self.deques[d].items.remove(pos).expect("pos valid");
                self.ready -= 1;
                self.gc_own(p);
                return Pop::Got { tid, stolen: false };
            }
            for &(_, at) in &self.deques[d].items {
                earliest = Some(earliest.map_or(at, |e| if at < e { at } else { e }));
            }
        }
        // Steal: leftmost deque whose top thread is eligible. Items behind
        // an ineligible top are not stealable, so only the front's publish
        // time bounds the next possible change.
        let mut cur = self.deques[self.head].next;
        while cur != self.tail {
            if Some(cur) != self.own[p] {
                if let Some(&(_, at0)) = self.deques[cur].items.front() {
                    if at0 <= now {
                        let (tid, _) = self.deques[cur].items.pop_front().expect("front valid");
                        self.ready -= 1;
                        self.steals += 1;
                        if let Some(old) = self.own[p].take() {
                            if self.deques[old].live && self.deques[old].items.is_empty() {
                                self.unlink(old);
                            } else if self.deques[old].live {
                                self.deques[old].owner = None;
                            }
                        }
                        let mine = self.alloc();
                        self.link_before(mine, cur);
                        self.deques[mine].owner = Some(p);
                        self.own[p] = Some(mine);
                        if self.deques[cur].items.is_empty() && self.deques[cur].owner.is_none() {
                            self.unlink(cur);
                        }
                        return Pop::Got { tid, stolen: true };
                    }
                    earliest = Some(earliest.map_or(at0, |e| if at0 < e { at0 } else { e }));
                }
            }
            cur = self.deques[cur].next;
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
