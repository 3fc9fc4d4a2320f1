//! Cilk-style work stealing (comparator policy, paper §2.1).
//!
//! Per-processor deques; fork preempts the parent (child-first / "work
//! first"), the parent is pushed on the bottom of its processor's deque, and
//! an idle processor steals from the **top** (oldest end) of a victim's
//! deque, taking the shallowest — largest — piece of work. Cilk's space
//! bound under this discipline is `p · S1`, which the `ablate_stealing`
//! bench contrasts with the DF scheduler's `S1 + O(p·D)`.
//!
//! This policy has no global scheduler lock; queue costs are per-processor.
//! Victim order is a seeded xorshift sequence so runs stay deterministic.
//! Priorities are not supported (entries are scheduled as one level), which
//! matches Cilk's model; the benchmarks all run at a single priority.

use std::collections::VecDeque;

use ptdf_smp::{ProcId, VirtTime};

use crate::config::SchedKind;
use crate::sched::{Policy, Pop};
use crate::thread::ThreadId;

#[derive(Debug)]
pub(crate) struct WsSched {
    deques: Vec<VecDeque<(ThreadId, VirtTime)>>,
    rng: u64,
    ready: usize,
    steals: u64,
    last_victim: Option<ProcId>,
}

impl WsSched {
    pub fn new(processors: usize, seed: u64) -> Self {
        WsSched {
            deques: vec![VecDeque::new(); processors],
            rng: seed | 1,
            ready: 0,
            steals: 0,
            last_victim: None,
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Policy for WsSched {
    fn kind(&self) -> SchedKind {
        SchedKind::Ws
    }

    fn global_lock(&self) -> bool {
        false
    }

    fn preempt_on_fork(&self) -> bool {
        true
    }

    fn on_create(
        &mut self,
        t: ThreadId,
        _parent: Option<ThreadId>,
        _prio: i32,
        enqueue: bool,
        at: VirtTime,
        _on_proc: ProcId,
    ) {
        if enqueue {
            // Only the root arrives here (forks are direct-handed).
            self.deques[0].push_back((t, at));
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
        // Cilk semantics: a woken/re-queued thread goes on the waker's deque.
        self.deques[waker].push_back((t, at));
        self.ready += 1;
    }

    fn pop(&mut self, p: ProcId, now: VirtTime) -> Pop {
        if self.ready == 0 {
            return Pop::Empty;
        }
        let mut earliest: Option<VirtTime> = None;
        let note = |at: VirtTime, earliest: &mut Option<VirtTime>| {
            *earliest = Some(earliest.map_or(at, |e| if at < e { at } else { e }));
        };
        // Own deque: newest first (depth-first locally).
        if let Some(pos) = self.deques[p].iter().rposition(|&(_, at)| at <= now) {
            let (tid, _) = self.deques[p].remove(pos).expect("position valid");
            self.ready -= 1;
            return Pop::Got { tid, stolen: false };
        }
        for &(_, at) in self.deques[p].iter() {
            note(at, &mut earliest);
        }
        // Steal: random starting victim, then cyclic; oldest entry first.
        let n = self.deques.len();
        let start = (self.next_rand() % n as u64) as usize;
        for i in 0..n {
            let v = (start + i) % n;
            if v == p {
                continue;
            }
            if let Some(pos) = self.deques[v].iter().position(|&(_, at)| at <= now) {
                let (tid, _) = self.deques[v].remove(pos).expect("position valid");
                self.ready -= 1;
                self.steals += 1;
                self.last_victim = Some(v);
                return Pop::Got { tid, stolen: true };
            }
            for &(_, at) in self.deques[v].iter() {
                note(at, &mut earliest);
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

    fn steals(&self) -> u64 {
        self.steals
    }

    fn last_steal_victim(&self) -> Option<ProcId> {
        self.last_victim
    }

    fn active_deques(&self) -> Option<usize> {
        Some(self.deques.iter().filter(|d| !d.is_empty()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u32) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn own_deque_is_lifo() {
        let mut s = WsSched::new(2, 42);
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, None);
        assert_eq!(
            s.pop(0, VirtTime::ZERO),
            Pop::Got {
                tid: t(2),
                stolen: false
            }
        );
        assert_eq!(
            s.pop(0, VirtTime::ZERO),
            Pop::Got {
                tid: t(1),
                stolen: false
            }
        );
    }

    #[test]
    fn steal_takes_oldest_from_victim() {
        let mut s = WsSched::new(2, 42);
        s.on_ready(t(1), 0, VirtTime::ZERO, 0, None);
        s.on_ready(t(2), 0, VirtTime::ZERO, 0, None);
        // Processor 1's own deque is empty: it steals the oldest (t1).
        assert_eq!(
            s.pop(1, VirtTime::ZERO),
            Pop::Got {
                tid: t(1),
                stolen: true
            }
        );
        assert_eq!(s.ready_len(), 1);
    }

    #[test]
    fn empty_and_not_yet() {
        let mut s = WsSched::new(2, 42);
        assert_eq!(s.pop(0, VirtTime::ZERO), Pop::Empty);
        s.on_ready(t(1), 0, VirtTime::from_ns(99), 1, None);
        assert_eq!(s.pop(0, VirtTime::ZERO), Pop::NotYet(VirtTime::from_ns(99)));
    }

    #[test]
    fn determinism_same_seed_same_victims() {
        let runs: Vec<Vec<Pop>> = (0..2)
            .map(|_| {
                let mut s = WsSched::new(4, 7);
                for i in 0..8 {
                    s.on_ready(t(i), 0, VirtTime::ZERO, (i % 4) as usize, None);
                }
                (0..8)
                    .map(|i| s.pop((i % 4) as usize, VirtTime::ZERO))
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
