//! Randomized differential tests: the indexed schedulers must be
//! observationally identical to their naive references.
//!
//! Each case drives an optimized policy and its reference
//! ([`super::reference`]) through one randomly generated interleaving of
//! `on_create` / `on_ready` / `on_block` / `on_exit` / `pop` events that
//! respects the engine's calling contract (threads are created by running
//! threads, only running threads block or exit, only non-ready live
//! threads are readied, per-processor clocks advance independently so
//! publish times land in other processors' futures). After every event the
//! two must agree on `ready_len`, and every `pop` must return the **same**
//! `Pop` — including exact `NotYet` times: the engine charges a scheduling
//! operation per dispatch attempt, so a merely-conservative wake-up bound
//! would change virtual makespans downstream.
//!
//! Coverage (each seed is one interleaving):
//! * `DfSched` window 0 vs `RefDfSched`, single priority — 600 seeds
//! * `DfSched` window 0 vs `RefDfSched`, two priorities — 300 seeds
//! * `DfSched` window 3 (locality) vs `RefDfSched` window 3 — 300 seeds
//! * `DfDequesSched` vs `RefDfDequesSched` (+ steal-count check) — 600
//!   seeds
//!
//! 1800 interleavings × ~220 events ≈ 400k cross-checked operations.

use ptdf_smp::{Prng, VirtTime};

use crate::sched::df::DfSched;
use crate::sched::dfdeques::DfDequesSched;
use crate::sched::reference::{RefDfDequesSched, RefDfSched};
use crate::sched::{Policy, Pop};
use crate::thread::ThreadId;

/// A seeded index below `n`.
fn below(rng: &mut Prng, n: usize) -> usize {
    rng.below(n as u64) as usize
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum St {
    Ready,
    Running(usize),
    Blocked,
}

struct Driver {
    a: Box<dyn Policy>,
    b: Box<dyn Policy>,
    procs: usize,
    clocks: Vec<u64>,
    /// Live threads and their model state (engine's view).
    live: Vec<(ThreadId, St)>,
    next_tid: u32,
    prios: &'static [i32],
}

impl Driver {
    fn new(a: Box<dyn Policy>, b: Box<dyn Policy>, procs: usize, prios: &'static [i32]) -> Self {
        Driver {
            a,
            b,
            procs,
            clocks: vec![0; procs],
            live: Vec::new(),
            next_tid: 0,
            prios,
        }
    }

    fn check(&self, seed: u64, step: usize) {
        assert_eq!(
            self.a.ready_len(),
            self.b.ready_len(),
            "ready_len diverged (seed {seed}, step {step})"
        );
    }

    fn pick<F: Fn(&St) -> bool>(&self, rng: &mut Prng, f: F) -> Option<usize> {
        let hits: Vec<usize> = (0..self.live.len())
            .filter(|&i| f(&self.live[i].1))
            .collect();
        if hits.is_empty() {
            None
        } else {
            Some(hits[below(rng, hits.len())])
        }
    }

    fn run(&mut self, seed: u64, steps: usize) {
        let mut rng = Prng::new(seed);
        for step in 0..steps {
            match rng.below(100) {
                // pop: the differential heart.
                0..=39 => {
                    let p = below(&mut rng, self.procs);
                    let now = VirtTime::from_ns(self.clocks[p]);
                    let ra = self.a.pop(p, now);
                    let rb = self.b.pop(p, now);
                    assert_eq!(ra, rb, "pop diverged (seed {seed}, step {step}, p {p})");
                    if let Pop::Got { tid, .. } = ra {
                        let slot = self
                            .live
                            .iter_mut()
                            .find(|(t, _)| *t == tid)
                            .expect("popped thread is live");
                        assert_eq!(slot.1, St::Ready, "popped a non-ready thread");
                        slot.1 = St::Running(p);
                        self.clocks[p] += 1 + rng.below(49);
                    }
                }
                // create: parent = a running thread when one exists.
                40..=59 => {
                    let tid = ThreadId(self.next_tid);
                    self.next_tid += 1;
                    let by = self.pick(&mut rng, |s| matches!(s, St::Running(_)));
                    let (parent, p) = match by {
                        Some(i) => {
                            let (ptid, St::Running(p)) = self.live[i] else {
                                unreachable!()
                            };
                            (Some(ptid), p)
                        }
                        None => (None, below(&mut rng, self.procs)),
                    };
                    let prio = self.prios[below(&mut rng, self.prios.len())];
                    // enqueue=false models the engine's direct handoff: the
                    // child starts running without a dispatch.
                    let enqueue = parent.is_none() || rng.chance(3, 5);
                    let at = VirtTime::from_ns(self.clocks[p]);
                    self.a.on_create(tid, parent, prio, enqueue, at, p);
                    self.b.on_create(tid, parent, prio, enqueue, at, p);
                    let st = if enqueue { St::Ready } else { St::Running(p) };
                    self.live.push((tid, st));
                }
                // ready: wake a blocked thread, or re-queue (yield) a
                // running one. Published by an arbitrary processor at that
                // processor's clock, possibly ahead of everyone else.
                60..=77 => {
                    let Some(i) = self.pick(&mut rng, |s| {
                        matches!(s, St::Blocked) || matches!(s, St::Running(_))
                    }) else {
                        continue;
                    };
                    let tid = self.live[i].0;
                    let waker = match self.live[i].1 {
                        // A yielding thread is re-published by its own proc.
                        St::Running(p) => p,
                        _ => below(&mut rng, self.procs),
                    };
                    let at = VirtTime::from_ns(self.clocks[waker] + rng.below(30));
                    let prio = self.prios[below(&mut rng, self.prios.len())];
                    let affinity = rng.chance(1, 2).then(|| below(&mut rng, self.procs));
                    self.a.on_ready(tid, prio, at, waker, affinity);
                    self.b.on_ready(tid, prio, at, waker, affinity);
                    self.live[i].1 = St::Ready;
                }
                // block a running thread.
                78..=86 => {
                    let Some(i) = self.pick(&mut rng, |s| matches!(s, St::Running(_))) else {
                        continue;
                    };
                    let tid = self.live[i].0;
                    self.a.on_block(tid);
                    self.b.on_block(tid);
                    self.live[i].1 = St::Blocked;
                }
                // exit a running thread.
                87..=93 => {
                    let Some(i) = self.pick(&mut rng, |s| matches!(s, St::Running(_))) else {
                        continue;
                    };
                    let tid = self.live.swap_remove(i).0;
                    self.a.on_exit(tid);
                    self.b.on_exit(tid);
                }
                // advance a processor's clock (creates cross-proc skew and
                // occasional regressions relative to published times).
                _ => {
                    let p = below(&mut rng, self.procs);
                    self.clocks[p] += 1 + rng.below(119);
                }
            }
            self.check(seed, step);
        }
        // Drain: every remaining entry must come out of both in the same
        // order once all clocks are far in the future.
        let far = VirtTime::from_ns(self.clocks.iter().max().unwrap() + 1_000_000);
        let mut spins = 0usize;
        while self.a.ready_len() > 0 {
            let p = spins % self.procs;
            let ra = self.a.pop(p, far);
            let rb = self.b.pop(p, far);
            assert_eq!(ra, rb, "drain pop diverged (seed {seed})");
            assert!(
                !matches!(ra, Pop::Empty | Pop::NotYet(_)),
                "ready entries must drain at time {far:?} (seed {seed})"
            );
            spins += 1;
        }
        assert_eq!(self.b.ready_len(), 0, "drain left entries (seed {seed})");
        assert_eq!(
            self.a.steals(),
            self.b.steals(),
            "steal counts diverged (seed {seed})"
        );
    }
}

const QUOTA: u64 = 4096;
const STEPS: usize = 220;

#[test]
fn df_matches_reference_single_priority() {
    for seed in 0..600u64 {
        let procs = 1 + (seed as usize % 4);
        let mut d = Driver::new(
            Box::new(DfSched::new(QUOTA)),
            Box::new(RefDfSched::new(QUOTA)),
            procs,
            &[0],
        );
        d.run(seed, STEPS);
    }
}

#[test]
fn df_matches_reference_two_priorities() {
    for seed in 0..300u64 {
        let procs = 1 + (seed as usize % 4);
        let mut d = Driver::new(
            Box::new(DfSched::new(QUOTA)),
            Box::new(RefDfSched::new(QUOTA)),
            procs,
            &[0, 1],
        );
        d.run(seed ^ 0xD1F2, STEPS);
    }
}

#[test]
fn df_locality_window_matches_reference() {
    for seed in 0..300u64 {
        let procs = 2 + (seed as usize % 3);
        let mut d = Driver::new(
            Box::new(DfSched::with_window(QUOTA, 3, procs)),
            Box::new(RefDfSched::with_window(QUOTA, 3, procs)),
            procs,
            &[0],
        );
        d.run(seed ^ 0x10CA_117F, STEPS);
    }
}

#[test]
fn dfdeques_matches_reference() {
    for seed in 0..600u64 {
        let procs = 2 + (seed as usize % 3);
        let mut d = Driver::new(
            Box::new(DfDequesSched::new(QUOTA, procs)),
            Box::new(RefDfDequesSched::new(QUOTA, procs)),
            procs,
            &[0],
        );
        d.run(seed ^ 0xDEC2, STEPS);
    }
}

/// The adversarial label-exhaustion pattern (repeated leftmost inserts)
/// must also survive a differential run with long lifetimes.
#[test]
fn df_matches_reference_deep_fork_chain() {
    for seed in 0..50u64 {
        let mut d = Driver::new(
            Box::new(DfSched::new(QUOTA)),
            Box::new(RefDfSched::new(QUOTA)),
            2,
            &[0],
        );
        d.run(seed ^ 0xF0_5CAD, 2000);
    }
}
