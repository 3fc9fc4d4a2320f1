//! Property-based stress tests of the runtime: random fork/join/mutex
//! workloads must produce correct results, terminate, and respect the
//! scheduler space disciplines, under every policy and processor count.

use proptest::prelude::*;
use ptdf::{Config, Mutex, SchedKind, Semaphore};

/// A deterministic "random" recursive workload driven by a seed: forks a
/// data-dependent number of children, does work, touches a mutex-protected
/// counter, and returns a checksum.
fn chaos(seed: u64, depth: u32, counter: &Mutex<u64>) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    ptdf::work(next() % 5_000);
    {
        let mut g = counter.lock();
        *g += 1;
    }
    if depth == 0 {
        return seed % 97;
    }
    let kids = next() % 3;
    let handles: Vec<_> = (0..kids)
        .map(|i| {
            let counter = counter.clone();
            let s = next().wrapping_add(i);
            ptdf::spawn(move || chaos(s, depth - 1, &counter))
        })
        .collect();
    let mut acc = seed % 97;
    for h in handles {
        acc = acc.wrapping_mul(31).wrapping_add(h.join());
    }
    acc
}

fn count_nodes(seed: u64, depth: u32) -> u64 {
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let _ = next() % 5_000;
    if depth == 0 {
        return 1;
    }
    let kids = next() % 3;
    1 + (0..kids)
        .map(|i| count_nodes(next().wrapping_add(i), depth - 1))
        .sum::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chaos_workload_is_scheduler_invariant(seed in 1u64..u64::MAX, procs in 1usize..9) {
        let depth = 5;
        let expected_nodes = count_nodes(seed, depth);
        let mut checksums = Vec::new();
        for kind in [SchedKind::Fifo, SchedKind::Lifo, SchedKind::Df, SchedKind::Ws] {
            let (out, report) = ptdf::run(Config::new(procs, kind), move || {
                let counter = Mutex::new(0u64);
                let sum = chaos(seed, depth, &counter);
                let hits = *counter.lock();
                (sum, hits)
            });
            prop_assert_eq!(out.1, expected_nodes, "{:?}: mutex hit count", kind);
            prop_assert_eq!(report.total_threads as u64, expected_nodes, "{:?}", kind);
            checksums.push(out.0);
        }
        // All schedulers compute the same checksum.
        prop_assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn chaos_is_invariant_under_perturbation(
        seed in 1u64..u64::MAX,
        pseed in 0u64..u64::MAX,
        procs in 1usize..9,
    ) {
        // Schedule perturbation (jittered sync costs, shuffled wakes,
        // randomized tie-breaks) must never change what the program
        // computes — only when. Compare a perturbed cell against the
        // deterministic baseline of the same policy.
        let depth = 4;
        let expected_nodes = count_nodes(seed, depth);
        for kind in [SchedKind::Fifo, SchedKind::Lifo, SchedKind::Df, SchedKind::DfDeques, SchedKind::Ws] {
            let body = move || {
                let counter = Mutex::new(0u64);
                let sum = chaos(seed, depth, &counter);
                let hits = *counter.lock();
                (sum, hits)
            };
            let (base, _) = ptdf::run(Config::new(procs, kind), body);
            let cfg = Config::new(procs, kind).with_perturbation(pseed);
            let (pert, report) = ptdf::run(cfg, body);
            prop_assert_eq!(pert.1, expected_nodes, "{:?} pseed {}: hit count", kind, pseed);
            prop_assert_eq!(pert.0, base.0, "{:?} pseed {}: checksum drifted", kind, pseed);
            prop_assert_eq!(report.total_threads as u64, expected_nodes, "{:?}", kind);
        }
    }

    #[test]
    fn df_space_discipline_under_chaos(seed in 1u64..u64::MAX) {
        let depth = 6;
        let (_, fifo) = ptdf::run(Config::new(4, SchedKind::Fifo), move || {
            let counter = Mutex::new(0u64);
            chaos(seed, depth, &counter)
        });
        let (_, df) = ptdf::run(Config::new(4, SchedKind::Df), move || {
            let counter = Mutex::new(0u64);
            chaos(seed, depth, &counter)
        });
        // DF keeps roughly one path per processor: depth+1 threads per proc
        // plus in-flight slack — its absolute S1 + O(p·D)-style bound.
        prop_assert!(
            df.max_live_threads() <= 4 * (depth as u64 + 2) + 4,
            "df {} exceeds p*(D+2)+p", df.max_live_threads()
        );
        // The comparative claim (DF ≪ FIFO) only holds when the graph is
        // wide enough for breadth-first execution to actually explode; for
        // narrow, chain-like graphs FIFO's live count can legitimately sit
        // below DF's p-paths. Compare only in the wide regime.
        if fifo.max_live_threads() > 4 * (depth as u64 + 2) + 4 {
            prop_assert!(
                df.max_live_threads() < fifo.max_live_threads(),
                "df {} vs fifo {}", df.max_live_threads(), fifo.max_live_threads()
            );
        }
    }

    #[test]
    fn semaphore_pipeline_delivers_everything(stages in 2usize..6, items in 1u64..40) {
        let (received, _) = ptdf::run(Config::new(4, SchedKind::Df), move || {
            // A chain of semaphore-linked stages, each forwarding `items`
            // tokens to the next.
            let sems: Vec<Semaphore> = (0..stages).map(|_| Semaphore::new(0)).collect();
            let done = Semaphore::new(0);
            ptdf::scope(|s| {
                for i in 0..stages {
                    let input = sems[i].clone();
                    let output = if i + 1 < stages {
                        sems[i + 1].clone()
                    } else {
                        done.clone()
                    };
                    s.spawn(move || {
                        for _ in 0..items {
                            input.acquire();
                            ptdf::work(500);
                            output.release();
                        }
                    });
                }
                // Feed the pipeline.
                for _ in 0..items {
                    sems[0].release();
                }
                // Drain the output.
                let mut got = 0;
                for _ in 0..items {
                    done.acquire();
                    got += 1;
                }
                got
            })
        });
        prop_assert_eq!(received, items);
    }

    #[test]
    fn quota_sweep_never_changes_results(k_log2 in 10u32..24) {
        let quota = 1u64 << k_log2;
        let (v, report) = ptdf::run(
            Config::new(3, SchedKind::Df).with_quota(quota),
            move || {
                let hs: Vec<_> = (0..8)
                    .map(|i| {
                        ptdf::spawn(move || {
                            ptdf::rt_alloc(100_000);
                            ptdf::work(10_000);
                            ptdf::rt_free(100_000);
                            i * 2
                        })
                    })
                    .collect();
                hs.into_iter().map(|h| h.join()).sum::<u64>()
            },
        );
        prop_assert_eq!(v, 56);
        // Dummies are inserted exactly when an allocation exceeds K.
        if quota >= 100_000 {
            prop_assert_eq!(report.stats.mem.dummy_threads, 0);
        } else {
            prop_assert!(report.stats.mem.dummy_threads > 0);
        }
    }
}

#[test]
fn deep_fork_chain_does_not_overflow_fiber_stacks() {
    // A 400-deep chain of forks: each level spawns one child and waits.
    fn chain(depth: u32) -> u32 {
        if depth == 0 {
            return 0;
        }
        ptdf::spawn(move || chain(depth - 1)).join() + 1
    }
    let (v, report) = ptdf::run(Config::new(2, SchedKind::Df), || chain(400));
    assert_eq!(v, 400);
    assert_eq!(report.total_threads, 401);
}

#[test]
fn priority_inversion_free_ordering() {
    // High-priority threads run before low-priority ones that were queued
    // earlier (single proc ⇒ strict ordering observable).
    let (order, _) = ptdf::run(Config::new(1, SchedKind::Df), || {
        let log = Mutex::new(Vec::new());
        let mut handles = Vec::new();
        for (prio, tag) in [(1, 'a'), (3, 'b'), (2, 'c'), (3, 'd')] {
            let log = log.clone();
            handles.push(ptdf::spawn_attr(
                ptdf::Attr::default().priority(prio),
                move || log.lock().push(tag),
            ));
        }
        for h in handles {
            h.join();
        }
        let v = log.lock().clone();
        v
    });
    assert_eq!(order, vec!['b', 'd', 'c', 'a']);
}
