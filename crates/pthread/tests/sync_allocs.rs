//! Heap allocations per blocking operation and per spawn/join round, as
//! upper bounds.
//!
//! A lock in a lightweight-thread runtime is a small policy over one
//! park/unpark queue, and what it costs is its bookkeeping, not the switch
//! (`fiber.switch_ns` is ~15 ns against ~1,000 for a mutex handoff). The
//! part of that bookkeeping that is easy to count exactly is the heap: the
//! number of allocator calls a round of blocking operations makes, taken as
//! the difference between an `N`-round and a `2N`-round run so everything
//! that happens once per run cancels. p = 2, FIFO, tracing off.
//!
//! A spawn/join round is counted the same way, under DF and FIFO: a thread
//! created and joined through each of the four ways a handle can be
//! waited on.
//!
//! Nothing on a park, grant, timeout or wake path allocates: the eviction
//! record on the TCB is plain data, a single holder is published inline,
//! and the due-deadline list and the deadlock sentinel's cycle-probe
//! scratch (the path and the threads visited, walked on every *untimed*
//! block on a held mutex or rwlock and every untimed join of a live
//! thread) are vectors the engine owns and reuses.
//!
//! Own binary for the counting `#[global_allocator]`, `ptdf_smp::counting`,
//! armed on the test's thread.

use ptdf::{
    run, scope, spawn, yield_now, Condvar, Config, Mutex, RwLock, SchedKind, Semaphore, VirtTime,
};
use ptdf_smp::counting::{self, arm, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

const N: u64 = 2_000;

/// Allocator calls of one run of `body(rounds)` under `sched`.
fn calls(sched: SchedKind, rounds: u64, body: fn(u64)) -> u64 {
    let before = counting::calls();
    run(Config::new(2, sched), move || body(rounds));
    counting::calls() - before
}

/// Allocator calls per round: what `N` more rounds add, over `N`.
fn per_round(sched: SchedKind, body: fn(u64)) -> f64 {
    arm();
    calls(sched, N, body); // once-only allocations (lazy statics, thread-locals) land here
    let (short, long) = (calls(sched, N, body), calls(sched, 2 * N, body));
    (long as f64 - short as f64) / N as f64
}

/// Two threads running `each(me, rounds)`; a round is one iteration of both.
fn pair(rounds: u64, each: impl Fn(usize, u64) + Clone + 'static) {
    let hs: Vec<_> = (0..2)
        .map(|me| {
            let each = each.clone();
            spawn(move || each(me, rounds))
        })
        .collect();
    hs.into_iter().for_each(|h| h.join());
}

fn sem_pingpong(rounds: u64) {
    let sems = [Semaphore::new(1), Semaphore::new(0)];
    pair(rounds, move |me, rounds| {
        for _ in 0..rounds {
            sems[me].acquire();
            sems[1 - me].release();
        }
    });
}

/// A round is one timed wait that fires.
fn timed_sem_fire(rounds: u64) {
    let never = Semaphore::new(0);
    for _ in 0..rounds {
        assert!(never.acquire_timeout(VirtTime::from_us(1)).is_err());
    }
}

fn condvar_pingpong(rounds: u64) {
    let turn = Mutex::new(0usize);
    let cvs = [Condvar::new(), Condvar::new()];
    pair(rounds, move |me, rounds| {
        for _ in 0..rounds {
            let mut g = turn.lock();
            while *g != me {
                g = cvs[me].wait(g);
            }
            *g = 1 - me;
            drop(g);
            cvs[1 - me].notify_one();
        }
    });
}

/// The holder yields inside the critical section, so every iteration is one
/// block and one direct handoff.
fn mutex_handoff(rounds: u64) {
    let m = Mutex::new(0u64);
    pair(rounds, move |_, rounds| {
        for _ in 0..rounds {
            let mut g = m.lock();
            *g += 1;
            yield_now();
        }
    });
}

fn rwlock_write_handoff(rounds: u64) {
    let rw = RwLock::new(0u64);
    pair(rounds, move |_, rounds| {
        for _ in 0..rounds {
            let mut g = rw.write();
            *g += 1;
            yield_now();
        }
    });
}

/// A round is one thread spawned and joined.
fn spawn_join(rounds: u64) {
    for i in 0..rounds {
        assert_eq!(spawn(move || i).join(), i);
    }
}

fn spawn_try_join(rounds: u64) {
    for i in 0..rounds {
        assert!(matches!(spawn(move || i).try_join(), Ok(v) if v == i));
    }
}

/// The child always beats the timeout.
fn spawn_join_timeout(rounds: u64) {
    for i in 0..rounds {
        assert!(matches!(spawn(move || i).join_timeout(VirtTime::from_ms(1)), Ok(v) if v == i));
    }
}

/// The scope's guard joins the child.
fn scope_spawn(rounds: u64) {
    for i in 0..rounds {
        scope(|s| {
            s.spawn(move || i);
        });
    }
}

/// A spawn/join round: its name, its body, allocator calls per round before
/// and the bound now on the assembly backend.
type SpawnRound = (&'static str, fn(u64), u64, u64);

/// One test, so the measurements never share the counter.
#[test]
fn blocking_operations_stay_within_their_allocation_bounds() {
    let mut over = Vec::new();
    // Allocator calls per round before the wait-queue rebuild (the mutex
    // and rwlock handoffs were 4 after it, the cycle probe's scratch), and
    // the bound now.
    let mut check = |name: &str, sched: SchedKind, body: fn(u64), before: u64, bound: u64| {
        let now = per_round(sched, body);
        println!(
            "{name} ({sched:?}): {now:.2} allocator calls per round (was {before}, bound {bound})"
        );
        // Amortised growth of a queue that doubles contributes a few calls
        // per run, not per round.
        if now > bound as f64 + 0.02 {
            over.push(format!("{name} ({sched:?}): {now:.2} > {bound}"));
        }
    };
    check("sem_pingpong", SchedKind::Fifo, sem_pingpong, 2, 0);
    check("timed_sem_fire", SchedKind::Fifo, timed_sem_fire, 2, 0);
    check("condvar_pingpong", SchedKind::Fifo, condvar_pingpong, 2, 0);
    check("mutex_handoff", SchedKind::Fifo, mutex_handoff, 10, 0);
    check(
        "rwlock_write_handoff",
        SchedKind::Fifo,
        rwlock_write_handoff,
        12,
        0,
    );
    // Six calls a spawn before (the result slot, the boxed body and the
    // fiber's four boxes), the scope's list and its cell, and the cycle
    // probe's two when an untimed join blocked on a child that had not
    // exited yet. Now a spawn makes its join cell and nothing else. The
    // portable backend starts an OS thread and two channels per fiber, and
    // its count varies from run to run (15-17): it gets a bound of its own.
    let spawn_rounds: [SpawnRound; 4] = [
        ("spawn_join", spawn_join, 8, 1),
        ("spawn_try_join", spawn_try_join, 8, 1),
        ("spawn_join_timeout", spawn_join_timeout, 6, 1),
        ("scope_spawn", scope_spawn, 10, 1),
    ];
    for sched in [SchedKind::Df, SchedKind::Fifo] {
        for (name, body, before, bound) in spawn_rounds {
            let bound = if ptdf_fiber::HAS_REAL_STACKS {
                bound
            } else {
                20
            };
            check(name, sched, body, before, bound);
        }
    }
    assert!(over.is_empty(), "over the bound: {over:?}");
}
