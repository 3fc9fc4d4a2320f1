//! The micro ledger: one row per layer operation, measured from outside by
//! timing calls into each crate's public functions. Workload-independent;
//! none of these rows is an end-to-end metric.
//!
//! Every row is the **minimum** over a few batches (the floor the hot path
//! can reach on a shared host) with its noise — (median − min) / min over the
//! same batches — kept beside it. Rows inside the runtime time their inner
//! loop on the host clock from the root thread, so runtime start-up and
//! tear-down are excluded.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ptdf::bench_api::{BenchPolicy, BenchPop};
use ptdf::{
    explore, spawn, work, yield_now, Barrier, Condvar, Config, ExploreOpts, Mutex, RwLock,
    SchedKind, Semaphore, VirtTime,
};
use ptdf_fiber::Coroutine;
use ptdf_server::{serve, serve_traced, ServerConfig};
use ptdf_smp::{Bucket, CostModel, Machine, VirtualLock};

use crate::bench::{Detail, Metric};
use crate::stats::median;
use crate::workloads::{records, server_config, AppBench, Sizes, APPS, POLICIES, PROCS};

/// Offered-load rungs of the `server.slo_load_pct` ladder, and the failure
/// share a rung may not exceed.
pub const SLO_RUNGS: [u64; 7] = [50, 75, 100, 125, 150, 175, 200];
pub const SLO_FAIL_SHARE: f64 = 0.05;

const FIBER_STACK: usize = 64 * 1024;
const QUOTA: u64 = 1 << 20;

struct Ledger {
    rows: Vec<Metric>,
    batches: usize,
    /// Divides every batch size (1 at full scale).
    shrink: u64,
}

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

impl Ledger {
    fn n(&self, full: u64) -> u64 {
        (full / self.shrink).max(8)
    }

    fn push(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let noise = if min > 0.0 {
            (median(samples) - min) / min
        } else {
            0.0
        };
        self.rows.push(Metric {
            name: name.into(),
            unit: unit.to_string(),
            value: min,
            detail: Detail::Noise(noise),
        });
    }

    /// `batch` does `ops` operations and returns the host time they took;
    /// the row is nanoseconds per operation.
    fn ns_per_op(
        &mut self,
        name: impl Into<String>,
        ops: u64,
        mut batch: impl FnMut() -> Duration,
    ) {
        let samples: Vec<f64> = (0..self.batches)
            .map(|_| batch().as_nanos() as f64 / ops as f64)
            .collect();
        self.push(name, "ns", &samples);
    }
}

/// Runs `f` as the root thread of a DF run on `procs` processors.
fn in_runtime<T: 'static>(procs: usize, kind: SchedKind, f: impl FnOnce() -> T + 'static) -> T {
    ptdf::run(Config::new(procs, kind), f).0
}

/// Measures the whole ledger. `quick` shrinks batch sizes and counts.
pub fn measure(seed: u64, sz: Sizes) -> Vec<Metric> {
    let mut l = Ledger {
        rows: Vec::new(),
        batches: if sz.quick { 3 } else { 7 },
        shrink: if sz.quick { 8 } else { 1 },
    };
    host(&mut l);
    fiber(&mut l);
    smp(&mut l);
    sched(&mut l);
    runtime(&mut l);
    sync(&mut l);
    recorder(&mut l, seed, sz);
    explorer(&mut l);
    apps(&mut l, seed, sz);
    server_rows(&mut l, seed, sz);
    l.rows
}

fn timer_pairs(n: u64) -> Duration {
    timed(|| {
        for _ in 0..n {
            black_box(black_box(Instant::now()).elapsed());
        }
    })
}

/// Host cost of one `Instant::now()` + `elapsed()` pair — what a phase
/// window of the engine profiler adds around the work it brackets.
pub fn timer_pair_ns() -> f64 {
    (0..5)
        .map(|_| timer_pairs(20_000).as_nanos() as f64 / 20_000.0)
        .fold(f64::INFINITY, f64::min)
}

fn host(l: &mut Ledger) {
    let n = l.n(100_000);
    l.ns_per_op("host.timer_pair_ns", n, || timer_pairs(n));
}

fn fiber(l: &mut Ledger) {
    let n = l.n(2_000);
    l.ns_per_op("fiber.create_drop_ns", n, || {
        timed(|| {
            for _ in 0..n {
                black_box(Coroutine::<(), (), ()>::new(FIBER_STACK, |_, ()| ()));
            }
        })
    });
    l.ns_per_op("fiber.create_run_exit_ns", n, || {
        timed(|| {
            for _ in 0..n {
                let mut co = Coroutine::<(), (), ()>::new(FIBER_STACK, |_, ()| ());
                black_box(co.resume(()));
            }
        })
    });
    // One resume plus one suspend is two switches.
    let n = l.n(20_000);
    l.ns_per_op("fiber.switch_ns", 2 * n, || {
        let mut co = Coroutine::<(), (), ()>::new(FIBER_STACK, |y, ()| loop {
            y.suspend(());
        });
        timed(|| {
            for _ in 0..n {
                black_box(co.resume(()));
            }
        })
    });
}

fn machine() -> Machine {
    Machine::new(PROCS, CostModel::ultrasparc_167(), ptdf::STACK_8KB)
}

fn smp(l: &mut Ledger) {
    let n = l.n(20_000);
    let ns6 = VirtTime::from_ns(6);
    l.ns_per_op("smp.charge_ns", n, || {
        let mut m = machine();
        timed(|| {
            for _ in 0..n {
                m.charge(0, Bucket::Compute, ns6);
            }
            black_box(m.clock(0));
        })
    });
    l.ns_per_op("smp.charge_deferred_ns", n, || {
        let mut m = machine();
        timed(|| {
            for _ in 0..n {
                black_box(&mut m).compute_deferred(0, 1);
            }
            m.flush();
            black_box(m.clock(0));
        })
    });
    // Four processors taking the lock in turn at near-equal clocks, as the
    // engine's dispatch round does.
    l.ns_per_op("smp.sched_lock_ns", n, || {
        let mut m = machine();
        timed(|| {
            for i in 0..n as usize {
                m.sched_lock(i % PROCS);
            }
        })
    });
    l.ns_per_op("smp.vlock_acquire_mono_ns", n, || {
        let mut lock = VirtualLock::new();
        timed(|| {
            for i in 0..n {
                black_box(lock.acquire(VirtTime::from_ns(i * 100), VirtTime::from_ns(10)));
            }
        })
    });
    // Arrivals behind the recorded history: every acquire takes the interval
    // search, landing in the free gap between two recorded holds.
    l.ns_per_op("smp.vlock_acquire_gap_ns", n, || {
        let mut lock = VirtualLock::new();
        for i in 0..n {
            lock.acquire(VirtTime::from_ns(i * 100), VirtTime::from_ns(10));
        }
        timed(|| {
            for i in 0..n {
                black_box(lock.acquire(VirtTime::from_ns(i * 100 + 50), VirtTime::from_ns(10)));
            }
        })
    });
    l.ns_per_op("smp.alloc_free_ns", n, || {
        let mut m = machine();
        timed(|| {
            for _ in 0..n {
                m.alloc(0, 1024);
                m.free(0, 1024);
            }
        })
    });
    l.ns_per_op("smp.thread_lifecycle_ns", n, || {
        let mut m = machine();
        timed(|| {
            for _ in 0..n {
                let committed = m.thread_create(0, ptdf::STACK_8KB);
                let committed = m.thread_first_run(0, ptdf::STACK_8KB, committed);
                m.thread_exit(0, ptdf::STACK_8KB, committed);
            }
        })
    });
    l.ns_per_op("smp.touch_ns", n, || {
        let mut m = machine();
        timed(|| {
            for i in 0..n {
                m.touch(0, i % 64, 4096);
            }
        })
    });
    l.ns_per_op("smp.deadline_arm_pop_ns", n, || {
        let mut m = machine();
        for i in 0..64 {
            m.arm_deadline(0, VirtTime::from_ns(1 << 40), i);
        }
        timed(|| {
            for i in 0..n {
                m.arm_deadline(0, VirtTime::from_ns(i), i);
                black_box(m.pop_deadline(0));
            }
        })
    });
}

/// A policy with its root thread (id 0) dispatched on processor 0.
fn policy_with_root(mut pol: BenchPolicy) -> BenchPolicy {
    pol.on_create(0, None, true, 0, 0);
    assert!(matches!(pol.pop(0, 0), BenchPop::Got { tid: 0, .. }));
    pol
}

fn sched(l: &mut Ledger) {
    // Fork (child handed off, parent re-queued), child exit, parent popped.
    let n = l.n(10_000);
    type Maker = fn() -> BenchPolicy;
    let makers: [(&str, Maker); 3] = [
        ("df", || BenchPolicy::df(QUOTA)),
        ("dfdeques", || BenchPolicy::dfdeques(QUOTA, PROCS)),
        ("ws", || BenchPolicy::ws(PROCS, 0x5EED)),
    ];
    for (name, make) in makers {
        l.ns_per_op(format!("sched.{name}.fork_exit_ns"), n, || {
            let mut pol = policy_with_root(make());
            timed(|| {
                for child in 1..=n as u32 {
                    pol.on_create(child, Some(0), false, 1, 0);
                    pol.on_ready(0, 1, 0, Some(0));
                    pol.on_exit(child);
                    assert!(matches!(pol.pop(0, 1), BenchPop::Got { tid: 0, .. }));
                }
            })
        });
    }
    // A join wave: `live` blocked children sit left of their ready parent in
    // the depth-first order, so each dispatch of the parent must get past them.
    let live = l.n(100_000) as u32;
    let mut pol = BenchPolicy::df(QUOTA);
    pol.on_create(0, None, true, 0, 0);
    for child in 1..=live {
        pol.on_create(child, Some(0), false, 0, 0);
        pol.on_block(child);
    }
    let n = l.n(20_000);
    l.ns_per_op("sched.df.join_storm_pop_ns", n, || {
        timed(|| {
            for _ in 0..n {
                assert!(matches!(pol.pop(0, 1), BenchPop::Got { tid: 0, .. }));
                pol.on_ready(0, 1, 0, None);
            }
        })
    });
    // An idle processor polling a deque whose items all sit in its virtual
    // future: every pop answers `NotYet`.
    const FUTURE: u64 = 1 << 40;
    let mut pol = BenchPolicy::dfdeques(QUOTA, 2);
    for item in 0..live {
        pol.on_create(item, None, true, FUTURE + u64::from(item), 0);
    }
    l.ns_per_op("sched.dfdeques.poll_ns", n, || {
        timed(|| {
            for _ in 0..n {
                assert_eq!(pol.pop(0, 0), BenchPop::NotYet(FUTURE));
            }
        })
    });
    let n = l.n(5_000);
    l.ns_per_op("sched.ws.steal_ns", n, || {
        let mut pol = BenchPolicy::ws(PROCS, 0x5EED);
        for tid in 0..n as u32 {
            pol.on_ready(tid, 0, 0, None);
        }
        timed(|| {
            for _ in 0..n {
                assert!(matches!(pol.pop(1, 1), BenchPop::Got { stolen: true, .. }));
            }
        })
    });
}

fn fork_tree(depth: u32) {
    if depth == 0 {
        return;
    }
    let left = spawn(move || fork_tree(depth - 1));
    let right = spawn(move || fork_tree(depth - 1));
    left.join();
    right.join();
}

/// Depth of the `runtime.fork_tree_ns.*` binary tree (2^(d+1) − 2 threads).
pub const FORK_TREE_DEPTH: u32 = 12;

fn runtime(l: &mut Ledger) {
    let n = l.n(64);
    let samples: Vec<f64> = (0..l.batches)
        .map(|_| {
            timed(|| {
                for _ in 0..n {
                    black_box(ptdf::run(Config::new(PROCS, SchedKind::Df), || ()));
                }
            })
            .as_nanos() as f64
                / 1e3
                / n as f64
        })
        .collect();
    l.push("runtime.run_empty_us", "us", &samples);

    let n = l.n(4_000);
    for kind in POLICIES {
        l.ns_per_op(format!("runtime.spawn_join_ns.{}", kind.name()), n, || {
            in_runtime(PROCS, kind, move || {
                timed(|| {
                    for _ in 0..n {
                        spawn(|| ()).join();
                    }
                })
            })
        });
    }
    let depth = if l.shrink > 1 {
        FORK_TREE_DEPTH - 3
    } else {
        FORK_TREE_DEPTH
    };
    for kind in POLICIES {
        l.ns_per_op(
            format!("runtime.fork_tree_ns.{}", kind.name()),
            (2 << depth) - 2,
            || in_runtime(PROCS, kind, move || timed(|| fork_tree(depth))),
        );
    }
    // As many yielding threads as processors; p64 moves no workload and
    // exists to guard the O(p) part of the engine round.
    for procs in [4usize, 64] {
        let each = l.n(6_400) / procs as u64;
        l.ns_per_op(
            format!("runtime.yield_ns.p{procs}"),
            each * procs as u64,
            || {
                in_runtime(procs, SchedKind::Df, move || {
                    timed(|| {
                        let hs: Vec<_> = (0..procs)
                            .map(|_| {
                                spawn(move || {
                                    for _ in 0..each {
                                        yield_now();
                                    }
                                })
                            })
                            .collect();
                        hs.into_iter().for_each(|h| h.join());
                    })
                })
            },
        );
    }
    let n = l.n(50_000);
    l.ns_per_op("runtime.work_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            timed(|| {
                for _ in 0..n {
                    work(10);
                }
            })
        })
    });
    l.ns_per_op("runtime.touch_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            timed(|| {
                for i in 0..n {
                    ptdf::touch(i % 64, 4096);
                }
            })
        })
    });
    let n = l.n(20_000);
    l.ns_per_op("mem.rt_alloc_free_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            timed(|| {
                for _ in 0..n {
                    ptdf::rt_alloc(1024);
                    ptdf::rt_free(1024);
                }
            })
        })
    });
}

/// Spawns `threads` copies of `body` and joins them, on the host clock.
fn crowd(threads: usize, body: impl Fn(usize) + Clone + 'static) -> Duration {
    timed(|| {
        let hs: Vec<_> = (0..threads)
            .map(|i| {
                let body = body.clone();
                spawn(move || body(i))
            })
            .collect();
        hs.into_iter().for_each(|h| h.join());
    })
}

fn sync(l: &mut Ledger) {
    let n = l.n(20_000);
    l.ns_per_op("sync.mutex_uncontended_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let m = Mutex::new(0u64);
            timed(|| {
                for _ in 0..n {
                    *m.lock() += 1;
                }
            })
        })
    });
    l.ns_per_op("sync.rwlock_read_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let rw = RwLock::new(0u64);
            timed(|| {
                for _ in 0..n {
                    black_box(*rw.read());
                }
            })
        })
    });
    // Two threads; the holder yields inside the critical section, so every
    // iteration is one block, one direct handoff and one yield.
    let n = l.n(4_000);
    l.ns_per_op("sync.mutex_handoff_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let m = Mutex::new(0u64);
            crowd(2, move |_| {
                for _ in 0..n / 2 {
                    let mut g = m.lock();
                    *g += 1;
                    yield_now();
                }
            })
        })
    });
    l.ns_per_op("sync.rwlock_write_handoff_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let rw = RwLock::new(0u64);
            crowd(2, move |_| {
                for _ in 0..n / 2 {
                    let mut g = rw.write();
                    *g += 1;
                    yield_now();
                }
            })
        })
    });
    // One row op = one wait satisfied by one notify.
    l.ns_per_op("sync.condvar_pingpong_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let turn = Mutex::new(0usize);
            let cvs = [Condvar::new(), Condvar::new()];
            crowd(2, move |me| {
                for _ in 0..n / 2 {
                    let mut g = turn.lock();
                    while *g != me {
                        g = cvs[me].wait(g);
                    }
                    *g = 1 - me;
                    drop(g);
                    cvs[1 - me].notify_one();
                }
            })
        })
    });
    l.ns_per_op("sync.sem_pingpong_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let sems = [Semaphore::new(1), Semaphore::new(0)];
            crowd(2, move |me| {
                for _ in 0..n / 2 {
                    sems[me].acquire();
                    sems[1 - me].release();
                }
            })
        })
    });
    let rounds = l.n(1_000);
    l.ns_per_op("sync.barrier8_round_ns", rounds, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let barrier = Barrier::new(8);
            crowd(8, move |_| {
                for _ in 0..rounds {
                    barrier.wait();
                }
            })
        })
    });
    let n = l.n(4_000);
    l.ns_per_op("sync.timed_fire_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let never = Semaphore::new(0);
            timed(|| {
                for _ in 0..n {
                    assert!(never.acquire_timeout(VirtTime::from_us(1)).is_err());
                }
            })
        })
    });
    // Waves of 32 children carrying modelled work, so the parent's joins
    // reach children that are still running and block.
    let waves = l.n(4_000) / 32;
    l.ns_per_op("sync.join_blocking_ns", waves * 32, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            timed(|| {
                for _ in 0..waves {
                    let hs: Vec<_> = (0..32).map(|_| spawn(|| work(2_000))).collect();
                    hs.into_iter().for_each(|h| h.join());
                }
            })
        })
    });
    let n = l.n(2_000);
    l.ns_per_op("sync.cancel_blocked_ns", n, || {
        in_runtime(PROCS, SchedKind::Df, move || {
            let never = Semaphore::new(0);
            timed(|| {
                for _ in 0..n {
                    let blocked = never.clone();
                    let victim = spawn(move || blocked.acquire());
                    victim.cancel();
                    assert!(victim.try_join().is_err());
                }
            })
        })
    });
}

/// One traced server run with the recorder's stages timed apart: host
/// seconds of (untraced run, traced run, export, parse, check, critpath),
/// then records and exported bytes.
fn recorder_stages(cfg: &ServerConfig) -> ([f64; 6], u64, u64) {
    let secs = |d: Duration| d.as_secs_f64();
    let plain = secs(timed(|| drop(black_box(serve(cfg, PROCS, SchedKind::Df)))));
    let mut run = None;
    let traced = secs(timed(|| {
        run = Some(serve_traced(cfg, PROCS, SchedKind::Df))
    }));
    let run = run.expect("just ran");
    let trace = run
        .report
        .trace
        .as_ref()
        .expect("serve_traced records a trace");
    let mut json = String::new();
    let export = secs(timed(|| json = trace.to_chrome_json()));
    let parse = secs(timed(|| {
        drop(black_box(ptdf::Trace::from_chrome_json(&json)))
    }));
    let check = secs(timed(|| drop(black_box(ptdf::check_trace(trace)))));
    let critpath = secs(timed(|| drop(black_box(run.report.critpath()))));
    (
        [plain, traced, export, parse, check, critpath],
        records(trace),
        json.len() as u64,
    )
}

fn recorder(l: &mut Ledger, seed: u64, sz: Sizes) {
    let cfg = server_config(seed, if sz.quick { 100 } else { 400 }, 200);
    let reps = 3;
    let runs: Vec<([f64; 6], u64, u64)> = (0..reps).map(|_| recorder_stages(&cfg)).collect();
    let (records, bytes) = (runs[0].1 as f64, runs[0].2 as f64);
    let stage = |i: usize| -> Vec<f64> { runs.iter().map(|r| r.0[i] * 1e9 / records).collect() };
    // Emission is the traced run's cost over the untraced run's.
    let emit: Vec<f64> = runs
        .iter()
        .map(|r| (r.0[1] - r.0[0]) * 1e9 / records)
        .collect();
    l.push("trace.emit_ns_per_record", "ns", &emit);
    for (i, name) in ["export", "parse", "check", "critpath"]
        .into_iter()
        .enumerate()
    {
        l.push(format!("trace.{name}_ns_per_record"), "ns", &stage(i + 2));
    }
    l.push("trace.bytes_per_record", "B", &[bytes / records]);
}

/// Three non-buggy litmus programs, depth 3, budget 400, under DF.
fn explorer(l: &mut Ledger) {
    let programs: Vec<_> = ptdf::litmus().iter().filter(|p| !p.buggy).take(3).collect();
    let mut executed = 0usize;
    let wall = timed(|| {
        for p in &programs {
            let report = explore(
                Config::new(p.procs, SchedKind::Df),
                ExploreOpts::new(3, 400),
                p.body,
            );
            assert!(
                report.is_clean(),
                "litmus {} has a violating schedule",
                p.name
            );
            executed += report.schedules_executed + report.replays;
        }
    });
    l.push(
        "explore.exec_per_s",
        "1/s",
        &[executed as f64 / wall.as_secs_f64()],
    );
}

fn apps(l: &mut Ledger, seed: u64, sz: Sizes) {
    let bench = Rc::new(AppBench::new(seed, sz));
    for (i, app) in APPS.into_iter().enumerate() {
        let standalone: Vec<f64> = (0..3).map(|_| bench.standalone_ms(i)).collect();
        l.push(format!("apps.{app}.standalone_ms"), "ms", &standalone);
        let runtime: Vec<f64> = (0..3).map(|_| bench.runtime_df_ms(i)).collect();
        l.push(format!("apps.{app}.runtime_df_ms"), "ms", &runtime);
    }
}

fn server_rows(l: &mut Ledger, seed: u64, sz: Sizes) {
    let requests = if sz.quick { 1_000 } else { 8_000 };
    let overload = server_config(seed, requests, 200);
    for kind in POLICIES {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                timed(|| drop(black_box(serve(&overload, PROCS, kind)))).as_secs_f64() * 1e6
                    / requests as f64
            })
            .collect();
        l.push(
            format!("server.host_us_per_request.{}", kind.name()),
            "us",
            &samples,
        );
    }
    // Highest offered load whose failure share (shed + late + cancelled over
    // offered) stays within the limit; model output, exact for a seed.
    let requests = if sz.quick { 2_000 } else { 10_000 };
    let slo = SLO_RUNGS
        .into_iter()
        .filter(|&pct| {
            let s = serve(&server_config(seed, requests, pct), PROCS, SchedKind::Df).stats;
            1.0 - s.completed as f64 / s.offered as f64 <= SLO_FAIL_SHARE
        })
        .max()
        .unwrap_or(0);
    l.push("server.slo_load_pct", "%", &[slo as f64]);
}
