//! Schedule fingerprint corpus (ROADMAP item 1(a)): the net under every
//! behaviour-preserving refactor of the engine and the sync primitives.
//!
//! `perf/golden/seed42.json` pins model *outputs* and
//! `tests/golden/trace_corpus.tsv` export *bytes*; this file pins
//! *schedules*. Every cell runs traced and
//! contributes one row to `tests/golden/fingerprints.tsv`: the FNV-1a of
//! `report.trace.events` (their `Hash` through `ptdf::trace::Fnv1a`, as
//! `ptdf::explore` fingerprints a schedule), the makespan, the footprint
//! high-water mark, `total_threads` and the length of the decision log. A
//! second block pins what the DPOR explorer does on every litmus program
//! under every policy.
//!
//! The table is generated from the code as it stands and **never
//! regenerated by a refactor**: a row that moves is a schedule that moved.
//! When a change moves schedules on purpose, regenerate with
//!
//! ```text
//! cargo test --test schedule_fingerprints -- --ignored bless
//! ```
//!
//! and say in the PR which rows moved and why. The same table must pass
//! under `--features ptdf/thread-backend`.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ptdf::trace::Fnv1a;
use ptdf::{
    explore, litmus, try_run, Barrier, Condvar, Config, ExploreOpts, Mutex, Report, RwLock,
    SchedKind, Semaphore, VirtTime,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fingerprints.tsv");

const HEADER: &str = "# cell\tpolicy\tvariant\toutcome\tevents_fnv1a\tmakespan_ns\tfootprint_hwm\ttotal_threads\tdecisions\n";

/// How a cell's schedule is chosen: `(perturbation seed, chaos seed)`.
type Variant = (Option<u64>, Option<u64>);

/// Natural, perturbation seeds 1–4, and one perturbation + chaos pair.
const VARIANTS: [Variant; 6] = [
    (None, None),
    (Some(1), None),
    (Some(2), None),
    (Some(3), None),
    (Some(4), None),
    (Some(5), Some(7)),
];

fn variant_name((perturb, chaos): Variant) -> String {
    match (perturb, chaos) {
        (None, _) => "natural".to_string(),
        (Some(p), None) => format!("perturb{p}"),
        (Some(p), Some(c)) => format!("perturb{p}+chaos{c}"),
    }
}

fn config(procs: usize, kind: SchedKind, (perturb, chaos): Variant) -> Config {
    let mut cfg = Config::new(procs, kind).with_trace();
    if let Some(seed) = perturb {
        cfg = cfg.with_perturbation(seed);
    }
    if let Some(seed) = chaos {
        cfg = cfg.with_chaos(seed);
    }
    cfg
}

/// One table row from a finished run.
fn row(out: &mut String, cell: &str, kind: SchedKind, variant: &str, outcome: &str, r: &Report) {
    let trace = r.trace.as_ref().expect("every cell runs traced");
    let mut h = Fnv1a::default();
    trace.events.hash(&mut h);
    writeln!(
        out,
        "{cell}\t{}\t{variant}\t{outcome}\t{:016x}\t{}\t{}\t{}\t{}",
        kind.name(),
        h.finish(),
        r.makespan().as_ns(),
        r.footprint(),
        r.total_threads,
        trace.decisions.len(),
    )
    .expect("writing to a String");
}

/// Runs `body` as one cell. A stall is a row too (its partial report rides
/// in the error); a root panic leaves no report and is recorded as such.
fn run_cell(
    out: &mut String,
    cell: &str,
    procs: usize,
    kind: SchedKind,
    variant: Variant,
    body: impl FnOnce() + 'static,
) {
    let name = variant_name(variant);
    let cfg = config(procs, kind, variant);
    match catch_unwind(AssertUnwindSafe(move || try_run(cfg, body))) {
        Ok(Ok(((), report))) => row(out, cell, kind, &name, "ok", &report),
        Ok(Err(e)) => row(out, cell, kind, &name, "stall", &e.report),
        Err(_) => writeln!(out, "{cell}\t{}\t{name}\tpanic\t-\t-\t-\t-\t-", kind.name())
            .expect("writing to a String"),
    }
}

/// `schedule_fuzz`'s `sync_storm` shape widened to every primitive: each
/// round funnels through a semaphore, a mutex, an rwlock (plain and timed),
/// a timed mutex and a timed semaphore, a condvar gate (plain and timed)
/// and a barrier; the root meanwhile cancels one waiter of each kind and
/// times out a join. Holders yield inside their critical sections — a fiber
/// otherwise runs a whole round in one quantum and nothing contends — so
/// every queue fills, and which timed waits fire depends on the schedule:
/// the fingerprint is the point, the totals are not asserted.
fn storm(nthreads: usize, rounds: usize) {
    let counter = Mutex::new(0u64);
    let gate = Mutex::new(0usize);
    let cv = Condvar::new();
    let barrier = Barrier::new(nthreads);
    let sem = Semaphore::new((nthreads / 2) as i64);
    let table = RwLock::new(0u64);
    let never = Semaphore::new(0);
    let us = VirtTime::from_us;
    ptdf::scope(|s| {
        for i in 0..nthreads {
            let (counter, gate, cv, barrier) =
                (counter.clone(), gate.clone(), cv.clone(), barrier.clone());
            let (sem, table, never) = (sem.clone(), table.clone(), never.clone());
            s.spawn(move || {
                for r in 1..=rounds {
                    sem.acquire();
                    {
                        let mut g = counter.lock();
                        ptdf::work(1_500);
                        ptdf::yield_now();
                        *g += 1;
                    }
                    sem.release();
                    if (i + r) % 2 == 0 {
                        let mut g = table.write();
                        ptdf::work(2_000);
                        ptdf::yield_now();
                        *g += 1;
                    } else {
                        let g = table.read();
                        ptdf::work(1_000);
                        ptdf::yield_now();
                        black_box(*g);
                    }
                    match table.write_timeout(us(8 * (i as u64 + 1))) {
                        Ok(mut g) => {
                            ptdf::work(1_500);
                            ptdf::yield_now();
                            *g += 1;
                        }
                        Err(_) => ptdf::work(50),
                    }
                    if let Ok(g) = table.read_timeout(us(6)) {
                        ptdf::work(500);
                        black_box(*g);
                    }
                    if let Ok(mut g) = counter.lock_timeout(us(5 * (i as u64 + 1))) {
                        ptdf::work(1_500);
                        ptdf::yield_now();
                        *g += 1;
                    }
                    if sem.acquire_timeout(us(4)).is_ok() {
                        ptdf::work(1_000);
                        ptdf::yield_now();
                        sem.release();
                    }
                    let _ = never.acquire_timeout(VirtTime::from_ns(400 + 100 * i as u64));
                    let mut g = gate.lock();
                    *g += 1;
                    if *g == nthreads * r {
                        cv.notify_all();
                    } else {
                        g = cv.wait_while(g, |a| *a < nthreads * r);
                    }
                    let (g, _) = cv.wait_timeout(g, us(1));
                    drop(g);
                    barrier.wait();
                }
            });
        }
        // One cancelled waiter per blocking primitive. Each victim parks on
        // something that is never granted while it lives.
        let held = Mutex::new(());
        let held_rw = RwLock::new(());
        let quiet = Condvar::new();
        let (g_held, g_rw) = (held.lock(), held_rw.write());
        let victims = [
            {
                let never = never.clone();
                ptdf::spawn(move || never.acquire())
            },
            {
                let held = held.clone();
                ptdf::spawn(move || drop(held.lock()))
            },
            {
                let held_rw = held_rw.clone();
                ptdf::spawn(move || drop(held_rw.read()))
            },
            {
                let held_rw = held_rw.clone();
                ptdf::spawn(move || drop(held_rw.write()))
            },
            {
                let (quiet, m) = (quiet.clone(), Mutex::new(()));
                ptdf::spawn(move || drop(quiet.wait(m.lock())))
            },
            {
                let never = never.clone();
                ptdf::spawn(move || {
                    let _ = never.acquire_timeout(us(500));
                })
            },
        ];
        ptdf::work(2_000);
        for v in &victims {
            v.cancel();
        }
        for v in victims {
            let _ = v.try_join();
        }
        drop((g_held, g_rw));
        // A join that times out, then the real one.
        let slow = ptdf::spawn(|| ptdf::work(20_000));
        if let Err(slow) = slow.join_timeout(us(5)) {
            slow.join();
        }
    });
    black_box((*counter.lock(), *table.read()));
}

/// A charge-dense quantum: three threads each issuing 4,000 `work`/`touch`
/// pairs, several timeslice preemptions per thread at these virtual
/// durations — the shape that deferred charge batching and the cached
/// timeslice threshold exist for.
fn charge_storm() {
    ptdf::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || {
                for i in 0..4_000u64 {
                    ptdf::work(150 + (i + t) % 7);
                    ptdf::touch(t * 64 + i % 8, 256);
                }
            });
        }
    });
}

/// Every run cell of the table, in a fixed order.
fn run_rows() -> String {
    let mut out = String::new();
    for l in litmus().iter().filter(|l| !l.buggy) {
        for kind in SchedKind::SWEEP {
            for variant in VARIANTS {
                run_cell(
                    &mut out,
                    &format!("litmus:{}", l.name),
                    l.procs,
                    kind,
                    variant,
                    l.body,
                );
            }
        }
    }
    for kind in SchedKind::SWEEP {
        for variant in VARIANTS {
            run_cell(&mut out, "storm(4,3)", 4, kind, variant, || storm(4, 3));
        }
    }
    for kind in SchedKind::SWEEP {
        for variant in VARIANTS {
            run_cell(&mut out, "charge(3x4000)", 4, kind, variant, charge_storm);
        }
    }
    // The paper's seven applications at test size (`Scale::Small`) and
    // the open-system server take a `Config` or build their own: natural
    // schedules only.
    for app in ptdf_apps::APPS {
        let bodies = (app.build)(ptdf_apps::Scale::Small);
        for kind in SchedKind::SWEEP {
            let cfg = Config::new(4, kind).with_trace();
            let report = ptdf_bench::run_app(&bodies, ptdf_apps::Version::Fine, cfg);
            let cell = format!("app:{}", app.label.replace(' ', "_"));
            row(&mut out, &cell, kind, "natural", "ok", &report);
        }
    }
    // Nominal load and 2x overload: admission sheds at one and not the
    // other, so both pin the server's admission constants.
    for pct in [100, 200] {
        let server = ptdf_server::ServerConfig {
            requests: 200,
            ..ptdf_server::ServerConfig::quick(42)
        }
        .overload_pct(pct);
        let cell = format!("server(200@{pct}%)");
        for kind in SchedKind::SWEEP {
            let run = ptdf_server::serve_traced(&server, 4, kind);
            row(&mut out, &cell, kind, "natural", "ok", &run.report);
        }
    }
    out
}

/// What the explorer does on every litmus program under every policy:
/// schedules executed, distinct fingerprints among them, violation classes.
fn explore_rows() -> String {
    let mut out = String::new();
    for l in litmus() {
        for kind in SchedKind::SWEEP {
            let r = explore(Config::new(l.procs, kind), ExploreOpts::new(3, 400), l.body);
            writeln!(
                out,
                "explore:{}\t{}\tdepth3,budget400\t{}\t{}\t{}",
                l.name,
                kind.name(),
                r.schedules_executed,
                r.schedules_executed - r.redundant,
                r.violations.len(),
            )
            .expect("writing to a String");
        }
    }
    out
}

fn table() -> String {
    // Panicking cells are rows, not noise on stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let body = format!(
        "{HEADER}{}# cell\tpolicy\topts\tschedules_executed\tdistinct_fingerprints\tviolations\n{}",
        run_rows(),
        explore_rows()
    );
    std::panic::set_hook(hook);
    body
}

#[test]
fn schedules_match_the_committed_fingerprints() {
    ptdf_bench::golden::assert_unchanged(
        GOLDEN,
        &table(),
        "A refactor must not move a schedule. If this change moves them on \
         purpose: cargo test --test schedule_fingerprints -- --ignored bless",
    );
}

#[test]
#[ignore = "rewrites tests/golden/fingerprints.tsv from the code as it stands"]
fn bless() {
    ptdf_bench::golden::bless(GOLDEN, &table());
}
