//! The six workloads. Each is prepared once per child process (`prepare`:
//! input generation plus the serial reference) and then executed twice — an
//! untimed warm-up and the timed pass — through the same `Prepared::run`.
//!
//! Everything a run reports on the *virtual* clock is a pure function of
//! (workload, seed, sizes); the host clock is read only by the caller.

use std::cell::{Cell as StdCell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ptdf::{
    check_trace, spawn, try_run, work, yield_now, Barrier, Condvar, Config, CostModel, JoinError,
    Mutex, Report, RwLock, SchedKind, Semaphore, Trace, VirtTime,
};
use ptdf_apps::util::splitmix64;
use ptdf_apps::{barnes_hut, dtree, fft, fmm, matmul, spmv, volren};
use ptdf_server::{serve, serve_traced, ServerConfig, ServerRun};
use ptdf_smp::HostPhaseStats;

use crate::spans::Spans;

/// Virtual processors of every workload.
pub const PROCS: usize = 4;

/// The five policies `paper_apps` sweeps (and the per-policy ledger rows).
pub const POLICIES: [SchedKind; 5] = [
    SchedKind::Fifo,
    SchedKind::Lifo,
    SchedKind::Df,
    SchedKind::DfDeques,
    SchedKind::Ws,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperApps,
    SpawnStorm,
    SyncStorm,
    ServerNominal,
    ServerOverload,
    FlightRecorder,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PaperApps,
        Workload::SpawnStorm,
        Workload::SyncStorm,
        Workload::ServerNominal,
        Workload::ServerOverload,
        Workload::FlightRecorder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperApps => "paper_apps",
            Workload::SpawnStorm => "spawn_storm",
            Workload::SyncStorm => "sync_storm",
            Workload::ServerNominal => "server_nominal",
            Workload::ServerOverload => "server_overload",
            Workload::FlightRecorder => "flight_recorder",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes. `full` is what `BENCHMARK.json` records (a timed pass of
/// about a second on the 2-core reference VM); `quick` is the smoke scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub quick: bool,
    pub matmul_n: usize,
    pub bodies: usize,
    pub particles: usize,
    pub instances: usize,
    pub fft_log2n: u32,
    pub spmv_nodes: usize,
    pub volren_image: usize,
    pub spawn_threads: u64,
    pub sync_rounds: u64,
    pub server_requests: usize,
    pub recorder_requests: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            quick: false,
            matmul_n: 512,
            bodies: 500,
            particles: 1_500,
            instances: 8_000,
            fft_log2n: 19,
            spmv_nodes: 10_000,
            volren_image: 160,
            spawn_threads: 500_000,
            sync_rounds: 24_000,
            server_requests: 80_000,
            recorder_requests: 5_000,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            quick: true,
            matmul_n: 128,
            bodies: 250,
            particles: 500,
            instances: 2_000,
            fft_log2n: 14,
            spmv_nodes: 2_000,
            volren_image: 32,
            spawn_threads: 40_000,
            sync_rounds: 3_000,
            server_requests: 6_000,
            recorder_requests: 400,
        }
    }
}

/// One `ptdf::run`/`serve` call of a pass, with the model outputs the golden
/// file pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    pub name: String,
    pub fields: Vec<(&'static str, u64)>,
}

impl Cell {
    fn of(name: String, report: &Report) -> Cell {
        Cell {
            name,
            fields: vec![
                ("makespan_ns", report.makespan().as_ns()),
                ("footprint", report.footprint()),
                ("dispatches", dispatches(report)),
                ("steals", report.steals),
            ],
        }
    }

    fn field(&self, key: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }
}

fn dispatches(report: &Report) -> u64 {
    report.stats.procs.iter().map(|p| p.dispatches).sum()
}

/// What one execution of a workload produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub cells: Vec<Cell>,
    /// Virtual latency of every completed operation, ns (a cell's makespan, a
    /// spawn wave, a sync round, a request from its *scheduled* arrival).
    pub latencies_ns: Vec<u64>,
    /// Operations attempted (cells, threads, rounds, offered requests).
    pub attempted: u64,
    /// Operations that completed and count as goodput.
    pub good: u64,
    /// Operations whose *output was wrong*: a mismatching or stalled cell, a
    /// join error, a broken invariant, a request the server lost track of.
    /// Always 0 on a healthy tree; distinct from the server's by-design
    /// shed/late/cancelled requests, which only lower `good`.
    pub bad: u64,
    /// Engine phase profile summed over cells (zeros unless profiled).
    pub host_phase: HostPhaseStats,
    /// Flight-recorder records (spans + events) and exported bytes.
    pub records: u64,
    pub bytes: u64,
}

impl Outcome {
    pub fn makespan_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.field("makespan_ns")).sum()
    }

    pub fn footprint(&self) -> u64 {
        self.cells.iter().map(|c| c.field("footprint")).sum()
    }

    pub fn dispatches(&self) -> u64 {
        self.cells.iter().map(|c| c.field("dispatches")).sum()
    }

    fn absorb(&mut self, name: String, report: &Report) {
        self.cells.push(Cell::of(name, report));
        self.host_phase.absorb(report.host_phase());
    }
}

type RunFn = dyn Fn(bool, &mut Spans) -> Outcome;

/// A workload with its inputs and reference built, ready to execute.
pub struct Prepared {
    run: Box<RunFn>,
    /// Host seconds of the workload's app arithmetic run outside any runtime
    /// (the floor no engine change can touch); `None` where the workload has
    /// no app arithmetic.
    app_floor: Option<Box<dyn Fn() -> f64>>,
}

impl Prepared {
    /// Executes the workload once; `profile` arms the engine phase profiler.
    pub fn run(&self, profile: bool, spans: &mut Spans) -> Outcome {
        (self.run)(profile, spans)
    }

    pub fn app_floor_s(&self) -> f64 {
        self.app_floor.as_ref().map_or(0.0, |f| f())
    }
}

/// Builds inputs (span `input_gen`) and the reference (span `reference`).
pub fn prepare(w: Workload, seed: u64, sz: Sizes, spans: &mut Spans) -> Prepared {
    match w {
        Workload::PaperApps => prepare_paper_apps(seed, sz, spans),
        Workload::SpawnStorm => Prepared {
            run: Box::new(move |profile, spans| {
                spawn_storm(seed, sz.spawn_threads, profile, spans)
            }),
            app_floor: None,
        },
        Workload::SyncStorm => Prepared {
            run: Box::new(move |profile, spans| sync_storm(seed, sz.sync_rounds, profile, spans)),
            app_floor: None,
        },
        Workload::ServerNominal | Workload::ServerOverload => {
            let pct = if w == Workload::ServerNominal {
                100
            } else {
                200
            };
            let cfg = spans.scoped("input_gen", |_| {
                server_config(seed, sz.server_requests, pct)
            });
            Prepared {
                run: Box::new(move |_, spans| server(&cfg, spans)),
                app_floor: None,
            }
        }
        Workload::FlightRecorder => {
            let cfg = spans.scoped("input_gen", |_| {
                server_config(seed, sz.recorder_requests, 200)
            });
            Prepared {
                run: Box::new(move |_, spans| flight_recorder(&cfg, spans)),
                app_floor: None,
            }
        }
    }
}

fn base_config(kind: SchedKind, seed: u64, profile: bool) -> Config {
    let mut cfg = Config::new(PROCS, kind).with_host_profile(profile);
    cfg.seed = seed;
    cfg
}

// ---------------------------------------------------------------- paper_apps

/// The seven apps, in `paper_apps` cell order.
pub const APPS: [&str; 7] = [
    "matmul",
    "barnes_hut",
    "fmm",
    "dtree",
    "fft",
    "spmv",
    "volren",
];

struct AppParams {
    matmul: matmul::Params,
    bh: barnes_hut::Params,
    fmm: fmm::Params,
    dtree: dtree::Params,
    fft: fft::Params,
    spmv: spmv::Params,
    volren: volren::Params,
}

/// `Params::small()` shapes (same grain, base block and thread counts) at the
/// problem sizes in `sz`, every seeded generator fed from `seed`. The volume
/// phantom has no seed; its input is the same for every seed.
fn app_params(seed: u64, sz: Sizes) -> AppParams {
    AppParams {
        matmul: matmul::Params {
            n: sz.matmul_n,
            seed,
            ..matmul::Params::small()
        },
        bh: barnes_hut::Params {
            n_bodies: sz.bodies,
            seed,
            ..barnes_hut::Params::small()
        },
        // One tree level fewer than `small()`: M2L over 8^3 cells costs the
        // same whatever the particle count and would be half the workload.
        fmm: fmm::Params {
            n_particles: sz.particles,
            levels: 2,
            seed,
            ..fmm::Params::small()
        },
        // `small()` keeps instances / min_split near the paper's 134k / 2000.
        dtree: dtree::Params {
            instances: sz.instances,
            min_split: sz.instances / 27,
            seed,
            ..dtree::Params::small()
        },
        fft: fft::Params {
            log2n: sz.fft_log2n,
            seed,
            ..fft::Params::small(256)
        },
        spmv: spmv::Params {
            nodes: sz.spmv_nodes,
            seed,
            ..spmv::Params::small()
        },
        volren: volren::Params {
            image: sz.volren_image,
            ..volren::Params::small()
        },
    }
}

struct Inputs {
    p: AppParams,
    mat: (Vec<f64>, Vec<f64>),
    bodies: Vec<barnes_hut::Body>,
    particles: Vec<fmm::Particle>,
    dataset: dtree::Dataset,
    signal: Vec<fft::Cpx>,
    csr: spmv::Csr,
    vector: Vec<f64>,
    volume: volren::Volume,
}

enum Output {
    Mat(Vec<f64>),
    Bodies(Vec<barnes_hut::Body>),
    Field(fmm::FieldResult),
    Tree(dtree::Node),
    Spectrum(Vec<fft::Cpx>),
    Vector(Vec<f64>),
    Image(Vec<f32>),
}

/// Runs app `i` on the prepared inputs in whatever execution context is
/// active: the parallel runtime, `run_serial`, or none (a plain call).
fn exec(i: usize, inp: &Inputs) -> Output {
    let p = &inp.p;
    match i {
        0 => Output::Mat(matmul::multiply(&inp.mat.0, &inp.mat.1, &p.matmul)),
        1 => {
            let mut bodies = inp.bodies.clone();
            barnes_hut::run_fine(&mut bodies, &p.bh);
            Output::Bodies(bodies)
        }
        2 => Output::Field(fmm::run_fmm(&inp.particles, &p.fmm)),
        3 => Output::Tree(dtree::build(&inp.dataset, &p.dtree)),
        4 => Output::Spectrum(fft::fft(&inp.signal, &p.fft)),
        5 => Output::Vector(spmv::run_fine(&inp.csr, &inp.vector, &p.spmv)),
        6 => Output::Image(volren::render_fine(&inp.volume, &p.volren)),
        _ => unreachable!("seven apps"),
    }
}

/// Output check against the serial reference, with the tolerance each app's
/// own tests use.
fn agrees(got: &Output, want: &Output) -> bool {
    match (got, want) {
        (Output::Mat(a), Output::Mat(b)) => a.len() == b.len() && matmul::max_abs_diff(a, b) < 1e-9,
        (Output::Bodies(a), Output::Bodies(b)) => {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    (0..3).map(|k| (x.pos[k] - y.pos[k]).powi(2)).sum::<f64>() < 1e-18
                })
        }
        (Output::Field(a), Output::Field(b)) => {
            a.potential.len() == b.potential.len()
                && fmm::rel_rms(&a.potential, &b.potential) < 1e-13
        }
        (Output::Tree(a), Output::Tree(b)) => a == b,
        (Output::Spectrum(a), Output::Spectrum(b)) => {
            a.len() == b.len() && fft::rms_error(a, b) < 1e-12
        }
        (Output::Vector(a), Output::Vector(b)) => a == b,
        (Output::Image(a), Output::Image(b)) => a == b,
        _ => false,
    }
}

fn gen_inputs(seed: u64, sz: Sizes) -> Rc<Inputs> {
    let p = app_params(seed, sz);
    Rc::new(Inputs {
        mat: matmul::gen_input(&p.matmul),
        bodies: barnes_hut::plummer(p.bh.n_bodies, p.bh.seed),
        particles: fmm::gen_particles(&p.fmm),
        dataset: dtree::gen_dataset(&p.dtree),
        signal: fft::gen_input(&p.fft),
        csr: spmv::gen_matrix(&p.spmv),
        vector: spmv::gen_vector(&p.spmv),
        volume: volren::gen_volume(p.volren.size),
        p,
    })
}

fn prepare_paper_apps(seed: u64, sz: Sizes, spans: &mut Spans) -> Prepared {
    let inputs = spans.scoped("input_gen", |_| gen_inputs(seed, sz));
    let reference: Rc<Vec<Output>> = spans.scoped("reference", |_| {
        Rc::new(
            (0..APPS.len())
                .map(|i| ptdf::run_serial(CostModel::ultrasparc_167(), || exec(i, &inputs)).0)
                .collect(),
        )
    });
    let floor = AppBench {
        inputs: inputs.clone(),
        seed,
    };
    Prepared {
        run: Box::new(move |profile, spans| {
            let mut out = Outcome::default();
            for (i, app) in APPS.iter().enumerate() {
                for kind in POLICIES {
                    let inp = inputs.clone();
                    let ran = spans.scoped("run", |_| {
                        try_run(base_config(kind, seed, profile), move || exec(i, &inp))
                    });
                    out.attempted += 1;
                    match ran {
                        Ok((got, report)) => {
                            let ok = spans.scoped("verify", |_| agrees(&got, &reference[i]));
                            out.latencies_ns.push(report.makespan().as_ns());
                            out.absorb(format!("{app}/{}", kind.name()), &report);
                            if ok {
                                out.good += 1;
                            } else {
                                out.bad += 1;
                            }
                        }
                        Err(_) => out.bad += 1,
                    }
                }
            }
            out
        }),
        app_floor: Some(Box::new(move || {
            let one_policy: f64 = (0..APPS.len()).map(|i| floor.standalone_ms(i)).sum();
            one_policy / 1e3 * POLICIES.len() as f64
        })),
    }
}

/// The seven apps on `paper_apps` inputs, timed one at a time on the host
/// clock (the `apps.*` ledger rows and the reconciliation's app floor).
pub struct AppBench {
    inputs: Rc<Inputs>,
    seed: u64,
}

impl AppBench {
    pub fn new(seed: u64, sz: Sizes) -> Self {
        AppBench {
            inputs: gen_inputs(seed, sz),
            seed,
        }
    }

    /// Host ms of app `i` as a plain call outside any runtime.
    pub fn standalone_ms(&self, i: usize) -> f64 {
        let t = std::time::Instant::now();
        std::hint::black_box(exec(i, &self.inputs));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Host ms of app `i` under the runtime with DF.
    pub fn runtime_df_ms(&self, i: usize) -> f64 {
        let inp = self.inputs.clone();
        let t = std::time::Instant::now();
        let ran = try_run(base_config(SchedKind::Df, self.seed, false), move || {
            exec(i, &inp)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(ran.is_ok(), "{} stalled under DF", APPS[i]);
        ms
    }
}

// --------------------------------------------------------------- spawn_storm

/// `threads` spawn/join pairs in waves of 64 under DF; every thread charges a
/// seeded 150–249 cycles and returns its index, which the root sums.
fn spawn_storm(seed: u64, threads: u64, profile: bool, spans: &mut Spans) -> Outcome {
    let ran = spans.scoped("run", |_| {
        try_run(base_config(SchedKind::Df, seed, profile), move || {
            let mut lat = Vec::with_capacity(threads.div_ceil(64) as usize);
            let (mut state, mut sum, mut join_errors, mut done) = (seed, 0u64, 0u64, 0u64);
            while done < threads {
                let wave = 64.min(threads - done);
                let cycles = 150 + splitmix64(&mut state) % 100;
                let t0 = ptdf::now().expect("inside the runtime");
                let handles: Vec<_> = (done..done + wave)
                    .map(|id| {
                        spawn(move || {
                            work(cycles);
                            id
                        })
                    })
                    .collect();
                for h in handles {
                    match h.try_join() {
                        Ok(id) => sum += id,
                        Err(_) => join_errors += 1,
                    }
                }
                lat.push(ptdf::now().expect("inside the runtime").since(t0).as_ns());
                done += wave;
            }
            (lat, sum, join_errors)
        })
    });
    let mut out = Outcome {
        attempted: threads,
        ..Outcome::default()
    };
    match ran {
        Ok(((lat, sum, join_errors), report)) => spans.scoped("verify", |_| {
            out.absorb("spawn_storm/df".to_string(), &report);
            out.latencies_ns = lat;
            out.bad = join_errors;
            if join_errors == 0 && sum != threads * (threads - 1) / 2 {
                out.bad += 1;
            }
            if report.total_threads as u64 != threads + 1 {
                out.bad += 1;
            }
            out.good = threads - out.bad.min(threads);
        }),
        Err(_) => out.bad = threads,
    }
    out
}

// ---------------------------------------------------------------- sync_storm

const SYNC_WORKERS: usize = 8;
const QUEUE_CAP: usize = 4;

#[derive(Default)]
struct SyncTally {
    produced: StdCell<u64>,
    consumed: StdCell<u64>,
    timeouts: StdCell<u64>,
    cancels: StdCell<u64>,
    broken: StdCell<u64>,
}

fn bump(c: &StdCell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// `rounds` rounds of six blocking phases over eight persistent threads under
/// DF, critical sections of a seeded 5–14 cycles: mutex convoy, four
/// semaphore ping-pong pairs, a 2×2 condvar bounded queue, an 8-party
/// barrier, a 6R/2W rwlock, then a timed wait that fires and (every eighth
/// round) a cancel of a blocked thread.
fn sync_storm(seed: u64, rounds: u64, profile: bool, spans: &mut Spans) -> Outcome {
    let ran = spans.scoped("run", |_| {
        try_run(base_config(SchedKind::Df, seed, profile), move || {
            let convoy = Mutex::new(0u64);
            let pairs: Vec<(Semaphore, Semaphore)> = (0..SYNC_WORKERS / 2)
                .map(|_| (Semaphore::new(0), Semaphore::new(0)))
                .collect();
            let queue = Mutex::new(VecDeque::<u64>::new());
            let (not_full, not_empty) = (Condvar::new(), Condvar::new());
            let barrier = Barrier::new(SYNC_WORKERS);
            let shared = RwLock::new(0u64);
            let never = Semaphore::new(0);
            let tally = Rc::new(SyncTally::default());
            let lat = Rc::new(RefCell::new(Vec::with_capacity(rounds as usize)));
            let workers: Vec<_> = (0..SYNC_WORKERS)
                .map(|w| {
                    let (convoy, pair, queue) =
                        (convoy.clone(), pairs[w / 2].clone(), queue.clone());
                    let (not_full, not_empty) = (not_full.clone(), not_empty.clone());
                    let (barrier, shared, never) = (barrier.clone(), shared.clone(), never.clone());
                    let (tally, lat) = (tally.clone(), lat.clone());
                    spawn(move || {
                        let mut state = seed ^ 0x5C0F_F1E5;
                        let mut top = ptdf::now().expect("inside the runtime");
                        for r in 0..rounds {
                            // Same draw on every worker: the round's critical-section length.
                            let cs = 5 + splitmix64(&mut state) % 10;
                            {
                                // Yielding inside the section is what makes
                                // this a convoy: the others run, find the
                                // lock held, block, and are handed it in turn.
                                let mut g = convoy.lock();
                                *g += 1;
                                work(cs);
                                yield_now();
                            }
                            if w % 2 == 0 {
                                pair.0.release();
                                pair.1.acquire();
                            } else {
                                pair.0.acquire();
                                pair.1.release();
                            }
                            match w {
                                0 | 1 => {
                                    let item = 2 * r + w as u64;
                                    let mut g = queue.lock();
                                    while g.len() >= QUEUE_CAP {
                                        g = not_full.wait(g);
                                    }
                                    g.push_back(item);
                                    drop(g);
                                    bump(&tally.produced, item);
                                    not_empty.notify_one();
                                }
                                2 | 3 => {
                                    let mut g = queue.lock();
                                    while g.is_empty() {
                                        g = not_empty.wait(g);
                                    }
                                    let item = g.pop_front().expect("non-empty under the lock");
                                    drop(g);
                                    bump(&tally.consumed, item);
                                    not_full.notify_one();
                                }
                                _ => {}
                            }
                            barrier.wait();
                            if w < 6 {
                                let g = shared.read();
                                // Every earlier round's two writes are in; this round's may be.
                                if !(2 * r..=2 * r + 2).contains(&*g) {
                                    bump(&tally.broken, 1);
                                }
                                work(cs);
                                // Readers hold across a yield so the two
                                // writers queue behind them.
                                yield_now();
                            } else {
                                *shared.write() += 1;
                            }
                            if never
                                .acquire_timeout(VirtTime::from_ns(400 + 20 * cs))
                                .is_err()
                            {
                                bump(&tally.timeouts, 1);
                            }
                            if r % 8 == 0 && (r / 8) as usize % SYNC_WORKERS == w {
                                let blocked = never.clone();
                                let victim = spawn(move || blocked.acquire());
                                victim.cancel();
                                match victim.try_join() {
                                    Err(JoinError::Canceled(_)) => bump(&tally.cancels, 1),
                                    _ => bump(&tally.broken, 1),
                                }
                            }
                            if w == 0 {
                                let now = ptdf::now().expect("inside the runtime");
                                lat.borrow_mut().push(now.since(top).as_ns());
                                top = now;
                            }
                        }
                    })
                })
                .collect();
            let mut broken = workers
                .into_iter()
                .map(|h| h.try_join().is_err() as u64)
                .sum::<u64>();
            let w = SYNC_WORKERS as u64;
            let checks = [
                *convoy.lock() == w * rounds,
                pairs
                    .iter()
                    .all(|(a, b)| a.permits() == 0 && b.permits() == 0),
                queue.lock().is_empty(),
                tally.produced.get() == tally.consumed.get(),
                *shared.read() == 2 * rounds,
                tally.timeouts.get() == w * rounds,
                tally.cancels.get() == rounds.div_ceil(8),
                never.permits() == 0,
            ];
            broken += tally.broken.get() + checks.iter().filter(|ok| !**ok).count() as u64;
            (lat.take(), broken)
        })
    });
    let mut out = Outcome {
        attempted: rounds,
        ..Outcome::default()
    };
    match ran {
        Ok(((lat, broken), report)) => spans.scoped("verify", |_| {
            out.absorb("sync_storm/df".to_string(), &report);
            out.bad = broken + (lat.len() as u64 != rounds) as u64;
            out.latencies_ns = lat;
            out.good = rounds - out.bad.min(rounds);
        }),
        Err(_) => out.bad = rounds,
    }
    out
}

// -------------------------------------------------- server_* / flight_recorder

/// `ServerConfig::standard(seed)` at `requests` arrivals and `pct` % of the
/// nominal rate. The server is an **open loop**: arrivals follow an absolute
/// virtual schedule (Poisson, mean 70,000 cycles at 100 %, a burst of 3 every
/// 10th) whether or not the system keeps up, and latency is measured from the
/// *scheduled* arrival.
pub fn server_config(seed: u64, requests: usize, pct: u64) -> ServerConfig {
    ServerConfig {
        requests,
        ..ServerConfig::standard(seed)
    }
    .overload_pct(pct)
}

fn server_outcome(name: &str, cfg: &ServerConfig, run: &ServerRun, out: &mut Outcome) {
    let s = &run.stats;
    let mut cell = Cell::of(name.to_string(), &run.report);
    cell.fields.extend([
        ("offered", s.offered),
        ("admitted", s.admitted),
        ("completed", s.completed),
        ("late", s.late),
        ("canceled", s.canceled),
        ("shed", s.shed),
        ("retried_admits", s.retried_admits),
    ]);
    out.cells.push(cell);
    out.host_phase.absorb(run.report.host_phase());
    out.attempted = s.offered;
    out.good = s.completed;
    out.latencies_ns = s.latencies_ns.clone();
    // A request the server lost track of, or a run that broke its own space
    // bound, is a wrong output; shed/late/cancelled requests are not.
    let accounted = s.completed + s.late + s.canceled + s.shed;
    out.bad = accounted.abs_diff(s.offered)
        + s.offered.abs_diff(cfg.requests as u64)
        + (s.latencies_ns.len() as u64).abs_diff(s.completed)
        + run.report.bound_violations();
}

/// `serve` builds its own `Config`, so the engine phase profiler cannot be
/// armed from outside: the traced pass of a server workload reports its
/// dispatch count and host ns per dispatch, and zero phase nanoseconds.
fn server(cfg: &ServerConfig, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let run = spans.scoped("run", |_| serve(cfg, PROCS, SchedKind::Df));
    spans.scoped("verify", |_| {
        server_outcome("server/df", cfg, &run, &mut out)
    });
    out
}

/// Flight-recorder records of a trace: spans plus events.
pub fn records(trace: &Trace) -> u64 {
    (trace.spans.len() + trace.events.len()) as u64
}

fn flight_recorder(cfg: &ServerConfig, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let run = spans.scoped("run", |_| serve_traced(cfg, PROCS, SchedKind::Df));
    spans.scoped("verify", |_| {
        server_outcome("flight_recorder/df", cfg, &run, &mut out)
    });
    let trace = run
        .report
        .trace
        .as_ref()
        .expect("serve_traced records a trace");
    out.records = records(trace);
    let json = spans.scoped("export", |_| trace.to_chrome_json());
    out.bytes = json.len() as u64;
    let parsed = spans.scoped("parse", |_| Trace::from_chrome_json(&json));
    let clean = spans.scoped("check", |_| check_trace(trace).is_clean());
    let tiled = spans.scoped("critpath", |_| {
        run.report
            .critpath()
            .is_some_and(|cp| cp.blame.sum() == run.report.makespan())
    });
    out.bad += (parsed.as_ref() != Ok(trace)) as u64 + !clean as u64 + !tiled as u64;
    out
}
