//! The registry of figures: every table and figure of the paper, plus the
//! ablations and the §5.2 scaling study, as one [`Figure`] each.
//!
//! A figure runs its experiment at the active scale ([`crate::scale`]) on
//! the apps of the registry `ptdf_apps::APPS`, building each app's input
//! once, and returns its [`Table`]s; a table that is drawn declares its
//! [`Chart`]s beside its columns, and its last table carries the
//! paper-shape note.
//! The `repro` bench target prints the tables and writes their CSVs and
//! SVGs; `tests/figures.rs` pins every table at quick size in
//! `tests/golden/figures.tsv`.

use std::ops::RangeInclusive;
use std::rc::Rc;

use ptdf::{Config, CostModel, Report, SchedKind, SerialReport, VirtTime, STACK_1MB, STACK_8KB};
use ptdf_apps::{
    volren, volren_params, App, Bodies, Version, BARNES_HUT, DTREE, FFT, FMM, MATMUL, SPMV,
};
use ptdf_dag::{binary_tree, fig1_example, gen_program, max_path_threads, GenParams, Program};

use crate::plot::{Chart, Lines};
use crate::{full_scale, run_app, run_app_serial, run_program, scale, Table};

/// One figure of the paper, or one ablation of it.
pub struct Figure {
    /// The id EXPERIMENTS.md and DESIGN.md use, and the `repro` argument
    /// that selects it.
    pub id: &'static str,
    /// Runs the figure at the active scale.
    pub tables: fn() -> Vec<Table>,
}

/// Every figure, in the paper's order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 13] = [
    Figure { id: "fig01_graph", tables: fig01_graph },
    Figure { id: "fig03_overheads", tables: fig03_overheads },
    Figure { id: "fig05_matmul_native", tables: fig05_matmul_native },
    Figure { id: "fig06_breakdown", tables: fig06_breakdown },
    Figure { id: "fig07_matmul_sched", tables: fig07_matmul_sched },
    Figure { id: "fig08_table", tables: fig08_table },
    Figure { id: "fig09_memory", tables: fig09_memory },
    Figure { id: "fig10_fft", tables: fig10_fft },
    Figure { id: "fig11_granularity", tables: fig11_granularity },
    Figure { id: "ablate_quota", tables: ablate_quota },
    Figure { id: "ablate_stealing", tables: ablate_stealing },
    Figure { id: "ablate_sensitivity", tables: ablate_sensitivity },
    Figure { id: "scale16", tables: scale16 },
];

/// Processor counts of the paper's plots.
const PROCS: RangeInclusive<usize> = 1..=8;

/// Processors of the paper's single-p tables (Figures 8 and 11, the
/// quota and sensitivity ablations).
const P: usize = 8;

fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

fn speedup(report: &Report, serial: VirtTime) -> String {
    format!("{:.2}", report.speedup_vs(serial))
}

/// `app`'s input at the active scale, built once for the figure.
fn build(app: &App) -> Bodies {
    (app.build)(scale())
}

/// One run of the fine version under `cfg`.
fn fine(bodies: &Bodies, cfg: Config) -> Report {
    run_app(bodies, Version::Fine, cfg)
}

/// The serial baseline under the paper's calibration.
fn serial(bodies: &Bodies) -> SerialReport {
    run_app_serial(bodies, CostModel::ultrasparc_167())
}

/// `tables`, the last one carrying the figure's `note`.
fn noted(mut tables: Vec<Table>, note: &str) -> Vec<Table> {
    let last = tables.pop().expect("a figure has a table");
    tables.push(last.note(note));
    tables
}

/// `prefix_` and the app's label, lower case, without spaces and dots.
fn per_app(prefix: &str, app: &App) -> String {
    format!(
        "{prefix}_{}",
        app.label.to_lowercase().replace([' ', '.'], "")
    )
}

/// Figure 1's graphs: the paper's 7-thread example, binary trees, and the
/// first three seeds whose random program forks at least 50 threads.
pub fn fig01_graphs() -> Vec<(String, Program)> {
    let mut graphs = vec![("fig1 (7 threads)".to_string(), fig1_example())];
    for depth in [4, 6, 8, 10] {
        graphs.push((format!("binary depth {depth}"), binary_tree(depth)));
    }
    for seed in [3, 4, 6] {
        let prog = gen_program(GenParams {
            seed,
            max_threads: 400,
            ..GenParams::default()
        });
        graphs.push((format!("random seed {seed}"), prog));
    }
    graphs
}

/// Figure 1: scheduler space behaviour on the example computation graph.
/// A serial FIFO execution of the 7-thread example makes all 7 threads
/// simultaneously active, while a depth-first execution needs at most
/// `d = 3`; the same contrast on deeper trees and random programs, plus
/// the §4 queue-LIFO variant (only *close* to depth-first). Every cell is
/// the real scheduler at p = 1, running the graph through `run_program`.
fn fig01_graph() -> Vec<Table> {
    let kinds = [SchedKind::Fifo, SchedKind::Lifo, SchedKind::Df];
    let mut headers = vec!["graph", "threads", "d"];
    headers.extend(kinds.map(SchedKind::name));
    let mut t = Table::new(
        "fig01_graph",
        "Figure 1: max simultaneously active threads (serial execution)",
        &headers,
    );
    for (name, p) in fig01_graphs() {
        let mut row = vec![name, p.len().to_string(), max_path_threads(&p).to_string()];
        for kind in kinds {
            // A quota no run reaches: DF forks no dummy threads.
            let cfg = Config::new(1, kind)
                .with_cost(CostModel::zero_overhead())
                .with_quota(u64::MAX / 4);
            row.push(run_program(&p, cfg).max_live_threads().to_string());
        }
        t.row(row);
    }
    vec![t.note(
        "paper: FIFO activates all 7 threads of the example; a depth-first\n\
         order needs at most d = 3. The gap widens with graph size.",
    )]
}

/// Figure 3: thread operation overheads. The modelled Solaris 2.5 costs
/// beside the paper's measurements (equal by construction: they are the
/// calibration). The host cost of this runtime's own operations is the
/// benchmark's business: `ptdf-perf layers` prints it.
fn fig03_overheads() -> Vec<Table> {
    let cost = CostModel::ultrasparc_167();
    let mut model = Table::new(
        "fig03_model",
        "Figure 3 (model): charged costs vs the paper's Solaris 2.5 measurements",
        &["operation", "model (us)", "paper (us)"],
    );
    let us = |v: VirtTime| format!("{:.1}", v.as_ns() as f64 / 1e3);
    let sem_sync = VirtTime::from_ns(2 * cost.sync_op.as_ns() + cost.ctx_switch.as_ns());
    for (op, v, paper) in [
        (
            "create (unbound, preallocated stack)",
            cost.thread_create,
            "20.5",
        ),
        ("join (exited thread)", cost.join_exited, "~5"),
        ("context switch", cost.ctx_switch, "~10"),
        ("semaphore sync (2 threads, 1 switch)", sem_sync, "19"),
        (
            "stack reservation 8KB (fresh)",
            cost.stack_fresh(8 * 1024),
            "200",
        ),
        (
            "stack reservation 1MB (fresh)",
            cost.stack_fresh(1024 * 1024),
            "260",
        ),
    ] {
        model.row(vec![op.into(), us(v), paper.into()]);
    }

    vec![model.note(
        "paper context: Solaris user-level thread creation cost 20.5 us on a\n\
         167 MHz UltraSPARC (~3400 cycles). This runtime's own host costs are\n\
         `ptdf-perf layers` rows: fiber.create_drop_ns, fiber.create_run_exit_ns,\n\
         fiber.switch_ns and runtime.spawn_join_ns.df.",
    )]
}

/// Matmul's input and its serial run, whose time and space are printed.
fn matmul_and_serial() -> (Bodies, SerialReport) {
    let matmul = build(&MATMUL);
    let serial = serial(&matmul);
    println!(
        "serial: time {} | space {} MB",
        serial.time,
        mb(serial.s1_bytes())
    );
    (matmul, serial)
}

/// Figure 5: matmul under the **native** Solaris Pthreads implementation
/// (FIFO scheduler, 1 MB default stacks): (a) speedup over the serial
/// version, (b) memory high-water mark with the serial space for
/// reference. Speedup is "unexpectedly poor" and the 8-processor footprint
/// (115 MB) dwarfs the serial program's (25 MB).
fn fig05_matmul_native() -> Vec<Table> {
    let (matmul, serial) = matmul_and_serial();
    let mut t = Table::new(
        "fig05_matmul_native",
        "Figure 5: matmul, native FIFO scheduler, 1MB default stacks",
        &[
            "p",
            "speedup",
            "memory (MB)",
            "max live threads",
            "threads created",
        ],
    )
    .chart(Chart {
        name: "fig05a_speedup",
        title: "Fig 5(a): matmul, native FIFO scheduler",
        axes: ("processors", "speedup"),
        x: 0,
        lines: Lines::Columns(&[1]),
    })
    .chart(Chart {
        name: "fig05b_memory",
        title: "Fig 5(b): matmul memory, native scheduler",
        axes: ("processors", "MB"),
        x: 0,
        lines: Lines::Columns(&[2]),
    });
    t.row(vec![
        "serial".into(),
        "1.00".into(),
        mb(serial.s1_bytes()),
        "1".into(),
        "0".into(),
    ]);
    for p in PROCS {
        let report = fine(&matmul, Config::solaris_native(p));
        t.row(vec![
            p.to_string(),
            speedup(&report, serial.time),
            mb(report.footprint()),
            report.max_live_threads().to_string(),
            report.total_threads.to_string(),
        ]);
    }
    vec![t.note(
        "paper shape: speedup flattens well below p (3.65 at p=8); memory\n\
         grows with p to ~4.6x the serial space (115 MB vs 25 MB).",
    )]
}

/// Figure 6: execution-time breakdown of the native-scheduler matmul. The
/// paper's profile shows processors spending a large share of time in the
/// kernel on memory-allocation system calls; the model's buckets are
/// `memsys` (malloc/free/page-commit/stack reservations through the kernel
/// VM lock), `threadop`, `sched` (queue lock wait + critical sections),
/// `cache` stalls and `idle`.
fn fig06_breakdown() -> Vec<Table> {
    let matmul = build(&MATMUL);
    let mut t = Table::new(
        "fig06_breakdown",
        "Figure 6: matmul time breakdown (% of total processor time), FIFO + 1MB stacks vs DF + 8KB",
        &["config", "p", "compute%", "memsys%", "threadop%", "sched%", "cache%", "idle%"],
    );
    for (label, cfg_of) in [
        ("fifo+1MB", Config::solaris_native as fn(usize) -> Config),
        ("df+8KB", |p| Config::new(p, SchedKind::Df)),
    ] {
        for p in [1usize, 4, 8] {
            let b = fine(&matmul, cfg_of(p)).stats.total_breakdown();
            let total = b.total().as_ns().max(1) as f64;
            let pct = |v: VirtTime| format!("{:.1}", v.as_ns() as f64 / total * 100.0);
            t.row(vec![
                label.into(),
                p.to_string(),
                pct(b.compute),
                pct(b.memsys),
                pct(b.threadop),
                pct(b.sched_wait + b.sched_cs),
                pct(b.cache_miss),
                pct(b.idle),
            ]);
        }
    }
    vec![t.note(
        "paper shape: under the native scheduler a large share of processor\n\
         time goes to memory-allocation system calls, growing with p; the\n\
         space-efficient scheduler pushes it back into compute.",
    )]
}

/// Figure 7: matmul under each §4 modification of the Pthreads scheduler:
/// FIFO (original), LIFO and the space-efficient DF scheduler, each with
/// 1 MB ("Original") and 8 KB ("small stk") default stacks.
fn fig07_matmul_sched() -> Vec<Table> {
    let (matmul, serial) = matmul_and_serial();
    let mut t = Table::new(
        "fig07_matmul_sched",
        "Figure 7: matmul speedup & memory by scheduler and default stack size",
        &[
            "scheduler",
            "stack",
            "p",
            "speedup",
            "memory (MB)",
            "max live threads",
        ],
    )
    .chart(Chart {
        name: "fig07a_speedup",
        title: "Fig 7(a): matmul speedup by scheduler",
        axes: ("processors", "speedup"),
        x: 2,
        lines: Lines::GroupBy { group: 0, y: 3 },
    })
    .chart(Chart {
        name: "fig07b_memory",
        title: "Fig 7(b): matmul memory by scheduler",
        axes: ("processors", "MB"),
        x: 2,
        lines: Lines::GroupBy { group: 0, y: 4 },
    });
    for (kind, stack, label) in [
        (SchedKind::Fifo, STACK_1MB, "original"),
        (SchedKind::Fifo, STACK_8KB, "orig + small stk"),
        (SchedKind::Lifo, STACK_1MB, "LIFO"),
        (SchedKind::Lifo, STACK_8KB, "LIFO + small stk"),
        (SchedKind::Df, STACK_1MB, "new scheduler"),
        (SchedKind::Df, STACK_8KB, "new + small stk"),
    ] {
        for p in PROCS {
            let report = fine(&matmul, Config::new(p, kind).with_stack(stack));
            t.row(vec![
                label.into(),
                if stack == STACK_1MB { "1MB" } else { "8KB" }.into(),
                p.to_string(),
                speedup(&report, serial.time),
                mb(report.footprint()),
                report.max_live_threads().to_string(),
            ]);
        }
    }
    vec![t.note(
        "paper shape: FIFO worst on both axes and worsening with p; LIFO\n\
         in-between; the new (DF) scheduler has near-flat memory close to\n\
         serial space and the best speedup; small stacks help every policy.",
    )]
}

/// Figure 8: the headline table. 8-processor speedups for all seven
/// benchmarks in three versions: coarse-grained (where the paper had one),
/// fine-grained + original (FIFO) scheduler, and fine-grained + the new
/// space-efficient (DF) scheduler with 8 KB default stacks; plus the peak
/// number of simultaneously active threads under the new scheduler.
fn fig08_table() -> Vec<Table> {
    let mut t = Table::new(
        "fig08_table",
        &format!("Figure 8: speedups on {P} processors over the serial version"),
        &[
            "benchmark",
            "problem",
            "coarse",
            "fine+orig",
            "fine+new",
            "threads(new)",
            "created(new)",
        ],
    );
    for app in ptdf_apps::APPS {
        let bodies = build(&app);
        let serial = serial(&bodies);
        let coarse = app
            .coarse
            .then(|| run_app(&bodies, Version::Coarse(P), Config::new(P, SchedKind::Fifo)));
        let orig = fine(&bodies, Config::new(P, SchedKind::Fifo));
        let new = fine(&bodies, Config::new(P, SchedKind::Df));
        t.row(vec![
            app.label.into(),
            (app.problem)(scale()),
            coarse.map_or_else(|| "--".into(), |r| speedup(&r, serial.time)),
            speedup(&orig, serial.time),
            speedup(&new, serial.time),
            new.max_live_threads().to_string(),
            new.total_threads.to_string(),
        ]);
    }
    vec![t.note(
        "paper (p=8, full sizes): MatMult 3.65/6.56; Barnes 7.53/5.76/7.80;\n\
         FMM 4.90/7.45; DTree 5.23/5.25; FFTW 6.27/5.84/5.94;\n\
         Sparse 6.14/4.41/5.96; VolRend 6.79/5.73/6.72.\n\
         shape: fine+new ≈ coarse; fine+orig notably worse for the\n\
         allocation-heavy benchmarks; few live threads under the new scheduler.",
    )]
}

/// Figure 9: memory high-water vs processors for the two dynamically
/// allocating benchmarks, (a) FMM and (b) the decision-tree builder, under
/// the original (FIFO) and the new space-efficient (DF) scheduler.
fn fig09_memory() -> Vec<Table> {
    let mut tables = Vec::new();
    for (name, sub, title, app) in [
        ("fig09a_fmm", "a", "Fig 9(a): FMM memory", FMM),
        ("fig09b_dtree", "b", "Fig 9(b): decision-tree memory", DTREE),
    ] {
        let bodies = build(&app);
        let mut t = Table::new(
            name,
            &format!(
                "Figure 9({sub}): {} memory high-water (serial space {} MB)",
                app.label,
                mb(serial(&bodies).s1_bytes())
            ),
            &[
                "p",
                "orig (MB)",
                "new (MB)",
                "orig live thr",
                "new live thr",
            ],
        )
        .chart(Chart {
            name,
            title,
            axes: ("processors", "MB"),
            x: 0,
            lines: Lines::Columns(&[1, 2]),
        });
        for p in PROCS {
            let orig = fine(&bodies, Config::new(p, SchedKind::Fifo));
            let new = fine(&bodies, Config::new(p, SchedKind::Df));
            t.row(vec![
                p.to_string(),
                mb(orig.footprint()),
                mb(new.footprint()),
                orig.max_live_threads().to_string(),
                new.max_live_threads().to_string(),
            ]);
        }
        tables.push(t);
    }
    noted(
        tables,
        "paper shape: the new scheduler's footprint stays near serial space\n\
         and grows only mildly with p; the original scheduler allocates\n\
         substantially more.",
    )
}

/// Figure 10: FFTW-style DFT running times on p processors for three
/// versions: p threads (the app's coarse version), and 256 threads (its
/// fine version) under the original and the modified scheduler. With p
/// threads the power-of-two problem partitions perfectly when p is a power
/// of two; at other processor counts the 256-thread version wins because
/// the scheduler balances the load.
fn fig10_fft() -> Vec<Table> {
    let fft = build(&FFT);
    println!("serial time: {}", serial(&fft).time);
    let mut t = Table::new(
        "fig10_fft",
        "Figure 10: DFT running time (virtual ms) by thread count and scheduler",
        &[
            "p",
            "p threads (ms)",
            "256 thr orig (ms)",
            "256 thr new (ms)",
        ],
    )
    .chart(Chart {
        name: "fig10_fft",
        title: "Fig 10: DFT running time",
        axes: ("processors", "virtual ms"),
        x: 0,
        lines: Lines::Columns(&[1, 2, 3]),
    });
    let ms = |r: Report| format!("{:.2}", r.makespan().as_millis_f64());
    for p in PROCS {
        t.row(vec![
            p.to_string(),
            ms(run_app(
                &fft,
                Version::Coarse(p),
                Config::new(p, SchedKind::Fifo),
            )),
            ms(fine(&fft, Config::new(p, SchedKind::Fifo))),
            ms(fine(&fft, Config::new(p, SchedKind::Df))),
        ]);
    }
    vec![t.note(
        "paper shape: the p-thread version is marginally fastest at\n\
         p = 2, 4, 8; at every other p the 256-thread versions win because\n\
         the scheduler load-balances the uneven leaf transforms.",
    )]
}

/// Figure 11: volume-rendering speedup vs thread granularity (4×4-pixel
/// tiles per thread) on 8 processors, for the original (FIFO) and new (DF)
/// schedulers. Both curves fall at very fine grain (locality loss and
/// scheduler-lock contention, FIFO falling harder), peak around ~60
/// tiles/thread, and fall again past ~130 tiles/thread from load imbalance.
fn fig11_granularity() -> Vec<Table> {
    let base = volren_params(scale());
    let vol = Rc::new(volren::gen_volume(base.size));
    let serial = ptdf::run_serial(CostModel::ultrasparc_167(), || {
        volren::render_fine(&vol, &base)
    })
    .1;
    println!(
        "serial time: {} | total tiles {}",
        serial.time,
        base.total_tiles()
    );
    let grains: &[usize] = if full_scale() {
        &[10, 20, 40, 60, 90, 130, 180, 260]
    } else {
        &[2, 4, 8, 16, 32, 64, 96, 144]
    };
    let mut t = Table::new(
        "fig11_granularity",
        &format!("Figure 11: volrend speedup vs tiles/thread on {P} processors"),
        &[
            "tiles/thread",
            "threads",
            "orig sched",
            "new sched",
            "df+locality (§5.3)",
        ],
    )
    .chart(Chart {
        name: "fig11_granularity",
        title: "Fig 11: volrend speedup vs granularity",
        axes: ("tiles per thread", "speedup"),
        x: 0,
        lines: Lines::Columns(&[2, 3, 4]),
    });
    for &g in grains {
        let prm = volren::Params {
            tiles_per_thread: g,
            ..base
        };
        let run = |kind: SchedKind| {
            let vol = vol.clone();
            let report = ptdf::run(Config::new(P, kind), move || {
                volren::render_fine(&vol, &prm)
            })
            .1;
            speedup(&report, serial.time)
        };
        t.row(vec![
            g.to_string(),
            base.total_tiles().div_ceil(g).to_string(),
            run(SchedKind::Fifo),
            run(SchedKind::Df),
            run(SchedKind::DfLocal),
        ]);
    }
    vec![t.note(
        "paper shape: both schedulers dip at fine grain (orig dips harder),\n\
         peak in the middle, and dip again at very coarse grain from load\n\
         imbalance. The df+locality column is the paper's §5.3 future work:\n\
         a bounded affinity window should flatten the fine-grain dip.",
    )]
}

/// Ablation of the DF scheduler's memory quota `K` (§4 item 2), its
/// space/time knob: a small quota preempts allocating threads often and
/// inserts many dummy threads (more scheduling overhead, tighter space); a
/// large quota approaches the plain child-first scheduler.
fn ablate_quota() -> Vec<Table> {
    let mut tables = Vec::new();
    for app in [MATMUL, DTREE] {
        let bodies = build(&app);
        let serial = serial(&bodies);
        let mut t = Table::new(
            &per_app("ablate_quota", &app),
            &format!(
                "Quota ablation: {} on {P} procs (serial space {} MB)",
                app.label,
                mb(serial.s1_bytes())
            ),
            &["K (KB)", "speedup", "memory (MB)", "dummies", "live thr"],
        );
        for k_kb in [4u64, 16, 64, 256, 1024, 8192] {
            let r = fine(
                &bodies,
                Config::new(P, SchedKind::Df).with_quota(k_kb * 1024),
            );
            t.row(vec![
                k_kb.to_string(),
                speedup(&r, serial.time),
                mb(r.footprint()),
                r.stats.mem.dummy_threads.to_string(),
                r.max_live_threads().to_string(),
            ]);
        }
        tables.push(t);
    }
    noted(
        tables,
        "expected: small K → more dummies/preemptions (slower) but lower\n\
         footprint; large K → fewer scheduler interventions, footprint\n\
         approaching the no-quota child-first behaviour.",
    )
}

/// Ablation: the space-efficient DF scheduler vs Cilk-style work stealing
/// (§2.1). Stealing bounds space by `p · S1` (each processor holds a
/// depth-first path), DF by `S1 + O(p·D)`: for programs whose serial space
/// is dominated by big temporaries (matmul) the footprint grows ~linearly
/// in `p` under stealing but stays near-flat under DF.
fn ablate_stealing() -> Vec<Table> {
    let mut tables = Vec::new();
    for app in [MATMUL, FMM] {
        let bodies = build(&app);
        let serial = serial(&bodies);
        let mut t = Table::new(
            &per_app("ablate_stealing", &app),
            &format!(
                "DF vs work stealing: {} (serial space {} MB)",
                app.label,
                mb(serial.s1_bytes())
            ),
            &[
                "p",
                "df speedup",
                "ws speedup",
                "df mem (MB)",
                "ws mem (MB)",
            ],
        );
        for p in [1usize, 2, 4, 8, 16] {
            let df = fine(&bodies, Config::new(p, SchedKind::Df));
            let ws = fine(&bodies, Config::new(p, SchedKind::Ws));
            t.row(vec![
                p.to_string(),
                speedup(&df, serial.time),
                speedup(&ws, serial.time),
                mb(df.footprint()),
                mb(ws.footprint()),
            ]);
        }
        tables.push(t);
    }
    noted(
        tables,
        "expected: comparable speedups; WS memory grows roughly linearly\n\
         with p (≤ p·S1), DF memory stays near S1 + O(p·D).",
    )
}

/// Cost-model sensitivity: the reproduction claims *shapes*, so the shapes
/// must not hinge on the calibration constants. Sweeps the two most
/// influential costs, the kernel page first-touch penalty (Figure 6's FIFO
/// memory-system time) and the context switch (per-thread overhead),
/// across an order of magnitude each way, and reports matmul's FIFO, LIFO
/// and DF speedups. The claim holds if DF and LIFO beat FIFO at every point.
fn ablate_sensitivity() -> Vec<Table> {
    let matmul = build(&MATMUL);
    let mut t = Table::new(
        "ablate_sensitivity",
        "Cost-model sensitivity: matmul speedups at p = 8 under perturbed constants",
        &[
            "page touch (us)",
            "ctx switch (us)",
            "fifo",
            "lifo",
            "df",
            "ordering holds",
        ],
    );
    let mut all_hold = true;
    for page_us in [5u64, 25, 100] {
        for switch_us in [2u64, 10, 40] {
            let mut cost = CostModel::ultrasparc_167();
            cost.page_first_touch = VirtTime::from_us(page_us);
            cost.ctx_switch = VirtTime::from_us(switch_us);
            // The serial baseline uses the same perturbed model.
            let serial = run_app_serial(&matmul, cost.clone());
            let speedup = |kind: SchedKind| {
                let stack = if kind == SchedKind::Fifo {
                    STACK_1MB
                } else {
                    STACK_8KB
                };
                let cfg = Config::new(P, kind)
                    .with_cost(cost.clone())
                    .with_stack(stack);
                fine(&matmul, cfg).speedup_vs(serial.time)
            };
            let fifo = speedup(SchedKind::Fifo);
            let lifo = speedup(SchedKind::Lifo);
            let df = speedup(SchedKind::Df);
            let holds = df > fifo && lifo > fifo;
            all_hold &= holds;
            t.row(vec![
                page_us.to_string(),
                switch_us.to_string(),
                format!("{fifo:.2}"),
                format!("{lifo:.2}"),
                format!("{df:.2}"),
                if holds { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    vec![t.note(format!(
        "claim: DF and LIFO beat FIFO at every point of the 9-point sweep\n\
         (page-touch x5 down / x4 up, switch x5 down / x4 up): {}",
        if all_hold { "HOLDS" } else { "VIOLATED" }
    ))]
}

/// §5.2 scalability: the benchmarks on up to 16 processors, and the onset
/// of the global scheduler lock as the serialization point §6 predicts
/// ("we do not expect such a serialized scheduler to scale well beyond 16
/// processors").
fn scale16() -> Vec<Table> {
    let mut tables = Vec::new();
    for app in [MATMUL, BARNES_HUT, SPMV] {
        let bodies = build(&app);
        let serial = serial(&bodies);
        let mut t = Table::new(
            &per_app("scale16", &app),
            &format!(
                "Scalability to 16 processors: {} (serialized DF vs parallelized DFDeques)",
                app.label
            ),
            &[
                "p",
                "df speedup",
                "df lock wait (ms)",
                "df-deques speedup",
                "deques lock wait (ms)",
            ],
        );
        let lock_ms = |r: &Report| format!("{:.2}", r.stats.sched_lock_wait.as_millis_f64());
        for p in [1usize, 2, 4, 8, 12, 16] {
            let r = fine(&bodies, Config::new(p, SchedKind::Df));
            let d = fine(&bodies, Config::new(p, SchedKind::DfDeques));
            t.row(vec![
                p.to_string(),
                speedup(&r, serial.time),
                lock_ms(&r),
                speedup(&d, serial.time),
                lock_ms(&d),
            ]);
        }
        tables.push(t);
    }
    noted(
        tables,
        "expected: near-linear speedup through 8-16 processors with the\n\
         scheduler-lock wait share growing — the serialization §6 warns of.",
    )
}
