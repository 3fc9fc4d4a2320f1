//! The real runtime (`ptdf`) against the static analyses of `ptdf-dag`:
//! fork-join programs lowered onto the runtime (`ptdf_bench::run_program`)
//! must show the thread counts, space and time the analyses predict.

use ptdf::{Config, CostModel, SchedKind};
use ptdf_bench::figures::fig01_graphs;
use ptdf_bench::{run_program, CYCLES_PER_WORK_UNIT};
use ptdf_dag::{
    binary_tree, critical_path, fig1_example, gen_program, max_path_threads, serial_space,
    total_work, validate, Action, GenParams, Program,
};

/// `kind` on `procs` processors with a quota no run reaches, so DF dummy
/// threads don't perturb the thread counts.
fn cfg(kind: SchedKind, procs: usize) -> Config {
    Config::new(procs, kind).with_quota(u64::MAX / 4)
}

fn program(seed: u64) -> Program {
    gen_program(GenParams {
        seed,
        max_threads: 60,
        max_depth: 6,
        max_work: 10,
        max_alloc: 500,
        fork_percent: 70,
    })
}

fn programs() -> Vec<Program> {
    (0..6).map(program).filter(|p| p.len() > 5).collect()
}

/// Figure 1 as `fig01_graph` prints it: threads and max live threads at
/// p = 1 under FIFO, LIFO and DF for every graph of the registry's Figure 1
/// entry. The table is literal so that no executor can move it.
#[test]
fn figure_1_table_on_the_real_runtime() {
    let rows = fig01_graphs();
    assert_eq!(rows.len(), 8);
    let table: [(usize, [u64; 3]); 8] = [
        (7, [7, 5, 3]),
        (31, [31, 9, 5]),
        (127, [127, 13, 7]),
        (511, [511, 17, 9]),
        (2047, [2047, 21, 11]),
        (99, [46, 15, 9]),
        (280, [55, 16, 9]),
        (308, [61, 20, 9]),
    ];
    for ((name, prog), (threads, want)) in rows.iter().zip(table) {
        assert_eq!(prog.len(), threads, "{name}");
        let real = [SchedKind::Fifo, SchedKind::Lifo, SchedKind::Df].map(|kind| {
            run_program(prog, cfg(kind, 1).with_cost(CostModel::zero_overhead())).max_live_threads()
        });
        assert_eq!(real, want, "{name}: real FIFO/LIFO/DF");
    }
}

/// A binary tree whose every interior thread allocates 100 B before its
/// forks and frees them after its joins: S1 is 100 B per level.
fn allocating_tree(depth: u32) -> Program {
    let mut tree = binary_tree(depth);
    for t in &mut tree.threads {
        if matches!(t.actions[0], Action::Fork(_)) {
            t.actions.insert(0, Action::Alloc(100));
            t.actions.push(Action::Free(100));
        }
    }
    tree
}

/// On one processor DF *is* the serial depth-first execution: at most one
/// fork path is alive (`d` threads) and the footprint, stacks aside, is
/// exactly `S1`.
#[test]
fn serial_df_live_threads_and_space_are_the_serial_closed_forms() {
    let mut progs: Vec<Program> = (0..40).map(program).filter(|p| p.len() > 5).collect();
    progs.extend([fig1_example(), binary_tree(4), allocating_tree(6)]);
    for (i, prog) in progs.iter().enumerate() {
        validate(prog).unwrap();
        let real = run_program(prog, cfg(SchedKind::Df, 1).with_stack(0));
        assert_eq!(
            real.max_live_threads(),
            max_path_threads(prog) as u64,
            "program {i}: serial DF live threads != d"
        );
        assert_eq!(
            real.footprint(),
            serial_space(prog),
            "program {i}: serial DF footprint != S1"
        );
    }
}

/// Serial FIFO starts every thread before any of them finishes, so all 63
/// interior allocations of the depth-6 tree are live at once: 6,300 B
/// where S1 is 600.
#[test]
fn serial_fifo_holds_every_interior_allocation() {
    let tree = allocating_tree(6);
    assert_eq!(serial_space(&tree), 600);
    let real = run_program(&tree, cfg(SchedKind::Fifo, 1).with_stack(0));
    assert_eq!(real.footprint(), 6_300);
}

#[test]
fn df_live_threads_bounded_by_p_times_depth() {
    for (i, prog) in programs().iter().enumerate() {
        let d = max_path_threads(prog) as u64;
        for procs in [2u64, 4, 8] {
            let real = run_program(prog, cfg(SchedKind::Df, procs as usize));
            // The S1 + O(p·D) discipline keeps at most ~one depth-first
            // path per processor alive (+1 slack for in-flight handoffs).
            assert!(
                real.max_live_threads() <= procs * d + procs,
                "program {i}, p={procs}: {} live > p*d = {}",
                real.max_live_threads(),
                procs * d
            );
        }
    }
}

#[test]
fn fifo_space_never_below_df_space() {
    for prog in &programs() {
        if serial_space(prog) == 0 {
            continue;
        }
        let fifo = run_program(prog, cfg(SchedKind::Fifo, 4));
        let df = run_program(prog, cfg(SchedKind::Df, 4));
        assert!(
            fifo.footprint() >= df.footprint(),
            "FIFO must not beat DF on footprint: {} vs {}",
            fifo.footprint(),
            df.footprint()
        );
        assert!(fifo.max_live_threads() >= df.max_live_threads());
    }
}

#[test]
fn all_schedulers_complete_all_programs() {
    for prog in &programs() {
        let total = prog.len();
        for kind in [
            SchedKind::Fifo,
            SchedKind::Lifo,
            SchedKind::Df,
            SchedKind::DfLocal,
            SchedKind::DfDeques,
            SchedKind::Ws,
        ] {
            for procs in [1, 3, 8] {
                let report = run_program(prog, cfg(kind, procs));
                // Program thread 0 runs as the runtime's root thread, so the
                // totals match exactly.
                assert_eq!(report.total_threads, total, "{kind:?} p={procs}");
            }
        }
    }
}

/// With a zero-overhead cost model, the runtime's virtual makespan must
/// obey the greedy-scheduling (Brent) bounds computed by the abstract
/// analyses: max(W/p, D) ≤ T_p ≤ W/p + D.
#[test]
fn makespan_obeys_brent_bounds_under_zero_overhead() {
    for (i, prog) in programs().iter().enumerate() {
        // The zero-overhead model maps 1 cycle → 1 ns.
        let w = total_work(prog) * CYCLES_PER_WORK_UNIT;
        let d = critical_path(prog) * CYCLES_PER_WORK_UNIT;
        if w == 0 {
            continue;
        }
        for procs in [1u64, 2, 4, 8] {
            for kind in [SchedKind::Df, SchedKind::Ws, SchedKind::Fifo] {
                let config = cfg(kind, procs as usize).with_cost(CostModel::zero_overhead());
                let t = run_program(prog, config).makespan().as_ns();
                let lower = (w / procs).max(d);
                let upper = w / procs + d;
                assert!(
                    t >= lower,
                    "program {i} {kind:?} p={procs}: T={t} < max(W/p, D)={lower}"
                );
                assert!(
                    t <= upper,
                    "program {i} {kind:?} p={procs}: T={t} > W/p + D={upper} (non-greedy)"
                );
                if procs == 1 {
                    assert_eq!(t, w, "serial makespan must equal total work");
                }
            }
        }
    }
}

/// Closed-form check of the critical-path analyzer: on a closed fork/join
/// program with zero scheduling overhead and more processors than the
/// program ever has runnable threads, the realized critical path is pure
/// compute and must equal the abstract DAG's critical path bit-exactly in
/// virtual time — with the blame buckets still tiling the makespan.
#[test]
fn critpath_compute_matches_abstract_critical_path_under_zero_overhead() {
    for (i, prog) in programs().iter().enumerate() {
        // The zero-overhead model maps 1 cycle → 1 ns.
        let d = critical_path(prog) * CYCLES_PER_WORK_UNIT;
        if d == 0 {
            continue;
        }
        for kind in [
            SchedKind::Fifo,
            SchedKind::Lifo,
            SchedKind::Df,
            SchedKind::DfDeques,
            SchedKind::Ws,
        ] {
            // 64 processors ≥ any width gen_program(max_threads: 60) can
            // reach: nothing ever waits in a queue.
            let config = cfg(kind, 64)
                .with_cost(CostModel::zero_overhead())
                .with_trace();
            let report = run_program(prog, config);
            let cp = report.critpath().expect("traced run");
            assert_eq!(
                cp.blame.sum(),
                cp.makespan,
                "program {i} {kind:?}: buckets must tile the makespan"
            );
            assert_eq!(
                cp.makespan,
                report.makespan(),
                "program {i} {kind:?}: analyzer and report disagree on makespan"
            );
            assert_eq!(
                cp.blame.compute.as_ns(),
                d,
                "program {i} {kind:?}: path compute {} != abstract critical path {d} (blame {:?})",
                cp.blame.compute.as_ns(),
                cp.blame
            );
            // Nothing waits: every non-compute bucket is zero.
            assert_eq!(cp.blame.ready_wait.as_ns(), 0, "program {i} {kind:?}");
            assert_eq!(cp.blame.lock_wait.as_ns(), 0, "program {i} {kind:?}");
            assert_eq!(cp.blame.join_wait.as_ns(), 0, "program {i} {kind:?}");
            assert_eq!(cp.blame.preempt.as_ns(), 0, "program {i} {kind:?}");
            assert_eq!(cp.blame.residual.as_ns(), 0, "program {i} {kind:?}");
        }
    }
}

#[test]
fn ws_space_bounded_by_p_times_serial_paths() {
    // Busy-leaves style bound: work stealing (and the parallelized
    // DFDeques scheduler) keeps at most ~p depth-first paths alive.
    for prog in &programs() {
        let d = max_path_threads(prog) as u64;
        for procs in [2u64, 4] {
            for kind in [SchedKind::Ws, SchedKind::DfDeques] {
                let real = run_program(prog, cfg(kind, procs as usize));
                assert!(
                    real.max_live_threads() <= procs * d + procs,
                    "{kind:?} p={procs}: {} live, d={d}",
                    real.max_live_threads()
                );
            }
        }
    }
}
