//! Figure 1: scheduler space behaviour on the example computation graph.
//!
//! Reproduces the paper's claim: a serial FIFO execution of the 7-thread
//! example graph makes all 7 threads simultaneously active, while a
//! depth-first execution needs at most `d = 3`. Also shows the same
//! contrast on deeper trees and random programs, plus the §4 queue-LIFO
//! variant (which is only *close* to depth-first). Every cell is the real
//! scheduler at p = 1, running the graph through `run_program`.

use ptdf_bench::{run_program, Config, CostModel, SchedKind, Table};
use ptdf_dag::{binary_tree, fig1_example, gen_program, max_path_threads, GenParams, Program};

fn main() {
    ptdf_bench::methodology_note();
    let kinds = [SchedKind::Fifo, SchedKind::Lifo, SchedKind::Df];
    let mut headers = vec!["graph", "threads", "d"];
    headers.extend(kinds.map(SchedKind::name));
    let mut t = Table::new(
        "fig01_graph",
        "Figure 1: max simultaneously active threads (serial execution)",
        &headers,
    );
    let mut add = |name: &str, p: &Program| {
        let mut row = vec![
            name.to_string(),
            p.len().to_string(),
            max_path_threads(p).to_string(),
        ];
        for kind in kinds {
            // A quota no run reaches: DF forks no dummy threads.
            let cfg = Config::new(1, kind)
                .with_cost(CostModel::zero_overhead())
                .with_quota(u64::MAX / 4);
            row.push(run_program(p, cfg).max_live_threads().to_string());
        }
        t.row(row);
    };
    add("fig1 (7 threads)", &fig1_example());
    for depth in [4, 6, 8, 10] {
        add(&format!("binary depth {depth}"), &binary_tree(depth));
    }
    // The first three seeds whose program forks at least 50 threads.
    for seed in [3, 4, 6] {
        let prog = gen_program(GenParams {
            seed,
            max_threads: 400,
            ..GenParams::default()
        });
        add(&format!("random seed {seed}"), &prog);
    }
    t.finish();
    println!(
        "paper: FIFO activates all 7 threads of the example; a depth-first\n\
         order needs at most d = 3. The gap widens with graph size."
    );
}
