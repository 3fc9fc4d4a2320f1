//! Fork-join computation-graph model and scheduler space analysis.
//!
//! The paper's Figure 1 explains scheduler space behaviour on an abstract
//! computation graph: nodes are actions within threads, solid edges are
//! forks, dashed edges are joins. This crate models such graphs as
//! [`Program`]s and computes their serial space `S1`, critical path `D`,
//! total work `W` and thread depth `d`.
//!
//! A [`Program`] runs by being lowered onto the real `ptdf` runtime
//! (`ptdf_bench::run_program`: forks become spawns), so Figure 1 and the
//! workspace crosscheck measure the real schedulers against these analyses.

#![warn(missing_docs)]

mod analysis;
mod generate;
mod program;

pub use analysis::{
    critical_path, max_path_threads, serial_space, total_work, validate, ProgramError,
};
pub use generate::{gen_program, GenParams};
pub use program::{Action, Program, ThreadSpec};

/// The example graph of the paper's Figure 1: a three-level binary tree of
/// seven threads, where each interior thread forks both children before
/// joining them. A serial FIFO execution makes all 7 threads simultaneously
/// active; a child-first (depth-first) execution needs at most `d = 3`.
pub fn fig1_example() -> Program {
    // Thread indices: 0 = root; 1,2 = children; 3,4 = children of 1;
    // 5,6 = children of 2. Each thread does a unit of work around its forks.
    let interior = |a: usize, b: usize| ThreadSpec {
        actions: vec![
            Action::Work(1),
            Action::Fork(a),
            Action::Fork(b),
            Action::Work(1),
            Action::Join(a),
            Action::Join(b),
            Action::Work(1),
        ],
    };
    let leaf = || ThreadSpec {
        actions: vec![Action::Work(2)],
    };
    Program {
        threads: vec![
            interior(1, 2),
            interior(3, 4),
            interior(5, 6),
            leaf(),
            leaf(),
            leaf(),
            leaf(),
        ],
    }
}

/// A complete binary fork tree `depth` levels deep (`2^(depth+1) - 1`
/// threads): each interior thread forks both children and then joins them,
/// each leaf does one unit of work. Threads are numbered in serial
/// depth-first order.
pub fn binary_tree(depth: u32) -> Program {
    fn build(threads: &mut Vec<ThreadSpec>, depth: u32) -> usize {
        let idx = threads.len();
        threads.push(ThreadSpec::default());
        if depth == 0 {
            threads[idx].actions = vec![Action::Work(1)];
        } else {
            let l = build(threads, depth - 1);
            let r = build(threads, depth - 1);
            threads[idx].actions = vec![
                Action::Fork(l),
                Action::Fork(r),
                Action::Join(l),
                Action::Join(r),
            ];
        }
        idx
    }
    let mut threads = Vec::new();
    build(&mut threads, depth);
    Program { threads }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_validates() {
        validate(&fig1_example()).unwrap();
    }

    #[test]
    fn fig1_depth_is_three() {
        assert_eq!(max_path_threads(&fig1_example()), 3);
    }

    #[test]
    fn binary_tree_shape() {
        for depth in 0..8 {
            let p = binary_tree(depth);
            validate(&p).unwrap();
            assert_eq!(p.len(), (1 << (depth + 1)) - 1);
            assert_eq!(max_path_threads(&p) as u32, depth + 1);
            assert_eq!(total_work(&p), 1 << depth);
            assert_eq!(critical_path(&p), 1);
        }
    }
}
