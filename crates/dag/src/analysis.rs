//! Static analyses of a [`Program`]: validation, serial space `S1`,
//! critical path `D`, total work `W`, and the thread-depth `d` of the
//! paper's Figure 1 footnote.

use crate::program::{Action, Program};

/// Validation error for a malformed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A thread other than the root is never forked, or forked twice.
    BadForkCount(usize, usize),
    /// The root (thread 0) is forked by someone.
    RootForked,
    /// `Join(i)` without a preceding `Fork(i)` in the same thread.
    JoinBeforeFork(usize),
    /// `Join(i)` in a thread that did not fork `i`.
    ForeignJoin(usize),
    /// A second `Join(i)` of the same child (a thread is joined once).
    DoubleJoin(usize),
    /// Fork edges contain a cycle (a thread is its own ancestor).
    Cycle(usize),
    /// A `Free` without matching outstanding allocation in that thread.
    UnmatchedFree(usize),
    /// Fork target out of range.
    ForkOutOfRange(usize),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for ProgramError {}

/// Checks the structural invariants described on [`Program`].
pub fn validate(p: &Program) -> Result<(), ProgramError> {
    let n = p.threads.len();
    let mut fork_count = vec![0usize; n];
    for (i, t) in p.threads.iter().enumerate() {
        let mut forked_here: Vec<usize> = Vec::new();
        let mut joined_here: Vec<usize> = Vec::new();
        let mut alloc_balance: i64 = 0;
        for a in &t.actions {
            match *a {
                Action::Fork(c) => {
                    if c >= n {
                        return Err(ProgramError::ForkOutOfRange(c));
                    }
                    if c == 0 {
                        return Err(ProgramError::RootForked);
                    }
                    fork_count[c] += 1;
                    forked_here.push(c);
                }
                Action::Join(c) => {
                    if !forked_here.contains(&c) {
                        return Err(if fork_count.get(c).copied().unwrap_or(0) > 0 {
                            ProgramError::ForeignJoin(i)
                        } else {
                            ProgramError::JoinBeforeFork(i)
                        });
                    }
                    if joined_here.contains(&c) {
                        return Err(ProgramError::DoubleJoin(i));
                    }
                    joined_here.push(c);
                }
                Action::Alloc(b) => alloc_balance += b as i64,
                Action::Free(b) => {
                    alloc_balance -= b as i64;
                    if alloc_balance < 0 {
                        return Err(ProgramError::UnmatchedFree(i));
                    }
                }
                Action::Work(_) => {}
            }
        }
    }
    for (c, &k) in fork_count.iter().enumerate().skip(1) {
        if k != 1 {
            return Err(ProgramError::BadForkCount(c, k));
        }
    }
    // Tree-ness: walk up parents; depth bounded by n.
    let parents = p.parents();
    #[allow(clippy::needless_range_loop)]
    for mut cur in 0..n {
        let mut steps = 0;
        while let Some(par) = parents[cur] {
            cur = par;
            steps += 1;
            if steps > n {
                return Err(ProgramError::Cycle(cur));
            }
        }
    }
    Ok(())
}

/// Total work `W`: the sum of all `Work` units.
pub fn total_work(p: &Program) -> u64 {
    p.threads
        .iter()
        .flat_map(|t| &t.actions)
        .map(|a| match a {
            Action::Work(u) => *u,
            _ => 0,
        })
        .sum()
}

/// Serial space `S1`: the high-water mark of live allocation under the
/// depth-first serial execution (fork = call: the child runs to completion
/// at the fork point).
pub fn serial_space(p: &Program) -> u64 {
    fn run(p: &Program, t: usize, live: &mut u64, hwm: &mut u64) {
        for a in &p.threads[t].actions {
            match *a {
                Action::Alloc(b) => {
                    *live += b;
                    *hwm = (*hwm).max(*live);
                }
                Action::Free(b) => *live -= b,
                Action::Fork(c) => run(p, c, live, hwm),
                Action::Join(_) | Action::Work(_) => {}
            }
        }
    }
    let mut live = 0;
    let mut hwm = 0;
    run(p, 0, &mut live, &mut hwm);
    hwm
}

/// Critical path `D` in work units: the longest chain through the graph
/// respecting fork and join dependencies.
pub fn critical_path(p: &Program) -> u64 {
    // finish(t, start) computes the completion time of thread t launched at
    // `start`, recursing into forks; joins synchronize with child finish.
    fn finish(p: &Program, t: usize, start: u64) -> u64 {
        // Thread time advances with Work; forks launch children at current
        // time; join waits for the child's finish.
        let mut now = start;
        let mut child_start = std::collections::HashMap::new();
        let mut max_unjoined: u64 = 0;
        for a in &p.threads[t].actions {
            match *a {
                Action::Work(u) => now += u,
                Action::Fork(c) => {
                    child_start.insert(c, now);
                }
                Action::Join(c) => {
                    let cs = child_start[&c];
                    let cf = finish(p, c, cs);
                    now = now.max(cf);
                }
                Action::Alloc(_) | Action::Free(_) => {}
            }
        }
        // Unjoined (detached) children still extend the graph's makespan.
        for (&c, &cs) in &child_start {
            if !p.threads[t]
                .actions
                .iter()
                .any(|a| matches!(a, Action::Join(j) if *j == c))
            {
                max_unjoined = max_unjoined.max(finish(p, c, cs));
            }
        }
        now.max(max_unjoined)
    }
    finish(p, 0, 0)
}

/// The paper's `d`: the maximum number of threads along any fork path
/// (Figure 1 footnote) — i.e. the depth of the fork tree in threads.
pub fn max_path_threads(p: &Program) -> usize {
    let parents = p.parents();
    let mut best = 0;
    #[allow(clippy::needless_range_loop)]
    for mut cur in 0..p.threads.len() {
        let mut depth = 1;
        while let Some(par) = parents[cur] {
            cur = par;
            depth += 1;
        }
        best = best.max(depth);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ThreadSpec;

    fn prog(threads: Vec<Vec<Action>>) -> Program {
        Program {
            threads: threads
                .into_iter()
                .map(|actions| ThreadSpec { actions })
                .collect(),
        }
    }

    #[test]
    fn validate_rejects_double_fork() {
        let p = prog(vec![vec![Action::Fork(1), Action::Fork(1)], vec![]]);
        assert_eq!(validate(&p), Err(ProgramError::BadForkCount(1, 2)));
    }

    #[test]
    fn validate_rejects_orphan() {
        let p = prog(vec![vec![], vec![]]);
        assert_eq!(validate(&p), Err(ProgramError::BadForkCount(1, 0)));
    }

    #[test]
    fn validate_rejects_join_before_fork() {
        let p = prog(vec![vec![Action::Join(1), Action::Fork(1)], vec![]]);
        assert_eq!(validate(&p), Err(ProgramError::JoinBeforeFork(0)));
    }

    #[test]
    fn validate_rejects_double_join() {
        let p = prog(vec![
            vec![Action::Fork(1), Action::Join(1), Action::Join(1)],
            vec![],
        ]);
        assert_eq!(validate(&p), Err(ProgramError::DoubleJoin(0)));
    }

    #[test]
    fn validate_rejects_unmatched_free() {
        let p = prog(vec![vec![Action::Free(8)]]);
        assert_eq!(validate(&p), Err(ProgramError::UnmatchedFree(0)));
    }

    #[test]
    fn serial_space_of_nested_allocs() {
        // Root allocates 100, forks a child that allocates 50, frees, then
        // root frees. Serial DF: peak = 150.
        let p = prog(vec![
            vec![
                Action::Alloc(100),
                Action::Fork(1),
                Action::Join(1),
                Action::Free(100),
            ],
            vec![Action::Alloc(50), Action::Free(50)],
        ]);
        validate(&p).unwrap();
        assert_eq!(serial_space(&p), 150);
    }

    #[test]
    fn critical_path_parallel_children() {
        // Root: fork two children of work 10 and 3, then joins both.
        // D = max(10, 3) = 10 (+ no root work).
        let p = prog(vec![
            vec![
                Action::Fork(1),
                Action::Fork(2),
                Action::Join(1),
                Action::Join(2),
            ],
            vec![Action::Work(10)],
            vec![Action::Work(3)],
        ]);
        assert_eq!(critical_path(&p), 10);
        assert_eq!(total_work(&p), 13);
    }

    #[test]
    fn critical_path_sequential_dependency() {
        let p = prog(vec![
            vec![
                Action::Work(5),
                Action::Fork(1),
                Action::Join(1),
                Action::Work(5),
            ],
            vec![Action::Work(7)],
        ]);
        assert_eq!(critical_path(&p), 17);
    }
}
