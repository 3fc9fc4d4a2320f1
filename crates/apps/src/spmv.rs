//! Sparse matrix–vector product (paper §5.1.5, after the Spark98 kernels).
//!
//! Times `iters` iterations of `w = M·v` for a sparse unsymmetric matrix
//! generated from a synthetic 2-D triangulated finite-element-style mesh
//! with the same dimensions as the paper's San Fernando earthquake mesh
//! (30,169 rows, ~151k nonzeros).
//!
//! * **Coarse-grained** (the original Spark98 style): one thread per
//!   processor for the whole run, rows partitioned so each thread gets
//!   roughly equal *nonzeros*, a barrier between iterations.
//! * **Fine-grained** (the paper's rewrite): 128 threads created and
//!   destroyed *every iteration*, rows split equally by count — the
//!   scheduler balances the irregular row weights.

use crate::util::{charge_flops_irregular, region, salt, uniform01, SharedSlice};
use ptdf::Barrier;

/// Compressed sparse row matrix.
#[derive(Debug, Clone)]
pub struct Csr {
    /// Number of rows/columns.
    pub n: usize,
    /// Row start offsets (len n+1).
    pub row_ptr: Vec<u32>,
    /// Column indices.
    pub col: Vec<u32>,
    /// Values.
    pub val: Vec<f64>,
}

impl Csr {
    /// Number of nonzeros.
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Nonzeros in row `i`.
    pub fn row_nnz(&self, i: usize) -> usize {
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }
}

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of mesh nodes (matrix dimension).
    pub nodes: usize,
    /// Mesh strip width (grid columns).
    pub width: usize,
    /// Iterations of `w = M·v`.
    pub iters: usize,
    /// Fine-grained thread count per iteration.
    pub fine_threads: usize,
    /// Seed.
    pub seed: u64,
}

impl Params {
    /// The paper's scale: 30,169 nodes (~151k nonzeros), 20 iterations,
    /// 128 threads per iteration.
    pub fn paper() -> Self {
        Params {
            nodes: 30_169,
            width: 173,
            iters: 20,
            fine_threads: 128,
            seed: 0x5A,
        }
    }

    /// Scaled-down configuration (per-thread nnz kept near the paper's
    /// 151k/128 ratio so the overhead-to-work balance is comparable).
    pub fn small() -> Self {
        Params {
            nodes: 10_000,
            width: 100,
            iters: 10,
            fine_threads: 64,
            seed: 0x5A,
        }
    }
}

/// Generates the synthetic FE-style mesh matrix: nodes on a `width`-wide
/// triangulated strip, each connected to its grid neighbours
/// (left/right/up/down and one diagonal), plus the diagonal entry. A band
/// of "graded refinement" rows gets extra couplings so row weights are
/// irregular, as in a real mesh around the fault.
pub fn gen_matrix(p: &Params) -> Csr {
    let n = p.nodes;
    let w = p.width;
    let mut s = p.seed;
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col: Vec<u32> = Vec::new();
    let mut val: Vec<f64> = Vec::new();
    row_ptr.push(0u32);
    for i in 0..n {
        let mut cols: Vec<usize> = vec![i];
        let neigh = [
            i.wrapping_sub(1),
            i + 1,
            i.wrapping_sub(w),
            i + w,
            i + w + 1,
            i.wrapping_sub(w + 1),
        ];
        for &j in &neigh {
            if j < n && j != i {
                // Keep the strip structure: ±1 must stay on the same row of
                // the grid.
                let same_strip_ok =
                    (j != i + 1 || (i % w) != w - 1) && (j != i.wrapping_sub(1) || (i % w) != 0);
                if same_strip_ok {
                    cols.push(j);
                }
            }
        }
        // Graded region: ~10% of nodes get 2-6 extra long-range couplings.
        if uniform01(&mut s) < 0.10 {
            let extra = 2 + (crate::util::splitmix64(&mut s) % 5) as usize;
            for _ in 0..extra {
                let j = (crate::util::splitmix64(&mut s) % n as u64) as usize;
                if j != i {
                    cols.push(j);
                }
            }
        }
        cols.sort_unstable();
        cols.dedup();
        for j in cols {
            col.push(j as u32);
            val.push(uniform01(&mut s) * 2.0 - 1.0);
        }
        row_ptr.push(col.len() as u32);
    }
    Csr {
        n,
        row_ptr,
        col,
        val,
    }
}

/// Random dense vector.
pub fn gen_vector(p: &Params) -> Vec<f64> {
    let mut s = p.seed ^ 0xDEAD;
    (0..p.nodes)
        .map(|_| uniform01(&mut s) * 2.0 - 1.0)
        .collect()
}

/// Multiplies rows `[lo, hi)` of `m` by `v` into `w`, charging modelled
/// costs and declaring locality.
fn rows_kernel(m: &Csr, v: &[f64], w: SharedSlice, lo: usize, hi: usize) {
    let mut nnz = 0u64;
    ptdf::touch(
        region(salt::SPMV, (lo / 256) as u64),
        ((hi - lo) * 64) as u64,
    );
    for i in lo..hi {
        let (a, b) = (m.row_ptr[i] as usize, m.row_ptr[i + 1] as usize);
        let mut acc = 0.0;
        for k in a..b {
            acc += m.val[k] * v[m.col[k] as usize];
        }
        // SAFETY: row ranges of concurrently-live threads are disjoint.
        unsafe { w.set(i, acc) };
        nnz += (b - a) as u64;
    }
    charge_flops_irregular(2 * nnz + (hi - lo) as u64);
}

/// Fine-grained product: `iters` iterations, each forking
/// `p.fine_threads` threads (as a binary tree) over equal row ranges.
pub fn run_fine(m: &Csr, v: &[f64], p: &Params) -> Vec<f64> {
    let mut w = vec![0.0; m.n];
    let t = p.fine_threads.max(1);
    for _ in 0..p.iters {
        let wv = SharedSlice::new(&mut w);
        crate::util::fork_each(0, t, |j| {
            let lo = j * m.n / t;
            let hi = (j + 1) * m.n / t;
            rows_kernel(m, v, wv, lo, hi);
        });
    }
    w
}

/// Partitions rows into `parts` contiguous ranges of roughly equal nonzeros
/// (the Spark98 coarse-grained strategy).
pub fn nnz_partition(m: &Csr, parts: usize) -> Vec<(usize, usize)> {
    let total = m.nnz();
    let per = total.div_ceil(parts.max(1));
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0;
    let mut acc = 0usize;
    for i in 0..m.n {
        acc += m.row_nnz(i);
        if acc >= per && ranges.len() + 1 < parts {
            ranges.push((lo, i + 1));
            lo = i + 1;
            acc = 0;
        }
    }
    ranges.push((lo, m.n));
    while ranges.len() < parts {
        ranges.push((m.n, m.n));
    }
    ranges
}

/// Coarse-grained product: one long-lived thread per processor, nnz-balanced
/// static partition, barrier per iteration.
pub fn run_coarse(m: &Csr, v: &[f64], p: &Params, procs: usize) -> Vec<f64> {
    let mut w = vec![0.0; m.n];
    let ranges = nnz_partition(m, procs);
    let barrier = Barrier::new(procs);
    let iters = p.iters;
    {
        let wv = SharedSlice::new(&mut w);
        ptdf::scope(|s| {
            for &(lo, hi) in &ranges {
                let barrier = barrier.clone();
                s.spawn(move || {
                    for _ in 0..iters {
                        rows_kernel(m, v, wv, lo, hi);
                        barrier.wait();
                    }
                });
            }
        });
    }
    w
}

/// Reference dense product for verification.
pub fn reference(m: &Csr, v: &[f64]) -> Vec<f64> {
    let mut w = vec![0.0; m.n];
    for (i, wi) in w.iter_mut().enumerate() {
        for k in m.row_ptr[i] as usize..m.row_ptr[i + 1] as usize {
            *wi += m.val[k] * v[m.col[k] as usize];
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    fn small() -> (Csr, Vec<f64>, Params) {
        let p = Params {
            nodes: 500,
            width: 23,
            iters: 3,
            fine_threads: 16,
            seed: 9,
        };
        let m = gen_matrix(&p);
        let v = gen_vector(&p);
        (m, v, p)
    }

    #[test]
    fn matrix_shape_is_sane() {
        let p = Params::paper();
        let m = gen_matrix(&p);
        assert_eq!(m.n, 30_169);
        let avg = m.nnz() as f64 / m.n as f64;
        assert!(
            (4.0..9.0).contains(&avg),
            "average row degree {avg} out of range (nnz = {})",
            m.nnz()
        );
        // Irregular: some rows much heavier than the average.
        let max_row = (0..m.n).map(|i| m.row_nnz(i)).max().unwrap();
        assert!(max_row >= 10);
        // Column indices valid.
        assert!(m.col.iter().all(|&c| (c as usize) < m.n));
    }

    #[test]
    fn fine_matches_reference() {
        let (m, v, p) = small();
        let want = reference(&m, &v);
        for kind in [SchedKind::Fifo, SchedKind::Df] {
            let (got, _) = ptdf::run(Config::new(4, kind), {
                let (m, v) = (m.clone(), v.clone());
                move || run_fine(&m, &v, &p)
            });
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn coarse_matches_reference() {
        let (m, v, p) = small();
        let want = reference(&m, &v);
        let (got, _) = ptdf::run(Config::new(4, SchedKind::Fifo), {
            let (m, v) = (m.clone(), v.clone());
            move || run_coarse(&m, &v, &p, 4)
        });
        assert_eq!(got, want);
    }

    #[test]
    fn nnz_partition_balances() {
        let p = Params::paper();
        let m = gen_matrix(&p);
        let parts = nnz_partition(&m, 8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts[0].0, 0);
        assert_eq!(parts[7].1, m.n);
        let weights: Vec<usize> = parts
            .iter()
            .map(|&(lo, hi)| (lo..hi).map(|i| m.row_nnz(i)).sum())
            .collect();
        let max = *weights.iter().max().unwrap() as f64;
        let min = *weights.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 1.3, "imbalance {weights:?}");
        // Contiguity.
        for w in parts.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }

    #[test]
    fn fine_creates_threads_every_iteration() {
        let (m, v, p) = small();
        let (_, report) = ptdf::run(Config::new(2, SchedKind::Df), {
            let (m, v) = (m.clone(), v.clone());
            move || run_fine(&m, &v, &p)
        });
        // Binary-tree fork: 15 threads per iteration (the forker runs one
        // task itself) × 3 iterations + root.
        assert_eq!(report.total_threads, 15 * 3 + 1);
        // But never more than one iteration's worth live at once.
        assert!(report.max_live_threads() <= 17 + 1);
    }

    #[test]
    fn serial_mode_matches() {
        let (m, v, p) = small();
        let want = reference(&m, &v);
        let (got, _) = ptdf::run_serial(ptdf::CostModel::ultrasparc_167(), || run_fine(&m, &v, &p));
        assert_eq!(got, want);
    }
}
