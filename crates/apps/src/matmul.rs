//! Dense matrix multiply: the paper's running example (§3, Figure 4).
//!
//! A block-based divide-and-conquer algorithm with dynamic parallelism:
//! each recursive call forks eight child threads for the quadrant products
//! (four into `C`, four into a freshly allocated temporary `T`), joins them,
//! and adds `T` into `C` with a parallel divide-and-conquer add. The
//! recursion switches to an efficient serial kernel at `base × base` blocks
//! (64 on the reference machine), which amortizes thread overheads.
//!
//! The temporaries are what make this benchmark space-interesting: a
//! breadth-first (FIFO) schedule allocates *every* level's temporaries at
//! once (~120 MB at n = 1024), while a depth-first schedule holds one path's
//! worth (~11 MB) — the contrast of the paper's Figures 5b and 7b.
//!
//! Those are *modelled* footprints: every temporary and both input copies
//! the paper's program makes are charged with `rt_alloc` and `rt_free`, but
//! the host holds only `A`, `B`, `C` and, per running add leaf, one register
//! tile and one packed column strip of `B`. A temporary's four products
//! spawn, touch and charge without computing anything; the add that consumes
//! `T` computes each tile of it exactly as the recursion would have summed
//! it, and adds it into `C`.

use ptdf::TrackedBuf;

use crate::util::{charge_flops_dense, region, salt, uniform01, SharedBuf, SharedView};

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Matrix dimension (power of two).
    pub n: usize,
    /// Serial base-case block size (power of two, ≤ n).
    pub base: usize,
    /// Input seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration: 1024×1024, base 64.
    pub fn paper() -> Self {
        Params {
            n: 1024,
            base: 64,
            seed: 0xA1,
        }
    }

    /// A scaled-down configuration for quick runs. The base block stays at
    /// the paper's 64 so the per-thread work (and hence the thread-overhead
    /// ratio that drives the scheduling effects) matches the paper; only
    /// the recursion depth shrinks.
    pub fn small() -> Self {
        Params {
            n: 512,
            base: 64,
            seed: 0xA1,
        }
    }

    /// Total multiply flops (2n³), ignoring the add temporaries.
    pub fn flops(&self) -> u64 {
        2 * (self.n as u64).pow(3)
    }

    /// The recursions halve `n` until it reaches `base`; on any other shape
    /// a halving truncates and rows and columns are silently never written.
    fn assert_halves_to_base(&self) {
        assert!(
            self.n.is_power_of_two() && self.base.is_power_of_two() && self.base <= self.n,
            "matmul: n and base must be powers of two with base <= n (n = {}, base = {})",
            self.n,
            self.base
        );
    }
}

/// Generates two random `n×n` matrices (row-major).
pub fn gen_input(p: &Params) -> (Vec<f64>, Vec<f64>) {
    p.assert_halves_to_base();
    let mut state = p.seed;
    let gen = |state: &mut u64| {
        (0..p.n * p.n)
            .map(|_| uniform01(state) * 2.0 - 1.0)
            .collect::<Vec<f64>>()
    };
    let a = gen(&mut state);
    let b = gen(&mut state);
    (a, b)
}

/// A sub-block of a row-major matrix: a view `V` of the buffer, its row
/// stride, and the block's origin, which also names the block's locality
/// regions.
#[derive(Clone, Copy, Debug)]
struct Sub<V> {
    buf: V,
    /// Row stride of the underlying buffer.
    stride: usize,
    row: usize,
    col: usize,
}

/// A block of `A` or `B`, read in place.
type In = Sub<SharedView<f64>>;

/// A block of `C`, or (`buf: None`) of a temporary `T` that the model
/// allocates and the host never holds: see [`matrix_add`].
type Out = Sub<Option<SharedBuf<f64>>>;

impl<V> Sub<V> {
    /// The whole of a buffer with row stride `stride`.
    fn whole(buf: V, stride: usize) -> Self {
        Sub {
            buf,
            stride,
            row: 0,
            col: 0,
        }
    }

    fn quad(self, half: usize, qi: usize, qj: usize) -> Self {
        Sub {
            row: self.row + qi * half,
            col: self.col + qj * half,
            ..self
        }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        (self.row + i) * self.stride + (self.col + j)
    }
}

impl Out {
    /// The block of `C` to write, or `None` for a block of a temporary.
    fn dest(self) -> Option<Sub<SharedBuf<f64>>> {
        let Sub {
            buf,
            stride,
            row,
            col,
        } = self;
        buf.map(|buf| Sub {
            buf,
            stride,
            row,
            col,
        })
    }
}

/// Charges the model an allocation of `len` `f64`s that the host never
/// makes: `rt_alloc` now and `rt_free` when the guard drops, as a
/// `TrackedBuf` of that length charges.
fn charge_alloc(len: usize) -> ptdf::CleanupGuard<impl FnOnce()> {
    let bytes = (len * std::mem::size_of::<f64>()) as u64;
    ptdf::rt_alloc(bytes);
    ptdf::cleanup(move || ptdf::rt_free(bytes))
}

/// `C = A × B` with the paper's divide-and-conquer algorithm. Runs in any
/// execution mode (parallel runtime, serial baseline, or standalone).
pub fn multiply(a: &[f64], b: &[f64], p: &Params) -> Vec<f64> {
    p.assert_halves_to_base();
    let n = p.n;
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = TrackedBuf::<f64>::zeroed(n * n);
    // The paper's program copies its inputs, and the space figures include
    // the copies; the host reads `a` and `b` in place.
    let _a_copy = charge_alloc(n * n);
    let _b_copy = charge_alloc(n * n);
    mm(
        Sub::whole(SharedView::new(a), n),
        Sub::whole(SharedView::new(b), n),
        Sub::whole(Some(SharedBuf::new(&mut c)), n),
        n,
        p.base,
        1,
    );
    c.into_vec()
}

/// Recursive multiply: `C += A × B` over `size × size` blocks.
fn mm(a: In, b: In, c: Out, size: usize, base: usize, path: u64) {
    if size <= base {
        serial_mult(a, b, c, size, base);
        return;
    }
    let h = size / 2;
    // Temporary T for the second half of the quadrant products. Its four
    // products run charge-only; the add computes them where it consumes them.
    let t_charge = charge_alloc(size * size);
    let tv = Sub::whole(None, size);
    let tasks: [(In, In, Out); 8] = [
        (a.quad(h, 0, 0), b.quad(h, 0, 0), c.quad(h, 0, 0)), // A11*B11 -> C11
        (a.quad(h, 0, 0), b.quad(h, 0, 1), c.quad(h, 0, 1)), // A11*B12 -> C12
        (a.quad(h, 1, 0), b.quad(h, 0, 0), c.quad(h, 1, 0)), // A21*B11 -> C21
        (a.quad(h, 1, 0), b.quad(h, 0, 1), c.quad(h, 1, 1)), // A21*B12 -> C22
        (a.quad(h, 0, 1), b.quad(h, 1, 0), tv.quad(h, 0, 0)), // A12*B21 -> T11
        (a.quad(h, 0, 1), b.quad(h, 1, 1), tv.quad(h, 0, 1)), // A12*B22 -> T12
        (a.quad(h, 1, 1), b.quad(h, 1, 0), tv.quad(h, 1, 0)), // A22*B21 -> T21
        (a.quad(h, 1, 1), b.quad(h, 1, 1), tv.quad(h, 1, 1)), // A22*B22 -> T22
    ];
    let handles: Vec<_> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, (ta, tb, tc))| {
            let child_path = path * 8 + i as u64;
            ptdf::spawn(move || mm(ta, tb, tc, h, base, child_path))
        })
        .collect();
    for hdl in handles {
        hdl.join();
    }
    // T = A[.., h..] × B[h.., ..]: the right half of A's columns by the
    // bottom half of B's rows, over an inner dimension of h.
    matrix_add(a.quad(h, 0, 1), b.quad(h, 1, 0), h, c, size, base, path);
    drop(t_charge);
}

/// Register tile of the base-case kernel: `MR` rows by `NR` columns of `C`
/// held in locals across the whole `k` loop (4 × 16 `f64` is eight 512-bit
/// or sixteen 256-bit accumulators, leaving room for the `B` row).
const MR: usize = 4;
const NR: usize = 16;

type Tile = [[f64; NR]; MR];

/// Serial base-case kernel: `C += A × B` on a `size × size` block. Charges
/// the modelled flops and declares block locality; a block of a temporary
/// `T` does only that.
///
/// Each `c[i][j]` is updated by `fma(a[i][k], b[k][j], c[i][j])` for
/// `k = 0..size` in ascending order, which fixes its bits; the tiling only
/// chooses how many of those chains run side by side.
fn serial_mult(a: In, b: In, c: Out, size: usize, base: usize) {
    touch_block(salt::MATMUL_A, &a, size, base);
    touch_block(salt::MATMUL_B, &b, size, base);
    touch_block(salt::MATMUL_C, &c, size, base);
    if let Some(c) = c.dest() {
        for i0 in (0..size).step_by(MR) {
            let mr = MR.min(size - i0);
            for j0 in (0..size).step_by(NR) {
                let nr = NR.min(size - j0);
                // The accumulators stay in registers only when the trip
                // counts are constants: a full tile gets them as literals,
                // an edge tile runs the same inlined loop nest with its
                // short bounds.
                if (mr, nr) == (MR, NR) {
                    mult_tile(a, b, c, size, (i0, j0), (MR, NR));
                } else {
                    mult_tile(a, b, c, size, (i0, j0), (mr, nr));
                }
            }
        }
    }
    charge_flops_dense(2 * (size as u64).pow(3));
}

/// `C[i0.., j0..] += A[i0.., ..] × B[.., j0..]` over an `mr × nr` tile
/// (`mr ≤ MR`, `nr ≤ NR`): the tile of `C` is loaded once, accumulated over
/// all of `k`, and stored once.
#[inline(always)]
fn mult_tile(
    a: In,
    b: In,
    c: Sub<SharedBuf<f64>>,
    size: usize,
    (i0, j0): (usize, usize),
    (mr, nr): (usize, usize),
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (r, acc_row) in acc[..mr].iter_mut().enumerate() {
        // SAFETY: C blocks of concurrently-live threads are disjoint
        // quadrants, and A and B are other buffers, so the borrow is unique.
        let c_row = unsafe { c.buf.slice(c.idx(i0 + r, j0), nr) };
        acc_row[..nr].copy_from_slice(c_row);
    }
    let acc = fma_chains(a, b, 0..size, (i0, j0), (mr, nr), acc);
    for (r, acc_row) in acc[..mr].iter().enumerate() {
        // SAFETY: as for the load above; this thread owns the C block.
        let c_row = unsafe { c.buf.slice_mut(c.idx(i0 + r, j0), nr) };
        c_row.copy_from_slice(&acc_row[..nr]);
    }
}

/// `acc[r][j] = fma(a[i0 + r][k], b[k][j0 + j], acc[r][j])` for every `k`
/// of `ks` in ascending order, over the `mr × nr` corner of `acc`. Taken and
/// returned by value, so that each inlined call has accumulators of its own.
#[inline(always)]
fn fma_chains(
    a: In,
    b: In,
    ks: std::ops::Range<usize>,
    (i0, j0): (usize, usize),
    (mr, nr): (usize, usize),
    mut acc: Tile,
) -> Tile {
    for k in ks {
        // SAFETY: A and B (or a packed strip of B) are alive and unwritten
        // for the whole call; every index is inside the block.
        let b_row = unsafe { b.buf.slice(b.idx(k, j0), nr) };
        for (r, acc_row) in acc[..mr].iter_mut().enumerate() {
            let aik = unsafe { a.buf.get(a.idx(i0 + r, k)) };
            for (cj, &bj) in acc_row[..nr].iter_mut().zip(b_row) {
                *cj = aik.mul_add(bj, *cj);
            }
        }
    }
    acc
}

/// Parallel divide-and-conquer `C += T` (the paper's `Matrix_Add`), where
/// `T = A × B` over an inner dimension of `depth` is never stored: each
/// leaf computes its own tiles of `T` and adds them into `C`. Below a
/// temporary (`c.buf` is `None`) the leaves touch and charge only.
fn matrix_add(a: In, b: In, depth: usize, c: Out, size: usize, base: usize, path: u64) {
    if size <= base {
        touch_block(salt::MATMUL_C, &c, size, base);
        if let Some(c) = c.dest() {
            add_product(a, b, depth, c, size, base);
        }
        charge_flops_dense((size * size) as u64);
        return;
    }
    let h = size / 2;
    let handles: Vec<_> = (0..4)
        .map(|q| {
            let (qi, qj) = (q / 2, q % 2);
            let (aq, bq, cq) = (a.quad(h, qi, 0), b.quad(h, 0, qj), c.quad(h, qi, qj));
            let child_path = path * 8 + 4 + q as u64;
            ptdf::spawn(move || matrix_add(aq, bq, depth, cq, h, base, child_path))
        })
        .collect();
    for hdl in handles {
        hdl.join();
    }
}

/// The arithmetic of one add leaf: `C += T` on a `size × size` block, each
/// `MR × NR` tile of `T` computed by [`product_tile`] and added at once.
///
/// The `depth × NR` column strip of `B` under a tile column is first packed
/// into contiguous rows: in place its rows lie a whole matrix row apart, and
/// at n = 1024 the 512 rows of a strip fall into too few L2 sets to stay
/// there from one tile to the next.
fn add_product(a: In, b: In, depth: usize, c: Sub<SharedBuf<f64>>, size: usize, base: usize) {
    let mut strip = vec![0.0f64; depth * NR];
    for j0 in (0..size).step_by(NR) {
        let nr = NR.min(size - j0);
        for (k, row) in strip.chunks_exact_mut(NR).enumerate() {
            // SAFETY: B is an input, alive and unwritten for the whole
            // multiply; the range is inside the block.
            row[..nr].copy_from_slice(unsafe { b.buf.slice(b.idx(k, j0), nr) });
        }
        let packed = Sub::whole(SharedView::new(&strip), NR);
        for i0 in (0..size).step_by(MR) {
            let mr = MR.min(size - i0);
            let t = product_tile(a, packed, 0, depth, base, (i0, 0), (mr, nr));
            for (r, t_row) in t[..mr].iter().enumerate() {
                // SAFETY: C blocks of concurrently-live threads are disjoint
                // quadrants.
                let c_row = unsafe { c.buf.slice_mut(c.idx(i0 + r, j0), nr) };
                for (cj, tj) in c_row.iter_mut().zip(t_row) {
                    *cj += tj;
                }
            }
        }
    }
}

/// The `mr × nr` tile at row `i0` of `A` and column `j0` of `B` of the
/// product over `k` in `[k0, k0 + depth)`, summed exactly as the recursion
/// stores it in `T`: a block of `base` is one fma chain from zero, and a
/// longer one is its halves added left to right,
/// `F(k0, d) = F(k0, d/2) + F(k0 + d/2, d/2)`.
fn product_tile(
    a: In,
    b: In,
    k0: usize,
    depth: usize,
    base: usize,
    at: (usize, usize),
    (mr, nr): (usize, usize),
) -> Tile {
    if depth <= base {
        // Constant trip counts for a full tile, as in `serial_mult`.
        let zero = [[0.0f64; NR]; MR];
        let acc = if (mr, nr) == (MR, NR) {
            fma_chains(a, b, k0..k0 + depth, at, (MR, NR), zero)
        } else {
            fma_chains(a, b, k0..k0 + depth, at, (mr, nr), zero)
        };
        // Returning `acc` itself would make the return slot the
        // accumulators, which then stay in memory, one scalar at a time.
        let mut out = zero;
        for (out_row, acc_row) in out[..mr].iter_mut().zip(&acc) {
            out_row[..nr].copy_from_slice(&acc_row[..nr]);
        }
        return out;
    }
    let h = depth / 2;
    let mut left = product_tile(a, b, k0, h, base, at, (mr, nr));
    let right = product_tile(a, b, k0 + h, h, base, at, (mr, nr));
    for (left_row, right_row) in left.iter_mut().zip(&right) {
        for (l, r) in left_row.iter_mut().zip(right_row) {
            *l += r;
        }
    }
    left
}

fn touch_block<V>(s: u64, m: &Sub<V>, size: usize, base: usize) {
    // One region per base-block, addressed by absolute block coordinates.
    let id = ((m.row / base.max(1)) as u64) << 20 | (m.col / base.max(1)) as u64;
    ptdf::touch(region(s, id), (size * size * 8) as u64);
}

// ---------------------------------------------------------------------------
// Strassen's algorithm (the paper's §3 aside: "the more complex but
// asymptotically faster Strassen's matrix multiply can also be implemented
// in a similar divide-and-conquer fashion with a few extra lines of code").
// Seven recursive products over explicitly allocated temporaries — even more
// allocation-intensive than the standard algorithm, which makes it a
// stress case for the space-efficient scheduler.
//
// Its temporaries stay real buffers, unlike `multiply`'s `T`. Most are
// operands (the quadrant copies and the sums `S`), which every level of the
// product below reads; and five of the seven products `M` feed two quadrants
// of `C`, so computing one where it is consumed would compute it twice.
// ---------------------------------------------------------------------------

/// `C = A × B` by Strassen's algorithm with a thread per recursive product.
/// Falls back to the serial kernel at `p.base`.
pub fn strassen(a: &[f64], b: &[f64], p: &Params) -> Vec<f64> {
    p.assert_halves_to_base();
    let n = p.n;
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let out = strassen_rec(a, b, n, p.base, 1);
    out.into_vec()
}

/// Contiguous `size×size` helpers for the Strassen recursion.
fn quad_copy(src: &[f64], size: usize, qi: usize, qj: usize) -> TrackedBuf<f64> {
    let h = size / 2;
    let mut out = TrackedBuf::<f64>::zeroed(h * h);
    for i in 0..h {
        let s = (qi * h + i) * size + qj * h;
        out[i * h..(i + 1) * h].copy_from_slice(&src[s..s + h]);
    }
    charge_flops_dense((h * h) as u64 / 4);
    out
}

fn mat_add(x: &[f64], y: &[f64]) -> TrackedBuf<f64> {
    charge_flops_dense(x.len() as u64);
    TrackedBuf::from_vec(x.iter().zip(y).map(|(a, b)| a + b).collect())
}

fn mat_sub(x: &[f64], y: &[f64]) -> TrackedBuf<f64> {
    charge_flops_dense(x.len() as u64);
    TrackedBuf::from_vec(x.iter().zip(y).map(|(a, b)| a - b).collect())
}

fn strassen_rec(a: &[f64], b: &[f64], size: usize, base: usize, path: u64) -> TrackedBuf<f64> {
    if size <= base {
        // Serial kernel on contiguous blocks.
        let mut c = TrackedBuf::<f64>::zeroed(size * size);
        for i in 0..size {
            for k in 0..size {
                let aik = a[i * size + k];
                for j in 0..size {
                    c[i * size + j] += aik * b[k * size + j];
                }
            }
        }
        charge_flops_dense(2 * (size as u64).pow(3));
        ptdf::touch(
            region(salt::MATMUL_C, 0x5752A55E ^ path),
            (size * size * 24) as u64,
        );
        return c;
    }
    let h = size / 2;
    let a11 = quad_copy(a, size, 0, 0);
    let a12 = quad_copy(a, size, 0, 1);
    let a21 = quad_copy(a, size, 1, 0);
    let a22 = quad_copy(a, size, 1, 1);
    let b11 = quad_copy(b, size, 0, 0);
    let b12 = quad_copy(b, size, 0, 1);
    let b21 = quad_copy(b, size, 1, 0);
    let b22 = quad_copy(b, size, 1, 1);

    // The seven Strassen operand pairs.
    let s1a = mat_add(&a11, &a22);
    let s1b = mat_add(&b11, &b22);
    let s2a = mat_add(&a21, &a22);
    let s3b = mat_sub(&b12, &b22);
    let s4b = mat_sub(&b21, &b11);
    let s5a = mat_add(&a11, &a12);
    let s6a = mat_sub(&a21, &a11);
    let s6b = mat_add(&b11, &b12);
    let s7a = mat_sub(&a12, &a22);
    let s7b = mat_add(&b21, &b22);

    let mut ms: [Option<TrackedBuf<f64>>; 7] = Default::default();
    {
        let (m1s, rest) = ms.split_at_mut(1);
        let (m2s, rest) = rest.split_at_mut(1);
        let (m3s, rest) = rest.split_at_mut(1);
        let (m4s, rest) = rest.split_at_mut(1);
        let (m5s, rest) = rest.split_at_mut(1);
        let (m6s, m7s) = rest.split_at_mut(1);
        ptdf::scope(|s| {
            s.spawn(|| m1s[0] = Some(strassen_rec(&s1a, &s1b, h, base, path * 8 + 1)));
            s.spawn(|| m2s[0] = Some(strassen_rec(&s2a, &b11, h, base, path * 8 + 2)));
            s.spawn(|| m3s[0] = Some(strassen_rec(&a11, &s3b, h, base, path * 8 + 3)));
            s.spawn(|| m4s[0] = Some(strassen_rec(&a22, &s4b, h, base, path * 8 + 4)));
            s.spawn(|| m5s[0] = Some(strassen_rec(&s5a, &b22, h, base, path * 8 + 5)));
            s.spawn(|| m6s[0] = Some(strassen_rec(&s6a, &s6b, h, base, path * 8 + 6)));
            m7s[0] = Some(strassen_rec(&s7a, &s7b, h, base, path * 8 + 7));
        });
    }
    let [m1, m2, m3, m4, m5, m6, m7] = ms.map(|m| m.expect("product computed"));

    // Assemble C from the products.
    let mut c = TrackedBuf::<f64>::zeroed(size * size);
    for i in 0..h {
        for j in 0..h {
            let k = i * h + j;
            c[i * size + j] = m1[k] + m4[k] - m5[k] + m7[k]; // C11
            c[i * size + j + h] = m3[k] + m5[k]; // C12
            c[(i + h) * size + j] = m2[k] + m4[k]; // C21
            c[(i + h) * size + j + h] = m1[k] - m2[k] + m3[k] + m6[k]; // C22
        }
    }
    charge_flops_dense(8 * (h * h) as u64);
    c
}

/// Naive reference multiply (no charging) for verification.
pub fn reference(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

/// Maximum absolute elementwise difference.
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn standalone_matches_reference() {
        let p = Params {
            n: 64,
            base: 16,
            seed: 3,
        };
        let (a, b) = gen_input(&p);
        let c = multiply(&a, &b, &p);
        let r = reference(&a, &b, p.n);
        assert!(max_abs_diff(&c, &r) < 1e-9);
    }

    #[test]
    fn parallel_matches_reference_under_all_schedulers() {
        let p = Params {
            n: 64,
            base: 16,
            seed: 4,
        };
        let (a, b) = gen_input(&p);
        let r = reference(&a, &b, p.n);
        for kind in [
            SchedKind::Fifo,
            SchedKind::Lifo,
            SchedKind::Df,
            SchedKind::Ws,
        ] {
            let (c, _) = ptdf::run(Config::new(4, kind), {
                let (a, b) = (a.clone(), b.clone());
                move || multiply(&a, &b, &p)
            });
            assert!(max_abs_diff(&c, &r) < 1e-9, "{kind:?}");
        }
    }

    /// The base case `serial_mult` used to be, kept as its reference: a `C`
    /// row loaded and stored once per `(i, k)`.
    fn row_saxpy(a: In, b: In, c: Sub<SharedBuf<f64>>, size: usize) {
        for i in 0..size {
            // SAFETY: the three views are over distinct buffers owned by
            // the calling test, and every index is inside the view's block.
            let c_row = unsafe { c.buf.slice_mut(c.idx(i, 0), size) };
            for k in 0..size {
                let aik = unsafe { a.buf.get(a.idx(i, k)) };
                let b_row = unsafe { b.buf.slice(b.idx(k, 0), size) };
                for j in 0..size {
                    c_row[j] = aik.mul_add(b_row[j], c_row[j]);
                }
            }
        }
    }

    /// Every size up to past one tile in each direction, as a whole buffer
    /// and as an offset block of a wider one; comparing the whole `C`
    /// buffer also shows that nothing outside the block is written.
    #[test]
    fn serial_mult_is_bit_identical_to_row_saxpy() {
        let mut state = 0x5EED;
        for size in 1..=70 {
            for (stride, row, col) in [(size, 0, 0), (2 * size + 3, size / 2 + 1, size + 2)] {
                let mut fill = || -> Vec<f64> {
                    (0..(row + size) * stride)
                        .map(|_| uniform01(&mut state) * 2.0 - 1.0)
                        .collect()
                };
                let (a, b, mut c) = (fill(), fill(), fill());
                let mut want = c.clone();
                fn at<V>(buf: V, (stride, row, col): (usize, usize, usize)) -> Sub<V> {
                    Sub {
                        row,
                        col,
                        ..Sub::whole(buf, stride)
                    }
                }
                let block = (stride, row, col);
                let (av, bv) = (
                    at(SharedView::new(&a), block),
                    at(SharedView::new(&b), block),
                );
                row_saxpy(av, bv, at(SharedBuf::new(&mut want), block), size);
                serial_mult(av, bv, at(Some(SharedBuf::new(&mut c)), block), size, size);
                assert!(
                    c.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "size {size}, stride {stride}, block at ({row}, {col})"
                );
            }
        }
    }

    /// The recursion's value of one element of `C`,
    /// `F(c, k0, s) = F(c, k0, s/2) + F(0, k0 + s/2, s/2)`, where a block of
    /// `base` is `chain(c, k0, base)`: one fma chain from `c`, `k` ascending.
    fn sum_tree(
        chain: &impl Fn(f64, usize, usize) -> f64,
        c: f64,
        k0: usize,
        s: usize,
        base: usize,
    ) -> f64 {
        if s <= base {
            return chain(c, k0, s);
        }
        let h = s / 2;
        sum_tree(chain, c, k0, h, base) + sum_tree(chain, 0.0, k0 + h, h, base)
    }

    /// Every element of the output, standalone and under FIFO, is its sum
    /// tree bit for bit, on bases that leave edge tiles (1, 4, 8) and full
    /// ones (16, 32).
    #[test]
    fn every_element_is_its_sum_tree() {
        for (n, base) in [(4, 1), (16, 1), (32, 4), (64, 8), (64, 16), (128, 32)] {
            let p = Params { n, base, seed: 8 };
            let (a, b) = gen_input(&p);
            let want: Vec<u64> = (0..n * n)
                .map(|e| {
                    let (i, j) = (e / n, e % n);
                    let chain = |c: f64, k0: usize, len: usize| {
                        (k0..k0 + len).fold(c, |acc, k| a[i * n + k].mul_add(b[k * n + j], acc))
                    };
                    sum_tree(&chain, 0.0, 0, n, base).to_bits()
                })
                .collect();
            let bits = |c: Vec<f64>| c.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(multiply(&a, &b, &p)),
                want,
                "standalone, n {n}, base {base}"
            );
            let (c, _) = ptdf::run(Config::new(4, SchedKind::Fifo), move || {
                multiply(&a, &b, &p)
            });
            assert_eq!(bits(c), want, "fifo, n {n}, base {base}");
        }
    }

    #[test]
    fn base_equal_n_is_pure_serial_kernel() {
        let p = Params {
            n: 32,
            base: 32,
            seed: 5,
        };
        let (a, b) = gen_input(&p);
        let c = multiply(&a, &b, &p);
        let r = reference(&a, &b, p.n);
        assert!(max_abs_diff(&c, &r) < 1e-9);
    }

    #[test]
    fn df_footprint_far_below_fifo() {
        let p = Params {
            n: 128,
            base: 16,
            seed: 6,
        };
        let (a, b) = gen_input(&p);
        let run_with = |kind| {
            let (a, b) = (a.clone(), b.clone());
            let (_, report) = ptdf::run(Config::new(4, kind), move || multiply(&a, &b, &p));
            report
        };
        let fifo = run_with(SchedKind::Fifo);
        let df = run_with(SchedKind::Df);
        assert!(
            df.footprint() < fifo.footprint() / 2,
            "df {} vs fifo {}",
            df.footprint(),
            fifo.footprint()
        );
        assert!(df.max_live_threads() < fifo.max_live_threads() / 4);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_inputs_rejected() {
        let p = Params {
            n: 100,
            base: 10,
            seed: 0,
        };
        let _ = gen_input(&p);
    }

    /// 130 → 65 → 32: `multiply` and `strassen` used to return a `C` with
    /// row and column 64 of each quadrant never written.
    #[test]
    fn entry_points_reject_sizes_that_do_not_halve_to_base() {
        let p = Params {
            n: 130,
            base: 64,
            seed: 0,
        };
        let zeros = vec![0.0; p.n * p.n];
        type Entry = fn(&[f64], &[f64], &Params) -> Vec<f64>;
        for entry in [multiply as Entry, strassen] {
            let panic = std::panic::catch_unwind(|| entry(&zeros, &zeros, &p))
                .expect_err("n = 130 must be rejected");
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(
                message.contains("powers of two") && message.contains("n = 130, base = 64"),
                "{message}"
            );
        }
    }

    #[test]
    fn strassen_matches_reference() {
        let p = Params {
            n: 128,
            base: 16,
            seed: 21,
        };
        let (a, b) = gen_input(&p);
        let r = reference(&a, &b, p.n);
        let c = strassen(&a, &b, &p);
        assert!(max_abs_diff(&c, &r) < 1e-8, "standalone strassen");
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let (c, report) = ptdf::run(Config::new(4, kind), {
                let (a, b) = (a.clone(), b.clone());
                move || strassen(&a, &b, &p)
            });
            assert!(max_abs_diff(&c, &r) < 1e-8, "{kind:?}");
            assert!(report.total_threads > 40, "{kind:?} forks 7-way tree");
        }
    }

    #[test]
    fn strassen_space_discipline() {
        let p = Params {
            n: 128,
            base: 16,
            seed: 22,
        };
        let (a, b) = gen_input(&p);
        let run_with = |kind| {
            let (a, b) = (a.clone(), b.clone());
            ptdf::run(Config::new(4, kind), move || strassen(&a, &b, &p)).1
        };
        let fifo = run_with(SchedKind::Fifo);
        let df = run_with(SchedKind::Df);
        assert!(
            df.footprint() < fifo.footprint(),
            "df {} vs fifo {}",
            df.footprint(),
            fifo.footprint()
        );
    }

    #[test]
    fn serial_mode_runs_the_same_code() {
        let p = Params {
            n: 64,
            base: 16,
            seed: 7,
        };
        let (a, b) = gen_input(&p);
        let r = reference(&a, &b, p.n);
        let (c, report) =
            ptdf::run_serial(ptdf::CostModel::ultrasparc_167(), || multiply(&a, &b, &p));
        assert!(max_abs_diff(&c, &r) < 1e-9);
        assert_eq!(report.stats.mem.threads_created, 0);
        assert!(report.time.as_ns() > 0);
    }
}
