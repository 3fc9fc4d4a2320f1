//! FFTW-style one-dimensional complex DFT (paper §5.1.4).
//!
//! A recursive radix-2 decimation-in-time Cooley-Tukey transform. Like the
//! multithreaded FFTW code the paper used, the implementation "forks a
//! Pthread for each recursive transform, until the specified number of
//! threads are created; after that it executes the recursion serially."
//! The thread-count knob is what Figure 10 sweeps: `p` threads partition a
//! power-of-two problem perfectly when `p` is a power of two, but only a
//! larger thread pool (256) lets the scheduler balance the load for other
//! processor counts.

use crate::util::{charge_flops_dense, region, salt, uniform01, SharedBuf, SharedView};

/// A complex number (two f64s).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Constructs from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Cpx { re, im }
    }

    #[inline]
    fn mul(self, o: Cpx) -> Cpx {
        // Fused multiply-adds: one rounding step fewer per component (the
        // verification tolerances absorb the value shift), one FMA issue
        // fewer per butterfly.
        Cpx {
            re: self.re.mul_add(o.re, -(self.im * o.im)),
            im: self.re.mul_add(o.im, self.im * o.re),
        }
    }

    #[inline]
    fn add(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    #[inline]
    fn sub(self, o: Cpx) -> Cpx {
        Cpx {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// log2 of the transform size.
    pub log2n: u32,
    /// Number of threads to create (the FFTW interface knob).
    pub threads: usize,
    /// Input seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration: N = 2^22.
    pub fn paper(threads: usize) -> Self {
        Params {
            log2n: 22,
            threads,
            seed: 0xF0,
        }
    }

    /// Scaled-down configuration (leaf transforms stay big enough that the
    /// thread-overhead ratio resembles the paper's 2^22 / 256 threads).
    pub fn small(threads: usize) -> Self {
        Params {
            log2n: 20,
            threads,
            seed: 0xF0,
        }
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        1 << self.log2n
    }
}

/// Random complex signal.
pub fn gen_input(p: &Params) -> Vec<Cpx> {
    let mut s = p.seed;
    (0..p.n())
        .map(|_| Cpx::new(uniform01(&mut s) * 2.0 - 1.0, uniform01(&mut s) * 2.0 - 1.0))
        .collect()
}

/// A serial transform of at most this many points runs as one in-cache
/// pass (64 KB): every butterfly level sweeps the block in turn. Larger
/// serial transforms recurse (without charging) down to blocks of this size.
const BLOCK: usize = 1 << 12;

/// Forward DFT of `input` (length must equal `p.n()`), forking up to
/// `p.threads` threads. Runs in any execution mode.
///
/// The call allocates the output and one twiddle table, nothing else. The
/// recursion's leaves are bare copies that charge nothing, so the calling
/// thread places all of them at once (see `bit_reversed`) and every node
/// then works in place. Once the thread budget is spent, a serial subtree
/// computes its whole result first and then issues its `touch` / charge
/// calls by a data-free walk in the recursion's post-order, so the model
/// sees exactly the sequence of the plain recursion.
pub fn fft(input: &[Cpx], p: &Params) -> Vec<Cpx> {
    let n = p.n();
    assert_eq!(input.len(), n);
    let table = Twiddles::table(n);
    charge_flops_dense((n / 2) as u64 * 20); // table construction (sin/cos)
    let mut out = bit_reversed(input);
    let tw = Twiddles {
        buf: SharedView::new(&table),
        n,
    };
    rec(SharedBuf::new(&mut out), 0, n, tw, p.threads.max(1));
    out
}

/// `x` reversed in its low `bits` bits.
#[inline]
fn rev(x: usize, bits: u32) -> usize {
    x.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// `out[j] = input[rev(j)]`: where the recursion leaves every input point
/// before its first butterfly. Copied in `j` order, every read of a large
/// transform would land on a page of its own, so the pass is blocked: with
/// `j = [a | b | c]`, `a` and `c` of `q` bits, each `b` moves a
/// 2^q × 2^q tile whose rows are contiguous on both sides.
fn bit_reversed(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    let bits = n.trailing_zeros();
    let q = (bits / 2).min(5);
    let r = bits - 2 * q;
    let mut out = vec![Cpx::default(); n];
    for b in 0..1usize << r {
        let rb = rev(b, r);
        for rc in 0..1usize << q {
            let row = (rc << (r + q)) | (rb << q);
            let col = (b << q) | rev(rc, q);
            for (ra, x) in out[row..row + (1 << q)].iter_mut().enumerate() {
                *x = input[(rev(ra, q) << (r + q)) | col];
            }
        }
    }
    out
}

/// `w_n^k`. Every factor the transform uses is this expression's value,
/// whether the table holds it or the top level computes it.
#[inline]
fn twiddle(k: usize, n: usize) -> Cpx {
    let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
    Cpx::new(ang.cos(), ang.sin())
}

/// The twiddle factors of an `n`-point transform, in one table built per
/// call. Level `m` needs `w_n^(k·n/m)` for `k < m/2`. Level `n/2` is
/// computed at offset 0; each lower level `m` is copied bit-for-bit from it
/// with stride `n/2m` and packed contiguously at offset `n/4 + m/2 - 1`.
/// The top level's even factors are level `n/2`'s, and it computes its odd
/// ones as it goes, so the table holds `n/2 - 1` factors and every level
/// reads them sequentially.
#[derive(Clone, Copy)]
struct Twiddles {
    buf: SharedView<Cpx>,
    n: usize,
}

impl Twiddles {
    fn table(n: usize) -> Vec<Cpx> {
        let mut t = Vec::with_capacity((n / 2).saturating_sub(1));
        t.extend((0..n / 4).map(|j| twiddle(2 * j, n)));
        let mut m = 2;
        while m < n / 2 {
            for k in 0..m / 2 {
                t.push(t[k * (n / 2 / m)]);
            }
            m *= 2;
        }
        t
    }

    /// Level `m`'s factors, for `m < n`.
    #[inline]
    fn factors(&self, m: usize) -> &[Cpx] {
        let at = if m == self.n / 2 {
            0
        } else {
            self.n / 4 + m / 2 - 1
        };
        // SAFETY: `fft` builds the table before the recursion, never writes
        // it again, and joins every thread before dropping it; the range is
        // inside it.
        unsafe { self.buf.slice(at, m / 2) }
    }

    /// Runs level `m`'s butterflies on every `m`-point node of `d`.
    #[inline]
    fn level(&self, m: usize, d: &mut [Cpx]) {
        let n = self.n;
        if m == n {
            let evens = self.factors(n / 2);
            let (ev, od) = d.split_at_mut(n / 2);
            for (k, (e, o)) in ev.iter_mut().zip(od).enumerate() {
                let w = match evens.get(k / 2) {
                    Some(&w) if k % 2 == 0 => w,
                    _ => twiddle(k, n),
                };
                butterfly(e, o, w);
            }
            return;
        }
        let w = self.factors(m);
        for node in d.chunks_exact_mut(m) {
            let (ev, od) = node.split_at_mut(m / 2);
            for ((e, o), &w) in ev.iter_mut().zip(od).zip(w) {
                butterfly(e, o, w);
            }
        }
    }
}

/// `e, o = e + w·o, e - w·o`, in the one operation order every level uses.
#[inline(always)]
fn butterfly(e: &mut Cpx, o: &mut Cpx, w: Cpx) {
    let t = w.mul(*o);
    let a = *e;
    *e = a.add(t);
    *o = a.sub(t);
}

/// Recursive DIT step: turn the leaves in `dst[dst_off .. dst_off + m]`
/// into their transform, forking while `budget >= 2`.
fn rec(dst: SharedBuf<Cpx>, dst_off: usize, m: usize, tw: Twiddles, budget: usize) {
    if budget < 2 || m == 1 {
        // SAFETY: this thread owns dst[dst_off..dst_off+m] (its siblings
        // own disjoint ranges, its parent waits in join), and the borrow
        // ends before the first runtime call.
        serial(unsafe { dst.slice_mut(dst_off, m) }, tw);
        replay_charges(dst_off, m);
        return;
    }
    let h = m / 2;
    let b1 = budget / 2;
    let b2 = budget - b1;
    let even = ptdf::spawn(move || rec(dst, dst_off, h, tw, b1));
    let odd = ptdf::spawn(move || rec(dst, dst_off + h, h, tw, b2));
    even.join();
    odd.join();
    // SAFETY: both children are joined, so this thread owns the range
    // again; the borrow ends before the next runtime call.
    tw.level(m, unsafe { dst.slice_mut(dst_off, m) });
    charge_node(dst_off, m);
}

/// The serial recursion's arithmetic, without its charges: `d` ends as the
/// plain recursion leaves it, butterfly for butterfly.
fn serial(d: &mut [Cpx], tw: Twiddles) {
    let m = d.len();
    if m > BLOCK {
        let (ev, od) = d.split_at_mut(m / 2);
        serial(ev, tw);
        serial(od, tw);
        tw.level(m, d);
        return;
    }
    // The nodes of one level are disjoint, so sweeping the block level by
    // level reorders no node's arithmetic.
    let mut size = 2;
    while size <= m {
        tw.level(size, d);
        size *= 2;
    }
}

/// Issues the `touch` / charge calls of a serial subtree of `m` points at
/// `dst_off`, in the recursion's post-order. Leaves charge nothing.
fn replay_charges(dst_off: usize, m: usize) {
    if m > 2 {
        replay_charges(dst_off, m / 2);
        replay_charges(dst_off + m / 2, m / 2);
    }
    if m >= 2 {
        charge_node(dst_off, m);
    }
}

/// What one combine node costs the model: its output range, then `10·h`
/// flops.
#[inline]
fn charge_node(dst_off: usize, m: usize) {
    ptdf::touch(region(salt::FFT, (dst_off / 1024) as u64), (m * 16) as u64);
    charge_flops_dense((m / 2) as u64 * 10);
}

/// Naive O(n²) DFT for verification.
pub fn reference_dft(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Cpx::default();
            for (j, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j % n) as f64 / n as f64;
                acc = acc.add(x.mul(Cpx::new(ang.cos(), ang.sin())));
            }
            acc
        })
        .collect()
}

/// RMS error between two complex vectors.
pub fn rms_error(a: &[Cpx], b: &[Cpx]) -> f64 {
    let sum: f64 = a.iter().zip(b).map(|(x, y)| x.sub(*y).abs().powi(2)).sum();
    (sum / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn matches_naive_dft() {
        let p = Params {
            log2n: 8,
            threads: 1,
            seed: 1,
        };
        let x = gen_input(&p);
        let got = fft(&x, &p);
        let want = reference_dft(&x);
        assert!(rms_error(&got, &want) < 1e-9);
    }

    fn bits(v: &[Cpx]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    #[test]
    fn thread_budget_does_not_change_result() {
        for log2n in [0, 1, 2, 3, 11, 14] {
            let p1 = Params {
                log2n,
                threads: 1,
                seed: 2,
            };
            let x = gen_input(&p1);
            let serial = bits(&fft(&x, &p1));
            for threads in [1, 2, 3, 7, 16, 256] {
                let p = Params { threads, ..p1 };
                assert!(
                    bits(&fft(&x, &p)) == serial,
                    "standalone log2n={log2n} threads={threads}"
                );
                let (out, _) = ptdf::run(Config::new(4, SchedKind::Df), {
                    let x = x.clone();
                    move || fft(&x, &p)
                });
                assert!(bits(&out) == serial, "DF log2n={log2n} threads={threads}");
            }
        }
    }

    #[test]
    fn parseval_energy_conserved() {
        let p = Params {
            log2n: 10,
            threads: 4,
            seed: 3,
        };
        let x = gen_input(&p);
        let y = fft(&x, &p);
        let ex: f64 = x.iter().map(|c| c.abs().powi(2)).sum();
        let ey: f64 = y.iter().map(|c| c.abs().powi(2)).sum::<f64>() / p.n() as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let p = Params {
            log2n: 6,
            threads: 2,
            seed: 0,
        };
        let mut x = vec![Cpx::default(); p.n()];
        x[0] = Cpx::new(1.0, 0.0);
        let y = fft(&x, &p);
        for c in y {
            assert!((c.re - 1.0).abs() < 1e-12 && c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn thread_count_matches_budget_under_runtime() {
        let p = Params {
            log2n: 12,
            threads: 8,
            seed: 4,
        };
        let x = gen_input(&p);
        let (_, report) = ptdf::run(Config::new(4, SchedKind::Df), move || fft(&x, &p));
        // Budget 8 → 8 leaves → 14 forked threads (binary tree interior
        // forks 2 each: 2+4+8 = 14) + root.
        assert_eq!(report.total_threads, 15);
    }
}
