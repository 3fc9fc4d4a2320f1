//! Shared helpers for the benchmarks.

/// Modelled cycles per floating-point operation for tuned dense kernels on
/// the 167 MHz UltraSPARC (calibrated so the serial 1024³ matrix multiply
/// lands near the paper's 17.6 s).
pub const CYCLES_PER_FLOP_DENSE: f64 = 1.3;

/// Modelled cycles per flop for irregular, pointer-chasing code (tree
/// walks, sparse ops): poorer pipeline utilization.
pub const CYCLES_PER_FLOP_IRREGULAR: f64 = 3.0;

/// Charges `flops` floating-point operations of dense-kernel work.
#[inline]
pub fn charge_flops_dense(flops: u64) {
    ptdf::work((flops as f64 * CYCLES_PER_FLOP_DENSE) as u64);
}

/// Charges `flops` of irregular work.
#[inline]
pub fn charge_flops_irregular(flops: u64) {
    ptdf::work((flops as f64 * CYCLES_PER_FLOP_IRREGULAR) as u64);
}

/// Builds a locality-region id in an application namespace: `salt`
/// distinguishes applications / data structures, `id` the block within it.
#[inline]
pub fn region(salt: u64, id: u64) -> u64 {
    (salt << 40) | (id & ((1 << 40) - 1))
}

/// Region namespaces (one per benchmark data structure). A region id
/// reaches the cache model, so a value is never renumbered.
pub mod salt {
    /// Matmul A matrix blocks.
    pub const MATMUL_A: u64 = 1;
    /// Matmul B matrix blocks.
    pub const MATMUL_B: u64 = 2;
    /// Matmul C/T output blocks.
    pub const MATMUL_C: u64 = 3;
    /// Barnes-Hut body chunks.
    pub const BH_BODIES: u64 = 5;
    /// FMM cell expansions.
    pub const FMM_CELLS: u64 = 6;
    /// FFT signal chunks.
    pub const FFT: u64 = 7;
    /// Sparse matrix row blocks.
    pub const SPMV: u64 = 8;
    /// Volume data macro-blocks.
    pub const VOLREN: u64 = 9;
    /// Decision-tree instance blocks.
    pub const DTREE: u64 = 10;
}

/// A `Copy`able raw view of a mutable buffer shared between forked threads
/// that write **disjoint** regions (the standard idiom of the paper's C
/// benchmarks, where child threads receive pointers into shared arrays).
///
/// # Safety contract
/// Constructors are safe; the unsafe surface is [`SharedBuf::get`] /
/// [`SharedBuf::set`] / [`SharedBuf::slice`] / [`SharedBuf::slice_mut`],
/// whose callers must guarantee that concurrently-live threads never write
/// overlapping indices and never read an index another live thread writes.
/// The benchmarks uphold this structurally (quadrant/half decompositions),
/// and their results are verified against serial references in tests.
#[derive(Debug)]
pub struct SharedBuf<T> {
    ptr: *mut T,
    len: usize,
}

impl<T> Clone for SharedBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedBuf<T> {}

impl<T: Copy> SharedBuf<T> {
    /// Creates a view over `data`. The caller keeps ownership; the view must
    /// not outlive the buffer (guaranteed by join-before-drop discipline).
    pub fn new(data: &mut [T]) -> Self {
        SharedBuf {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// Length of the underlying buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// `i < len`, and no concurrently-live thread writes index `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Writes element `i`.
    ///
    /// # Safety
    /// `i < len`, and this thread has exclusive access to index `i`.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }

    /// Borrows `[start, start + len)` as a shared slice, so a kernel can
    /// run a contiguous row with ordinary (vectorizable) slice code instead
    /// of one `get` per element.
    ///
    /// # Safety
    /// The range is in bounds, and no concurrently-live thread writes any
    /// index in it for the lifetime of the borrow.
    #[inline]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }

    /// Borrows `[start, start + len)` as an exclusive slice.
    ///
    /// # Safety
    /// The range is in bounds, this thread has exclusive access to every
    /// index in it for the lifetime of the borrow, and the range does not
    /// overlap any slice simultaneously borrowed via [`SharedBuf::slice`]
    /// (distinct underlying buffers satisfy this trivially).
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// A `Copy`able raw view of a **read-only** buffer shared between forked
/// threads: [`SharedBuf`] without a setter, built from `&[T]`, for data
/// that every thread reads and none writes (an input, a precomputed table)
/// and that therefore needs neither a copy nor a `&mut`.
///
/// # Safety contract
/// Constructing a view is safe; its readers must guarantee that the view
/// does not outlive the buffer (join-before-drop) and that nothing writes
/// the buffer while the view is in use.
#[derive(Debug)]
pub struct SharedView<T> {
    ptr: *const T,
    len: usize,
}

impl<T> Clone for SharedView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedView<T> {}

impl<T: Copy> SharedView<T> {
    /// Creates a view over `data` (caller keeps ownership; join-before-drop).
    pub fn new(data: &[T]) -> Self {
        SharedView {
            ptr: data.as_ptr(),
            len: data.len(),
        }
    }

    /// Reads element `i`.
    ///
    /// # Safety
    /// `i < len`, and the buffer is alive and unwritten.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Borrows `[start, start + len)`.
    ///
    /// # Safety
    /// The range is in bounds, and the buffer is alive and unwritten for the
    /// lifetime of the borrow.
    #[inline]
    pub unsafe fn slice(&self, start: usize, len: usize) -> &[T] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }
}

/// Forks one thread per task index in `[lo, hi)` as a **binary tree** (the
/// paper's pattern: "the Pthreads interface allows only a binary fork, so
/// these threads are forked as a binary tree"), so thread-creation cost is
/// spread across processors instead of serializing on the forking thread.
/// Each created thread ends up running exactly one `f(i)`. All threads are
/// joined before the call returns.
pub fn fork_each<F: Fn(usize) + Copy>(lo: usize, hi: usize, f: F) {
    if hi <= lo {
        return;
    }
    if hi - lo == 1 {
        f(lo);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    ptdf::scope(|s| {
        s.spawn(move || fork_each(lo, mid, f));
        fork_each(mid, hi, f);
    });
}

/// Deterministic splitmix64 (for cheap in-module seeding).
pub use ptdf_smp::splitmix64;

/// Uniform f64 in [0,1) from splitmix64.
#[inline]
pub fn uniform01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_namespaces_do_not_collide() {
        assert_ne!(region(salt::MATMUL_A, 5), region(salt::MATMUL_B, 5));
        assert_ne!(region(salt::MATMUL_A, 5), region(salt::MATMUL_A, 6));
    }

    #[test]
    fn shared_buf_writes_the_buffer_in_place() {
        let mut data = vec![0.0f64; 8];
        let s = SharedBuf::new(&mut data);
        assert_eq!((s.len(), s.is_empty()), (8, false));
        // SAFETY: `data` outlives the view and this thread is its only
        // user; every index and range is in bounds, and no two borrows
        // overlap in time.
        unsafe {
            s.set(3, 1.5);
            assert_eq!(s.get(3), 1.5);
            s.slice_mut(4, 3).copy_from_slice(&[4.0, 5.0, 6.0]);
            assert_eq!(s.slice(3, 4), &[1.5, 4.0, 5.0, 6.0]);
        }
        assert_eq!(data, [0.0, 0.0, 0.0, 1.5, 4.0, 5.0, 6.0, 0.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "i < self.len")]
    fn shared_buf_get_out_of_range_trips_the_bounds_check() {
        let mut data = [0.0f64; 4];
        let s = SharedBuf::new(&mut data);
        // SAFETY: deliberately not upheld: index 4 is one past the end,
        // and the bounds `debug_assert` panics before the read.
        unsafe { s.get(4) };
    }

    #[test]
    fn shared_view_reads_the_buffer_in_place() {
        let data = [1u32, 2, 3, 4];
        let v = SharedView::new(&data);
        // SAFETY: `data` outlives the view and is never written; every
        // index and range is in bounds.
        unsafe {
            assert_eq!(v.get(2), 3);
            assert_eq!(v.slice(1, 2), &[2, 3]);
            assert_eq!(v.slice(0, 4).as_ptr(), data.as_ptr());
        }
    }

    #[test]
    fn fork_each_visits_every_index_exactly_once() {
        use std::cell::RefCell;
        let visited = RefCell::new(vec![0u32; 37]);
        fork_each(0, 37, |i| {
            visited.borrow_mut()[i] += 1;
        });
        assert!(visited.borrow().iter().all(|&c| c == 1));
        // Empty and single ranges.
        fork_each(5, 5, |_| panic!("empty range must not call"));
        let one = RefCell::new(0);
        fork_each(9, 10, |i| {
            assert_eq!(i, 9);
            *one.borrow_mut() += 1;
        });
        assert_eq!(*one.borrow(), 1);
    }

    #[test]
    fn fork_each_under_runtime_creates_count_minus_one_threads() {
        let (_, report) = ptdf::run(ptdf::Config::new(4, ptdf::SchedKind::Df), || {
            fork_each(0, 16, |_| ptdf::work(1000));
        });
        // 15 forked threads + the root.
        assert_eq!(report.total_threads, 16);
    }

    #[test]
    fn splitmix_deterministic_and_uniformish() {
        let mut s1 = 7u64;
        let mut s2 = 7u64;
        assert_eq!(splitmix64(&mut s1), splitmix64(&mut s2));
        let mut s = 42u64;
        let mean: f64 = (0..10_000).map(|_| uniform01(&mut s)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
