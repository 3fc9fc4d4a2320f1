//! Host heap of matmul: the model charges both input copies and every
//! level's temporary `T`, but the host holds only the output `C`. Own
//! binary for the counting `#[global_allocator]` (the pattern of `ptdf`'s
//! `tests/leak.rs`), which counts per thread: a standalone and a serial
//! multiply run on the calling thread, and libtest runs tests side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ptdf::CostModel;
use ptdf_apps::matmul::{gen_input, multiply, Params};

struct Counting;

thread_local! {
    /// Live bytes of this thread, and their high-water mark since the last
    /// [`peak_heap`] began. Const-initialised and without a destructor, so
    /// reading them inside the allocator neither allocates nor fails during
    /// thread teardown.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    let live = LIVE.get() + by;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

// SAFETY: defers every request to `System` unchanged; the counters are
// statistics and touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most heap bytes `f` held at once on this thread, above what was live
/// when it began.
fn peak_heap(f: impl FnOnce()) -> isize {
    let before = LIVE.get();
    PEAK.set(before);
    f();
    PEAK.get() - before
}

/// At n = 256 the output is 512 KiB. Two input copies, `C` and one `T` per
/// level were about 4.3 times that. What may lie above `C` is an add leaf's
/// packed strip of `B` (16 KiB here), the join handles, and what the serial
/// machine's locality model grows while it runs.
#[test]
fn multiply_holds_the_output_and_no_temporary() {
    let p = Params {
        n: 256,
        base: 32,
        seed: 9,
    };
    let (a, b) = gen_input(&p);
    let bound = (p.n * p.n * 8 + 64 * 1024) as isize;
    let standalone = peak_heap(|| drop(multiply(&a, &b, &p)));
    let (serial, _) = ptdf::run_serial(CostModel::ultrasparc_167(), || {
        peak_heap(|| drop(multiply(&a, &b, &p)))
    });
    assert!(
        standalone <= bound && serial <= bound,
        "multiply held {standalone} B of heap at once standalone and {serial} B under \
         run_serial, bound {bound} B"
    );
}
