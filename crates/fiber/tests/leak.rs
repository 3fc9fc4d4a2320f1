//! Leak regression: a coroutine that has finished — by running to
//! completion, by being dropped before its first resume, or by being
//! force-unwound from a suspension — leaves no heap block behind.
//!
//! The final context switch of a completed fiber never returns, so anything
//! still owned by a frame beneath it is lost for good; this test pins the
//! exit protocol that makes those frames own nothing (see
//! `ptdf_fiber_entry`). It needs its own binary for the counting
//! `#[global_allocator]`, `ptdf_smp::counting`, armed on the test's thread.

use ptdf_fiber::{Coroutine, Step};
use ptdf_smp::counting::{arm, live, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

type Co = Coroutine<u32, u32, String>;

/// A body that owns heap data across its suspension and returns some.
fn coroutine() -> Co {
    let captured = "x".repeat(100);
    Coroutine::new(16 * 1024, move |y, first| {
        let held = format!("held across the switch: {first}");
        let second = y.suspend(captured.len() as u32);
        format!("{held} then {second}")
    })
}

fn completed(n: usize) {
    for _ in 0..n {
        let mut co = coroutine();
        assert_eq!(co.resume(1), Step::Yield(100));
        assert!(matches!(co.resume(2), Step::Complete(s) if s.ends_with("then 2")));
    }
}

fn dropped_unresumed(n: usize) {
    for _ in 0..n {
        drop(coroutine());
    }
}

fn dropped_suspended(n: usize) {
    for _ in 0..n {
        let mut co = coroutine();
        assert_eq!(co.resume(1), Step::Yield(100));
        drop(co); // force-unwinds the fiber's stack
    }
}

#[test]
fn finished_coroutines_leave_no_heap_blocks_behind() {
    arm();
    // Once-only allocations (the forced-unwind panic-hook filter, lazily
    // initialised runtime state) happen here, before the baseline.
    completed(2);
    dropped_unresumed(2);
    dropped_suspended(2);

    let check = |what: &str, scenario: fn(usize), n: usize| {
        let before = live();
        scenario(n);
        assert_eq!(
            live(),
            before,
            "{n} coroutines {what}: (blocks, bytes) still live"
        );
    };
    check("run to completion", completed, 10_000);
    check("dropped before the first resume", dropped_unresumed, 1_000);
    check("dropped while suspended", dropped_suspended, 1_000);
}
