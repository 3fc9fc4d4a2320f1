//! Cancellation is control flow, not a fault: delivering one, re-raising one
//! from `join`, and force-unwinding the fibers a stalled run leaves behind
//! must all start their unwind past the process's panic hook — the default
//! hook prints a `panicked at …: Box<dyn Any>` line per cancelled thread,
//! tens of thousands per server run. Own binary with one `#[test]`: the hook
//! is process-wide, and a panic in any neighbouring test would be counted.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use ptdf::{
    cancel, cancel_point, current_thread, run, scope, spawn, try_run, yield_now, Condvar, Config,
    JoinError, Mutex, SchedKind,
};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

/// A running thread meeting a latched request at a cancellation point (no
/// policy can starve the canceller: it is the thread itself).
fn cancelled_while_running() {
    cancel(current_thread().expect("inside a run"));
    cancel_point();
    unreachable!("the request is delivered at the cancellation point");
}

#[test]
fn cancellation_never_reaches_the_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Relaxed);
    }));
    for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
        let (verdicts, _) = run(Config::new(2, kind), || {
            // A blocked thread: the cancel evicts it from the condvar.
            let (cv, m) = (Condvar::new(), Mutex::new(()));
            let blocked = spawn(move || {
                let g = m.lock();
                let _g = cv.wait(g); // nobody notifies: cancel is the exit
            });
            let running = spawn(cancelled_while_running);
            // A joiner whose `join` re-raises its child's cancellation, and
            // one whose scoped `join` does.
            let rejoin = spawn(|| spawn(cancelled_while_running).join());
            let scoped = spawn(|| scope(|s| s.spawn(cancelled_while_running).join()));
            yield_now();
            assert!(blocked.cancel());
            let canceled = |r: Result<(), JoinError>| matches!(r, Err(JoinError::Canceled(_)));
            [
                canceled(blocked.try_join()),
                canceled(running.try_join()),
                canceled(rejoin.try_join()),
                canceled(scoped.try_join()),
            ]
        });
        assert_eq!(verdicts, [true; 4], "{kind:?}");
    }
    // A stall: the run ends with a thread still parked, and dropping its
    // suspended fiber force-unwinds the stack.
    let stalled = try_run(Config::new(1, SchedKind::Df), || {
        let (cv, m) = (Condvar::new(), Mutex::new(()));
        let g = m.lock();
        let _g = cv.wait(g);
    });
    assert!(stalled.is_err(), "a wait nobody ends is a stall");
    let _ = std::panic::take_hook();
    assert_eq!(HOOK_CALLS.load(Relaxed), 0, "panic hook calls");
}
