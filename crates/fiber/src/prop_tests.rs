//! Property tests: arbitrary resume/yield value sequences round-trip
//! through a coroutine unchanged, for both backends. Each property is a
//! loop over cases drawn from a seeded `ptdf_smp::Prng`, so a failure
//! names its case and replays.

use crate::{Coroutine, Step};
use ptdf_smp::Prng;

/// The coroutine echoes every input with a marker; sequencing and values
/// survive arbitrarily many switches.
#[test]
fn echo_roundtrip() {
    let mut rng = Prng::new(0xEC40);
    for case in 0..64 {
        let n = 1 + rng.below(49) as usize;
        let values: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut co = Coroutine::<u64, u64, usize>::new(32 * 1024, move |y, first| {
            let mut cur = first;
            let mut count = 0usize;
            loop {
                count += 1;
                if count == n {
                    return count;
                }
                cur = y.suspend(cur.wrapping_mul(3).wrapping_add(1));
                let _ = cur;
            }
        });
        for (i, &v) in values.iter().enumerate() {
            match co.resume(v) {
                Step::Yield(echo) => {
                    assert_eq!(echo, v.wrapping_mul(3).wrapping_add(1), "case {case}");
                    assert!(i + 1 < n, "case {case}: yielded past the end");
                }
                Step::Complete(count) => {
                    assert_eq!(count, n, "case {case}");
                    assert_eq!(i + 1, n, "case {case}");
                }
            }
        }
        assert!(co.is_done(), "case {case}");
    }
}

/// Dropping after a random number of resumes always reclaims cleanly
/// (forced unwind runs the live destructors).
#[test]
fn drop_at_any_point_is_clean() {
    use std::cell::Cell;
    use std::rc::Rc;
    struct Bomb(Rc<Cell<u32>>);
    impl Drop for Bomb {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }
    let mut rng = Prng::new(0xD209);
    for case in 0..64 {
        let stop_after = rng.below(20);
        let drops = Rc::new(Cell::new(0u32));
        let d2 = drops.clone();
        let mut co = Coroutine::<(), u32, ()>::new(32 * 1024, move |y, ()| {
            let _bomb = Bomb(d2);
            let mut i = 0;
            loop {
                y.suspend(i);
                i += 1;
            }
        });
        for _ in 0..stop_after {
            co.resume(()).unwrap_yield();
        }
        drop(co);
        let expected = u32::from(stop_after > 0); // bomb armed on first resume
        assert_eq!(
            drops.get(),
            expected,
            "case {case}: stop after {stop_after}"
        );
    }
}
