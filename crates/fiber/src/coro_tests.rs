//! Backend-agnostic coroutine tests: run against whichever backend is
//! selected (assembly on x86_64, OS threads elsewhere or with
//! `--features thread-backend`).

use crate::{Coroutine, Step};
use std::panic::{catch_unwind, AssertUnwindSafe};

mod inner {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn basic_yield_and_complete() {
        let mut co = Coroutine::<i32, i32, i32>::new(16 * 1024, |y, mut v| {
            for _ in 0..3 {
                v = y.suspend(v * 2);
            }
            v + 100
        });
        assert_eq!(co.resume(1), Step::Yield(2));
        assert_eq!(co.resume(2), Step::Yield(4));
        assert_eq!(co.resume(3), Step::Yield(6));
        assert_eq!(co.resume(4), Step::Complete(104));
        assert!(co.is_done());
    }

    #[test]
    fn immediate_complete() {
        let mut co = Coroutine::<(), (), u64>::new(16 * 1024, |_, ()| 42);
        assert_eq!(co.resume(()), Step::Complete(42));
    }

    #[test]
    fn deep_recursion_on_fiber_stack() {
        fn fib(n: u64) -> u64 {
            if n < 2 {
                n
            } else {
                fib(n - 1) + fib(n - 2)
            }
        }
        let mut co = Coroutine::<(), (), u64>::new(64 * 1024, |y, ()| {
            let a = fib(20);
            y.suspend(());
            a + fib(10)
        });
        assert_eq!(co.resume(()), Step::Yield(()));
        assert_eq!(co.resume(()), Step::Complete(6765 + 55));
        co.stack().check_canary().unwrap();
    }

    #[test]
    fn panic_propagates_to_resumer() {
        // Note the generous stack: the panic hook (message formatting,
        // backtrace capture in debug builds) runs on the fiber's own stack.
        let mut co = Coroutine::<(), (), ()>::new(256 * 1024, |_, ()| {
            panic!("boom from fiber");
        });
        let err = catch_unwind(AssertUnwindSafe(|| co.resume(()))).unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom from fiber");
        assert!(co.is_done());
    }

    #[test]
    fn drop_of_fresh_coroutine_releases_closure() {
        let flag = Rc::new(RefCell::new(false));
        let f2 = flag.clone();
        let co = Coroutine::<(), (), ()>::new(16 * 1024, move |_, ()| {
            *f2.borrow_mut() = true;
        });
        drop(co);
        assert!(!*flag.borrow(), "body must not run");
        assert_eq!(Rc::strong_count(&flag), 1, "captured state must be freed");
    }

    #[test]
    fn drop_of_suspended_coroutine_runs_destructors() {
        struct Tracker(Rc<RefCell<u32>>);
        impl Drop for Tracker {
            fn drop(&mut self) {
                *self.0.borrow_mut() += 1;
            }
        }
        let count = Rc::new(RefCell::new(0));
        let c2 = count.clone();
        let mut co = Coroutine::<(), (), ()>::new(16 * 1024, move |y, ()| {
            let _t = Tracker(c2);
            y.suspend(());
            y.suspend(()); // never reached
        });
        assert_eq!(co.resume(()), Step::Yield(()));
        drop(co);
        assert_eq!(*count.borrow(), 1, "live frame destructor must run");
    }

    #[test]
    fn many_coroutines_interleaved() {
        let n = 100;
        let mut cos: Vec<_> = (0..n)
            .map(|i| {
                Coroutine::<u64, u64, u64>::new(8 * 1024, move |y, mut acc| {
                    for round in 0..5u64 {
                        acc = y.suspend(acc + i + round);
                    }
                    acc
                })
            })
            .collect();
        let mut vals = vec![0u64; n as usize];
        for round in 0..5 {
            for (i, co) in cos.iter_mut().enumerate() {
                vals[i] = co.resume(vals[i]).unwrap_yield();
                assert_eq!(vals[i], i as u64 + round);
                vals[i] = 0;
            }
        }
        for co in cos.iter_mut() {
            assert_eq!(co.resume(7), Step::Complete(7));
        }
    }

    #[test]
    fn float_state_preserved_across_switch() {
        let mut co = Coroutine::<f64, f64, f64>::new(16 * 1024, |y, x| {
            let a = x * 1.5 + 0.25;
            let b = y.suspend(a);
            (a + b).sqrt()
        });
        let a = co.resume(2.0).unwrap_yield();
        assert_eq!(a, 3.25);
        let r = co.resume(1.0 / 3.0).unwrap_complete();
        assert!((r - (3.25 + 1.0 / 3.0f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "completed coroutine")]
    fn resume_after_complete_panics() {
        let mut co = Coroutine::<(), (), ()>::new(16 * 1024, |_, ()| ());
        co.resume(()).unwrap_complete();
        co.resume(());
    }

    /// Counts its drops in the shared cell.
    struct Counted(Rc<std::cell::Cell<u32>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    type Co = Coroutine<(), (), usize>;

    /// A name and a way to bring a coroutine to its end.
    type Ending = (&'static str, fn(Co));

    /// Each way a coroutine can end drops its body's captures exactly once.
    fn each_ending_drops_the_body_once(make: impl Fn(Counted) -> Co) {
        let endings: [Ending; 4] = [
            ("dropped before it ran", drop),
            ("into_stack before it ran", |co| drop(co.into_stack())),
            ("run to completion", |mut co| {
                co.resume(()).unwrap_yield();
                assert!(matches!(co.resume(()), Step::Complete(_)));
            }),
            ("force-unwound while suspended", |mut co| {
                co.resume(()).unwrap_yield();
                drop(co);
            }),
        ];
        for (what, end) in endings {
            let drops = Rc::new(std::cell::Cell::new(0));
            end(make(Counted(drops.clone())));
            assert_eq!(drops.get(), 1, "{what}");
        }
    }

    #[test]
    fn a_small_body_is_dropped_exactly_once_however_the_coroutine_ends() {
        each_ending_drops_the_body_once(|counted| {
            Co::new(16 * 1024, move |y, ()| {
                let _counted = counted;
                y.suspend(());
                1
            })
        });
    }

    #[test]
    fn a_body_too_large_for_the_stack_top_is_dropped_exactly_once_too() {
        each_ending_drops_the_body_once(|counted| {
            let big = [1u8; 4096];
            Co::new(16 * 1024, move |y, ()| {
                let _counted = counted;
                y.suspend(());
                big.iter().map(|&b| usize::from(b)).sum()
            })
        });
    }

    #[test]
    fn two_coroutines_run_in_turn_on_one_recycled_stack() {
        let stack = crate::Stack::new(16 * 1024);
        let top = stack.top();
        let mut first = Coroutine::<u32, u32, u32>::with_stack(stack, |y, x| y.suspend(x + 1) * 2);
        assert_eq!(first.resume(1), Step::Yield(2));
        assert_eq!(first.resume(5), Step::Complete(10));
        // The portable backend has no stack to give back.
        let stack = first
            .into_stack()
            .unwrap_or_else(|| crate::Stack::new(16 * 1024));
        let big = [3u8; 4096];
        let mut second = Co::with_stack(stack, move |y, ()| {
            y.suspend(());
            big.iter().map(|&b| usize::from(b)).sum()
        });
        if crate::HAS_REAL_STACKS {
            assert_eq!(second.stack().top(), top, "the same stack");
        }
        second.resume(()).unwrap_yield();
        assert_eq!(second.resume(()), Step::Complete(3 * 4096));
        second.stack().check_canary().unwrap();
    }

    #[test]
    fn nested_coroutines() {
        let mut outer = Coroutine::<(), u32, u32>::new(32 * 1024, |y, ()| {
            let mut inner = Coroutine::<(), u32, u32>::new(16 * 1024, |yi, ()| {
                yi.suspend(10);
                20
            });
            let ten = inner.resume(()).unwrap_yield();
            y.suspend(ten);
            inner.resume(()).unwrap_complete()
        });
        assert_eq!(outer.resume(()), Step::Yield(10));
        assert_eq!(outer.resume(()), Step::Complete(20));
    }
}
