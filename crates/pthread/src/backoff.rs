//! Seeded retry/backoff helper for the timed sync APIs.
//!
//! A [`TimedOut`](crate::TimedOut) from `lock_timeout` / `acquire_timeout`
//! is a signal to degrade gracefully, not to spin. [`Backoff`] provides the
//! standard remedy — jittered exponential delays in *virtual* time, charged
//! to the calling thread's processor — with a deterministic seeded jitter so
//! perturbed runs still replay bit-exactly.
//!
//! ```no_run
//! use ptdf::{backoff::Backoff, Config, Mutex, SchedKind, VirtTime};
//! let (got, _) = ptdf::run(Config::new(2, SchedKind::Df), || {
//!     let m = Mutex::new(0u32);
//!     let mut b = Backoff::new(42);
//!     b.retry(8, || m.lock_timeout(VirtTime::from_us(50)).map(|mut g| *g += 1))
//!         .is_ok()
//! });
//! assert!(got);
//! ```

use crate::api::par_ctx;
use crate::runtime::with_active;
use crate::runtime::ActiveCtx;
use ptdf_smp::{Prng, VirtTime};

/// Jittered exponential backoff in virtual time.
///
/// Each [`pause`](Backoff::pause) sleeps the calling thread's virtual
/// processor for a uniformly jittered slice of an exponentially growing
/// window (`BASE · 2^attempt`, capped at `CAP`: 10 µs, then 20 µs, … up to
/// 1 ms). The jitter comes from a [`Prng`] seeded by the caller, so a given
/// seed always produces the same delay sequence.
#[derive(Debug)]
pub struct Backoff {
    attempt: u32,
    prng: Prng,
}

/// First-window width.
const BASE: VirtTime = VirtTime::from_us(10);
/// Window cap.
const CAP: VirtTime = VirtTime::from_ms(1);

impl Backoff {
    /// A backoff whose jitter is seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Backoff {
            attempt: 0,
            prng: Prng::new(seed ^ 0xBAC0_FF5E_ED00_0001),
        }
    }

    /// Number of [`pause`](Backoff::pause)s taken so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Resets the window to its first width (call after a success).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Sleeps the current virtual processor for the next jittered window
    /// slice and returns the delay charged. Outside a run this only advances
    /// the internal sequence.
    pub fn pause(&mut self) -> VirtTime {
        let window = BASE
            .as_ns()
            .saturating_mul(1u64 << self.attempt.min(20))
            .min(CAP.as_ns());
        self.attempt = self.attempt.saturating_add(1);
        // Uniform in [window/2, window]: always makes progress, never
        // synchronizes two same-seed threads exactly.
        let half = window / 2;
        let delay = VirtTime::from_ns(half + self.prng.below(window - half + 1));
        with_active(|ctx| match ctx {
            Some(ActiveCtx::Par(rc)) => {
                let mut inner = rc.borrow_mut();
                if let Some((_, p)) = inner.cur {
                    inner.machine.charge(p, ptdf_smp::Bucket::Sync, delay);
                }
            }
            Some(ActiveCtx::Serial(rc)) => {
                rc.borrow_mut()
                    .machine
                    .charge(0, ptdf_smp::Bucket::Sync, delay);
            }
            None => {}
        });
        if let Some(rc) = par_ctx() {
            crate::runtime::maybe_timeslice(&rc);
        }
        delay
    }

    /// Runs `op` up to `max_attempts` times, pausing between failures.
    /// Returns the first success, or the last [`TimedOut`](crate::TimedOut)
    /// once the budget is spent.
    pub fn retry<T>(
        &mut self,
        max_attempts: u32,
        mut op: impl FnMut() -> Result<T, crate::TimedOut>,
    ) -> Result<T, crate::TimedOut> {
        assert!(max_attempts >= 1, "need at least one attempt");
        for i in 0..max_attempts {
            match op() {
                Ok(v) => return Ok(v),
                Err(crate::TimedOut) if i + 1 < max_attempts => {
                    self.pause();
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop always returns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_replay_deterministically() {
        let seq = |seed| {
            let mut b = Backoff::new(seed);
            (0..10).map(|_| b.pause()).collect::<Vec<_>>()
        };
        let a = seq(7);
        assert_eq!(a, seq(7), "same seed must replay");
        assert_ne!(a, seq(8), "different seeds must differ");
        // Windows grow until the cap; every delay is at least half its
        // window and none exceeds the cap.
        assert!(a.iter().all(|d| *d <= CAP));
        assert!(a[0] >= VirtTime::from_us(5));
        assert!(a.last().unwrap().as_ns() >= CAP.as_ns() / 2);
    }

    #[test]
    fn retry_returns_first_success() {
        let mut b = Backoff::new(1);
        let mut calls = 0;
        let out = b.retry(5, || {
            calls += 1;
            if calls < 3 {
                Err(crate::TimedOut)
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        assert_eq!(b.attempts(), 2, "two pauses between three attempts");
    }

    #[test]
    fn retry_exhausts_budget() {
        let mut b = Backoff::new(1);
        let out: Result<(), _> = b.retry(3, || Err(crate::TimedOut));
        assert_eq!(out, Err(crate::TimedOut));
        assert_eq!(b.attempts(), 2, "no pause after the final failure");
    }
}
