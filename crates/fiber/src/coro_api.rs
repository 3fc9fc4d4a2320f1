//! Backend-independent coroutine API types.

/// Result of a `Coroutine::resume` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<Y, R> {
    /// The coroutine suspended via `Yielder::suspend`, producing `Y`.
    Yield(Y),
    /// The coroutine's body returned with `R`; it may not be resumed again.
    Complete(R),
}

impl<Y, R> Step<Y, R> {
    /// Unwraps the `Yield` variant, panicking on `Complete`.
    pub fn unwrap_yield(self) -> Y {
        match self {
            Step::Yield(y) => y,
            Step::Complete(_) => panic!("coroutine completed where a yield was expected"),
        }
    }

    /// Unwraps the `Complete` variant, panicking on `Yield`.
    pub fn unwrap_complete(self) -> R {
        match self {
            Step::Complete(r) => r,
            Step::Yield(_) => panic!("coroutine yielded where completion was expected"),
        }
    }
}

/// Unwind payload used to force-unwind a suspended coroutine's stack when the
/// `Coroutine` is dropped. It is raised with `resume_unwind`, so the panic
/// hook never sees it. User code must let it propagate (do not swallow it
/// inside a blanket `catch_unwind`).
#[derive(Debug)]
pub struct ForcedUnwind;
