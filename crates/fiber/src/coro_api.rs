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

/// Panic payload used to force-unwind a suspended coroutine's stack when the
/// `Coroutine` is dropped. User code must let this propagate (do not
/// swallow it inside a blanket `catch_unwind`).
#[derive(Debug)]
pub struct ForcedUnwind;

/// Installs (once) a panic hook that suppresses [`ForcedUnwind`] payloads
/// and forwards everything else to the previously installed hook.
pub(crate) fn install_forced_unwind_filter() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ForcedUnwind>().is_none() {
                previous(info);
            }
        }));
    });
}
