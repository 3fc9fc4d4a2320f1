//! Fiber stack allocation.
//!
//! Stacks are plain heap allocations (16-byte aligned as required by the
//! System V AMD64 ABI) with a canary region written at the low end. We do not
//! use `mmap` guard pages to keep the crate dependency-free and portable; the
//! canary gives best-effort overflow detection instead, mirroring what the
//! Solaris library offered for its cached thread stacks (a red zone page).

use std::alloc::{alloc, dealloc, Layout};
use std::fmt;
use std::ptr::NonNull;

/// Default stack size for a fiber when the caller does not specify one.
///
/// Note: in the SC'98 reproduction the *accounted* stack size of a simulated
/// Pthread (1 MB vs 8 KB, the paper's §4 item 3) is tracked separately by the
/// runtime's memory model; this constant only sizes the real host stack that
/// the fiber executes on.
pub const DEFAULT_STACK_SIZE: usize = 64 * 1024;

/// Smallest stack we will allocate. Below this the trampoline frame plus any
/// realistic leaf call would overflow immediately.
pub const MIN_STACK_SIZE: usize = 4 * 1024;

const ALIGN: usize = 16;
const CANARY_LEN: usize = 64;
const CANARY_BYTE: u8 = 0xC5;

/// Error reported when a stack's canary region has been overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackOverflow {
    /// Number of canary bytes that were clobbered.
    pub clobbered: usize,
    /// Total stack size in bytes.
    pub size: usize,
}

impl fmt::Display for StackOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fiber stack overflow detected: {} canary bytes clobbered on a {}-byte stack",
            self.clobbered, self.size
        )
    }
}

impl std::error::Error for StackOverflow {}

/// A heap-allocated, 16-byte-aligned fiber stack.
pub struct Stack {
    base: NonNull<u8>,
    layout: Layout,
}

impl Stack {
    /// The actual allocation size for a requested stack size: rounded up to
    /// [`MIN_STACK_SIZE`] and to the ABI alignment. Exposed so size-classed
    /// caches can bucket requests the same way [`Stack::new`] rounds them.
    pub fn rounded_size(size: usize) -> usize {
        size.max(MIN_STACK_SIZE).next_multiple_of(ALIGN)
    }

    /// Allocates a stack of (at least) `size` bytes and arms the canary.
    ///
    /// `size` is rounded up to [`MIN_STACK_SIZE`] and to the ABI alignment.
    pub fn new(size: usize) -> Self {
        let size = Self::rounded_size(size);
        let layout = Layout::from_size_align(size, ALIGN).expect("valid stack layout");
        // SAFETY: layout has non-zero size.
        let base = unsafe { alloc(layout) };
        let base = NonNull::new(base).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        let stack = Stack { base, layout };
        // SAFETY: the canary region is inside the fresh allocation.
        unsafe {
            std::ptr::write_bytes(stack.base.as_ptr(), CANARY_BYTE, CANARY_LEN);
        }
        stack
    }

    /// Size of the stack in bytes.
    pub fn size(&self) -> usize {
        self.layout.size()
    }

    /// Highest address of the stack (exclusive); the initial stack pointer.
    /// Guaranteed 16-byte aligned.
    pub fn top(&self) -> *mut u8 {
        // SAFETY: base + size is one-past-the-end of the allocation.
        unsafe { self.base.as_ptr().add(self.layout.size()) }
    }

    /// Lowest address of the stack.
    pub fn bottom(&self) -> *mut u8 {
        self.base.as_ptr()
    }

    /// Checks the canary at the low end of the stack.
    pub fn check_canary(&self) -> Result<(), StackOverflow> {
        // SAFETY: the canary region is inside the allocation.
        let canary = unsafe { std::slice::from_raw_parts(self.base.as_ptr(), CANARY_LEN) };
        let clobbered = canary.iter().filter(|&&b| b != CANARY_BYTE).count();
        if clobbered == 0 {
            Ok(())
        } else {
            Err(StackOverflow {
                clobbered,
                size: self.size(),
            })
        }
    }

    /// Rewrites the canary pattern, re-arming overflow detection.
    ///
    /// Called when a stack is recycled through a [`StackPool`]: the previous
    /// fiber's frames are garbage now, but the canary must read as intact
    /// before the next fiber runs on it.
    ///
    /// [`StackPool`]: crate::StackPool
    pub fn rearm_canary(&mut self) {
        // SAFETY: the canary region is inside the allocation.
        unsafe {
            std::ptr::write_bytes(self.base.as_ptr(), CANARY_BYTE, CANARY_LEN);
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        debug_assert!(
            self.check_canary().is_ok(),
            "{}",
            self.check_canary().unwrap_err()
        );
        // SAFETY: base/layout came from `alloc` in `new`.
        unsafe { dealloc(self.base.as_ptr(), self.layout) }
    }
}

impl fmt::Debug for Stack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stack")
            .field("size", &self.size())
            .field("top", &self.top())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_is_aligned_and_sized() {
        let s = Stack::new(10_000);
        assert_eq!(s.top() as usize % 16, 0);
        assert!(s.size() >= 10_000);
        assert_eq!(s.size() % ALIGN, 0);
    }

    #[test]
    fn tiny_request_is_rounded_up() {
        let s = Stack::new(1);
        assert!(s.size() >= MIN_STACK_SIZE);
    }

    #[test]
    fn canary_detects_clobber() {
        let s = Stack::new(8192);
        assert!(s.check_canary().is_ok());
        // SAFETY: writing within the allocation.
        unsafe { *s.bottom().add(3) = 0 };
        let err = s.check_canary().unwrap_err();
        assert_eq!(err.clobbered, 1);
        // Restore so drop's debug assertion passes.
        unsafe { *s.bottom().add(3) = 0xC5 };
    }

    #[test]
    fn rearm_restores_a_clobbered_canary() {
        let mut s = Stack::new(8192);
        // SAFETY: writing within the allocation.
        unsafe { *s.bottom().add(7) = 0xFF };
        assert!(s.check_canary().is_err());
        s.rearm_canary();
        assert!(s.check_canary().is_ok());
    }
}
