//! Architecture-specific context switching.
//!
//! Only `x86_64` (System V AMD64 ABI) is supported. The switch routine saves
//! the callee-saved general-purpose registers plus the SSE/x87 control words
//! on the *current* stack, stores the resulting stack pointer through `save`,
//! loads `restore` as the new stack pointer, and unwinds the mirror-image
//! frame. All other registers are caller-saved under the ABI, so a plain
//! `extern "C"` call boundary is sufficient to make this correct.

use std::ffi::c_void;

extern "C" {
    /// Saves the current execution context (pushing callee-saved state on the
    /// current stack), writes the suspended stack pointer to `*save`, and
    /// resumes the context whose suspended stack pointer is `restore`.
    ///
    /// # Safety
    /// `restore` must be a stack pointer previously produced by this function
    /// or by [`init_stack`], and the stack it points into must be live.
    pub fn ptdf_raw_switch(save: *mut *mut c_void, restore: *mut c_void);
}

extern "C" {
    fn ptdf_trampoline();
}

/// The Rust-side entry invoked (exactly once per fiber) by the assembly
/// trampoline. `data` is the raw pointer that [`init_stack`] stashed in the
/// initial frame's `r12` slot: an [`EntryThunk`] that starts the record
/// `coro.rs` keeps at the top of the fiber's stack.
///
/// The function pointer indirection keeps this module monomorphic; generic
/// dispatch happens in `coro.rs`.
///
/// Exit protocol: the final switch back to the resumer never returns, so
/// nothing owned by a frame below it is ever dropped. `run` therefore
/// *returns* once the body is done — dropping the body closure on the way
/// out — and this function, which owns nothing, performs the switch.
#[no_mangle]
extern "C" fn ptdf_fiber_entry(data: *mut c_void) -> ! {
    // SAFETY: `data` is the `EntryThunk` pointer installed by `init_stack`,
    // inside the record at the top of this stack, which outlives the fiber.
    let run = unsafe { (*data.cast::<EntryThunk>()).run };
    let exit = run(data);
    // SAFETY: `run`'s contract — `save` is a writable slot that outlives
    // this (dead) context and `restore` is the resumer's suspended context.
    unsafe { ptdf_raw_switch(exit.save, exit.restore) };
    // Control never comes back; reaching here means a completed fiber was
    // switched into again, which is a runtime bug.
    std::process::abort();
}

/// The final switch of a completed fiber, handed from `run` to
/// [`ptdf_fiber_entry`]: the arguments of the last [`ptdf_raw_switch`].
pub struct FiberExit {
    /// Where to store the dead fiber context's stack pointer.
    pub save: *mut *mut c_void,
    /// The resumer's suspended stack pointer.
    pub restore: *mut c_void,
}

/// Type-erased fiber entry, the first member of the record `coro.rs` writes
/// at the top of the fiber's stack: `run(record)` executes the fiber body,
/// drops it, and returns the switch that hands control back to the resumer.
#[repr(C)]
pub struct EntryThunk {
    /// Monomorphic dispatcher provided by `coro.rs`; called with the
    /// thunk's own address, which is the record's.
    pub run: fn(*mut c_void) -> FiberExit,
}

// Initial mxcsr (all exceptions masked, round-to-nearest) and x87 control
// word (64-bit precision, all exceptions masked) — the Rust/C defaults.
const INIT_MXCSR: u32 = 0x1F80;
const INIT_FCW: u16 = 0x037F;

/// Writes the bootstrap frame for a new fiber below `stack_top` (16-byte
/// aligned: where the record at the top of the stack begins) and returns the
/// suspended stack pointer to pass to [`ptdf_raw_switch`] for the first
/// resume.
///
/// Frame layout (descending addresses from `stack_top`):
/// ```text
/// top-8   : 0                   — fake return address (stops unwinders)
/// top-16  : ptdf_trampoline     — `ret` target of the restore path
/// top-24  : rbp = 0
/// top-32  : rbx = 0
/// top-40  : r12 = thunk pointer — trampoline moves this into rdi
/// top-48  : r13 = 0
/// top-56  : r14 = 0
/// top-64  : r15 = 0
/// top-72  : [mxcsr:u32][fcw:u16][pad:u16]
/// ```
/// The restore path of `ptdf_raw_switch` loads the FP control words, pops the
/// six GPRs and `ret`s into the trampoline with `rsp % 16 == 8`, exactly as
/// if the trampoline had been `call`ed.
///
/// # Safety
/// `stack_top` must be a 16-byte-aligned address inside a live stack with
/// room for the frame below it (and any leaf call after it); `thunk` must
/// point to an [`EntryThunk`] that stays valid until `ptdf_fiber_entry` has
/// called it.
pub unsafe fn init_stack(stack_top: *mut u8, thunk: *mut EntryThunk) -> *mut c_void {
    debug_assert_eq!(stack_top as usize % 16, 0);
    let top = stack_top as *mut u64;
    let word = |i: usize| top.sub(i); // top-8*i
    word(1).write(0); // fake return address
    word(2).write(ptdf_trampoline as *const () as usize as u64);
    word(3).write(0); // rbp
    word(4).write(0); // rbx
    word(5).write(thunk as u64); // r12
    word(6).write(0); // r13
    word(7).write(0); // r14
    word(8).write(0); // r15
    let fpw: u64 = (INIT_MXCSR as u64) | ((INIT_FCW as u64) << 32);
    word(9).write(fpw);
    word(9) as *mut c_void
}

std::arch::global_asm!(
    // ptdf_raw_switch(save: *mut *mut c_void /* rdi */, restore: *mut c_void /* rsi */)
    ".text",
    ".balign 16",
    ".globl ptdf_raw_switch",
    ".type ptdf_raw_switch,@function",
    "ptdf_raw_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp", // publish suspended SP
    "mov rsp, rsi",   // adopt peer's suspended SP
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size ptdf_raw_switch, . - ptdf_raw_switch",
    // First-resume target: forward the thunk pointer (parked in r12 by
    // init_stack) to ptdf_fiber_entry on a 16-byte aligned stack.
    ".balign 16",
    ".globl ptdf_trampoline",
    ".type ptdf_trampoline,@function",
    "ptdf_trampoline:",
    "mov rdi, r12",
    "xor ebp, ebp", // terminate the frame-pointer chain for unwinders
    "and rsp, -16",
    "call ptdf_fiber_entry",
    "ud2",
    ".size ptdf_trampoline, . - ptdf_trampoline",
);
