//! Host heap of matmul: the model charges both input copies and every
//! level's temporary `T`, but the host holds only the output `C`. Own
//! binary for the counting `#[global_allocator]`, `ptdf_smp::counting`,
//! armed on the test's thread: a standalone and a serial multiply both run
//! on it.

use ptdf::CostModel;
use ptdf_apps::matmul::{gen_input, multiply, Params};
use ptdf_smp::counting::{arm, peak_during, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

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
    arm();
    let ((), standalone) = peak_during(|| drop(multiply(&a, &b, &p)));
    let (((), serial), _) = ptdf::run_serial(CostModel::ultrasparc_167(), || {
        peak_during(|| drop(multiply(&a, &b, &p)))
    });
    assert!(
        standalone <= bound && serial <= bound,
        "multiply held {standalone} B of heap at once standalone and {serial} B under \
         run_serial, bound {bound} B"
    );
}
