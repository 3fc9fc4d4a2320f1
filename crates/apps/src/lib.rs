//! The seven parallel benchmarks of the SC'98 paper, implemented for the
//! `ptdf` runtime.
//!
//! | Module | Paper benchmark | Input |
//! |---|---|---|
//! | [`matmul`] | Dense matrix multiply (divide & conquer, Fig. 4) | random `n×n`, `n` a power of two |
//! | [`barnes_hut`] | Barnes-Hut N-body (SPLASH-2 "Barnes") | Plummer model |
//! | [`fmm`] | Fast Multipole Method (uniform, 3-D) | uniform random particles |
//! | [`dtree`] | Decision tree builder (ID3/C4.5, continuous attrs) | synthetic classification set |
//! | [`fft`] | FFTW-style 1-D complex DFT | random complex signal |
//! | [`spmv`] | Spark98-style sparse matrix-vector product | synthetic FE-style mesh |
//! | [`volren`] | SPLASH-2 volume renderer (ray casting) | synthetic CT-head phantom |
//!
//! [`APPS`] declares the seven once, in this order: per app its key, its
//! Figure 8 label, its problem at each [`Scale`], and how to build its
//! input and run its [`Version`]s. The figures and `tests/golden/apps.tsv`
//! iterate it.
//!
//! Every benchmark follows the same conventions:
//!
//! * **One implementation, three execution modes.** The fine-grained code
//!   forks a `ptdf` thread per parallel task; run it under [`ptdf::run`] for
//!   the parallel measurement and under [`ptdf::run_serial`] for the paper's
//!   "serial C version" baseline (forks become function calls). Benchmarks
//!   the paper also measured coarse-grained (`barnes_hut`, `fft`, `spmv`,
//!   `volren`) additionally provide an SPMD-style `coarse` entry point.
//! * **Real numerics.** The code computes real results, verified against
//!   independent references in each module's tests.
//! * **Modelled costs.** Kernels report their arithmetic to the virtual
//!   machine via [`ptdf::work`], data locality via [`ptdf::touch`], and
//!   significant allocations via [`ptdf::TrackedBuf`] — see DESIGN.md.

#![warn(missing_docs)]

pub mod barnes_hut;
pub mod dtree;
pub mod fft;
pub mod fmm;
pub mod matmul;
mod registry;
pub mod spmv;
pub mod util;
pub mod volren;

pub use registry::{
    volren_params, App, Bodies, Scale, Version, APPS, BARNES_HUT, DTREE, FFT, FMM, MATMUL, SPMV,
    VOLREN,
};
