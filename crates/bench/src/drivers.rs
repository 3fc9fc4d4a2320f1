//! Benchmark drivers: one uniform entry point per paper benchmark, used by
//! the figure registry.

use ptdf::{Config, CostModel, Report, SerialReport};
use ptdf_apps::{barnes_hut, dtree, fft, fmm, matmul, spmv, volren};

use crate::full_scale;

/// A benchmark with serial, fine-grained, and (optionally) coarse-grained
/// entry points. The closures generate their own inputs (outside the timed
/// runtime) so each invocation is independent.
pub struct AppDriver {
    /// Benchmark name (paper's Figure 8 row).
    pub name: &'static str,
    /// Paper problem-size description.
    pub problem: String,
    /// Serial baseline (the paper's "serial C version") under the given
    /// cost model.
    pub serial: Box<dyn Fn(CostModel) -> SerialReport>,
    /// Fine-grained version (many threads) under the given config.
    pub fine: Box<dyn Fn(Config) -> Report>,
    /// Coarse-grained version (one thread per processor), if the paper had
    /// one.
    pub coarse: Option<Box<dyn Fn(Config) -> Report>>,
}

/// Matmul parameters at the active scale.
pub fn matmul_params() -> matmul::Params {
    if full_scale() {
        matmul::Params::paper()
    } else {
        matmul::Params::small()
    }
}

/// The dense matrix multiply driver.
pub fn matmul_driver() -> AppDriver {
    let p = matmul_params();
    AppDriver {
        name: "Matrix Mult.",
        problem: format!("{n}x{n}", n = p.n),
        serial: Box::new(move |cost| {
            let (a, b) = matmul::gen_input(&p);
            ptdf::run_serial(cost, || matmul::multiply(&a, &b, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let (a, b) = matmul::gen_input(&p);
            ptdf::run(cfg, move || matmul::multiply(&a, &b, &p)).1
        }),
        coarse: None,
    }
}

/// The Barnes-Hut driver.
pub fn barnes_hut_driver() -> AppDriver {
    let p = if full_scale() {
        barnes_hut::Params::paper()
    } else {
        barnes_hut::Params::small()
    };
    AppDriver {
        name: "Barnes Hut",
        problem: format!("N={}, Plummer", p.n_bodies),
        serial: Box::new(move |cost| {
            let mut bodies = barnes_hut::plummer(p.n_bodies, p.seed);
            ptdf::run_serial(cost, || barnes_hut::run_fine(&mut bodies, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let mut bodies = barnes_hut::plummer(p.n_bodies, p.seed);
            ptdf::run(cfg, move || barnes_hut::run_fine(&mut bodies, &p)).1
        }),
        coarse: Some(Box::new(move |cfg| {
            let mut bodies = barnes_hut::plummer(p.n_bodies, p.seed);
            let procs = cfg.processors;
            ptdf::run(cfg, move || barnes_hut::run_coarse(&mut bodies, &p, procs)).1
        })),
    }
}

/// The FMM driver.
pub fn fmm_driver() -> AppDriver {
    let p = if full_scale() {
        fmm::Params::paper()
    } else {
        fmm::Params::small()
    };
    AppDriver {
        name: "FMM",
        problem: format!("N={}, {} terms", p.n_particles, p.terms),
        serial: Box::new(move |cost| {
            let particles = fmm::gen_particles(&p);
            ptdf::run_serial(cost, || fmm::run_fmm(&particles, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let particles = fmm::gen_particles(&p);
            ptdf::run(cfg, move || fmm::run_fmm(&particles, &p)).1
        }),
        coarse: None,
    }
}

/// The decision-tree driver.
pub fn dtree_driver() -> AppDriver {
    let p = if full_scale() {
        dtree::Params::paper()
    } else {
        dtree::Params::small()
    };
    AppDriver {
        name: "Decision Tree",
        problem: format!("{} instances", p.instances),
        serial: Box::new(move |cost| {
            let ds = dtree::gen_dataset(&p);
            ptdf::run_serial(cost, || dtree::build(&ds, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let ds = dtree::gen_dataset(&p);
            ptdf::run(cfg, move || dtree::build(&ds, &p)).1
        }),
        coarse: None,
    }
}

/// The FFT driver (fine = 256 threads; coarse = p threads).
pub fn fft_driver() -> AppDriver {
    let mk = |threads| {
        if full_scale() {
            fft::Params::paper(threads)
        } else {
            fft::Params::small(threads)
        }
    };
    AppDriver {
        name: "FFTW",
        problem: format!("N=2^{}", mk(1).log2n),
        serial: Box::new(move |cost| {
            let p = mk(1);
            let x = fft::gen_input(&p);
            ptdf::run_serial(cost, || fft::fft(&x, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let p = mk(256);
            let x = fft::gen_input(&p);
            ptdf::run(cfg, move || fft::fft(&x, &p)).1
        }),
        coarse: Some(Box::new(move |cfg| {
            let p = mk(cfg.processors);
            let x = fft::gen_input(&p);
            ptdf::run(cfg, move || fft::fft(&x, &p)).1
        })),
    }
}

/// The sparse matrix-vector driver.
pub fn spmv_driver() -> AppDriver {
    let p = if full_scale() {
        spmv::Params::paper()
    } else {
        spmv::Params::small()
    };
    AppDriver {
        name: "Sparse Matrix",
        problem: format!("{} nodes", p.nodes),
        serial: Box::new(move |cost| {
            let m = spmv::gen_matrix(&p);
            let v = spmv::gen_vector(&p);
            ptdf::run_serial(cost, || spmv::run_fine(&m, &v, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let m = spmv::gen_matrix(&p);
            let v = spmv::gen_vector(&p);
            ptdf::run(cfg, move || spmv::run_fine(&m, &v, &p)).1
        }),
        coarse: Some(Box::new(move |cfg| {
            let m = spmv::gen_matrix(&p);
            let v = spmv::gen_vector(&p);
            let procs = cfg.processors;
            ptdf::run(cfg, move || spmv::run_coarse(&m, &v, &p, procs)).1
        })),
    }
}

/// Volume-rendering parameters at the active scale.
pub(crate) fn volren_params() -> volren::Params {
    if full_scale() {
        volren::Params::paper()
    } else {
        volren::Params::small()
    }
}

/// The volume-rendering driver.
pub fn volren_driver() -> AppDriver {
    let p = volren_params();
    AppDriver {
        name: "Vol. Rend.",
        problem: format!("{s}^3 vol, {i}^2 img", s = p.size, i = p.image),
        serial: Box::new(move |cost| {
            let vol = volren::gen_volume(p.size);
            ptdf::run_serial(cost, || volren::render_fine(&vol, &p)).1
        }),
        fine: Box::new(move |cfg| {
            let vol = volren::gen_volume(p.size);
            ptdf::run(cfg, move || volren::render_fine(&vol, &p)).1
        }),
        coarse: Some(Box::new(move |cfg| {
            let vol = volren::gen_volume(p.size);
            let procs = cfg.processors;
            ptdf::run(cfg, move || volren::render_coarse(&vol, &p, procs)).1
        })),
    }
}

/// All seven benchmarks in the paper's Figure 8 order.
pub fn all_drivers() -> Vec<AppDriver> {
    vec![
        matmul_driver(),
        barnes_hut_driver(),
        fmm_driver(),
        dtree_driver(),
        fft_driver(),
        spmv_driver(),
        volren_driver(),
    ]
}
