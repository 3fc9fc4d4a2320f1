//! The registry: each of the seven paper benchmarks declared once.
//!
//! An [`App`] entry knows which `Params`, which input and which body the
//! app runs at a [`Scale`]. Its [`App::build`] makes the input once,
//! outside any run, and returns the [`Bodies`]: one closure that runs the
//! fine, serial or coarse [`Version`] on that input in whatever context is
//! active (`ptdf::run`, `ptdf::run_serial` or a plain call) and returns the
//! output words `tests/golden/apps.tsv` hashes. The caller picks the scale
//! and the context; the registry names no `Config`, cost model or
//! scheduler.

use std::rc::Rc;

use crate::{barnes_hut, dtree, fft, fmm, matmul, spmv, volren};

/// The problem size an app runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The scaled-down size the tests and the quick figures use.
    Small,
    /// The paper's size.
    Paper,
}

impl Scale {
    fn pick<P>(self, small: impl FnOnce() -> P, paper: impl FnOnce() -> P) -> P {
        match self {
            Scale::Small => small(),
            Scale::Paper => paper(),
        }
    }
}

/// One of the paper's three versions of an app.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// Fine-grained: a thread per parallel task.
    Fine,
    /// The serial baseline (the paper's "serial C version"). The same call
    /// as [`Version::Fine`] except for the FFT, which asks for one thread.
    Serial,
    /// Coarse-grained, one thread per processor: `Coarse(procs)`. Only for
    /// an app whose [`App::coarse`] is set; the others panic on it.
    Coarse(usize),
}

/// An app's input, built once, and the bodies that run on it: calling it
/// runs one [`Version`] and returns its output words.
pub type Bodies = Rc<dyn Fn(Version) -> Vec<u64>>;

/// One paper benchmark.
#[derive(Clone, Copy)]
pub struct App {
    /// The short name `apps.tsv` and the benchmark use.
    pub key: &'static str,
    /// The row label of the paper's Figure 8.
    pub label: &'static str,
    /// Whether the paper also measured a coarse-grained version.
    pub coarse: bool,
    /// The problem, as Figure 8 prints it; builds no input.
    pub problem: fn(Scale) -> String,
    /// Builds the input at a scale and returns the bodies that run on it.
    pub build: fn(Scale) -> Bodies,
}

/// Every app, in the order of the paper's Figure 8.
pub const APPS: [App; 7] = [MATMUL, BARNES_HUT, FMM, DTREE, FFT, SPMV, VOLREN];

/// Dense matrix multiply.
pub const MATMUL: App = App {
    key: "matmul",
    label: "Matrix Mult.",
    coarse: false,
    problem: |s| format!("{n}x{n}", n = matmul_params(s).n),
    build: |s| {
        let p = matmul_params(s);
        let (a, b) = matmul::gen_input(&p);
        fine_only(move || bits(matmul::multiply(&a, &b, &p)))
    },
};

/// Barnes-Hut N-body.
pub const BARNES_HUT: App = App {
    key: "barnes_hut",
    label: "Barnes Hut",
    coarse: true,
    problem: |s| format!("N={}, Plummer", barnes_hut_params(s).n_bodies),
    build: |s| {
        let p = barnes_hut_params(s);
        let bodies = barnes_hut::plummer(p.n_bodies, p.seed);
        Rc::new(move |version| {
            let mut bodies = bodies.clone();
            match version {
                Version::Coarse(procs) => barnes_hut::run_coarse(&mut bodies, &p, procs),
                Version::Fine | Version::Serial => barnes_hut::run_fine(&mut bodies, &p),
            }
            bits(bodies.iter().flat_map(|b| b.pos))
        })
    },
};

/// The Fast Multipole Method.
pub const FMM: App = App {
    key: "fmm",
    label: "FMM",
    coarse: false,
    problem: |s| {
        let p = fmm_params(s);
        format!("N={}, {} terms", p.n_particles, p.terms)
    },
    build: |s| {
        let p = fmm_params(s);
        let particles = fmm::gen_particles(&p);
        fine_only(move || bits(fmm::run_fmm(&particles, &p).potential))
    },
};

/// The decision-tree builder.
pub const DTREE: App = App {
    key: "dtree",
    label: "Decision Tree",
    coarse: false,
    problem: |s| format!("{} instances", dtree_params(s).instances),
    build: |s| {
        let p = dtree_params(s);
        let ds = dtree::gen_dataset(&p);
        fine_only(move || {
            let mut words = Vec::new();
            node_words(&dtree::build(&ds, &p), &mut words);
            words
        })
    },
};

/// The FFTW-style DFT: 256 threads fine, one serially, `procs` coarse.
pub const FFT: App = App {
    key: "fft",
    label: "FFTW",
    coarse: true,
    problem: |s| format!("N=2^{}", fft_params(s).log2n),
    build: |s| {
        let p = fft_params(s);
        let x = fft::gen_input(&p);
        Rc::new(move |version| {
            let threads = match version {
                Version::Fine => 256,
                Version::Serial => 1,
                Version::Coarse(procs) => procs,
            };
            let y = fft::fft(&x, &fft::Params { threads, ..p });
            bits(y.iter().flat_map(|c| [c.re, c.im]))
        })
    },
};

/// Sparse matrix-vector product.
pub const SPMV: App = App {
    key: "spmv",
    label: "Sparse Matrix",
    coarse: true,
    problem: |s| format!("{} nodes", spmv_params(s).nodes),
    build: |s| {
        let p = spmv_params(s);
        let (m, v) = (spmv::gen_matrix(&p), spmv::gen_vector(&p));
        Rc::new(move |version| {
            bits(match version {
                Version::Coarse(procs) => spmv::run_coarse(&m, &v, &p, procs),
                Version::Fine | Version::Serial => spmv::run_fine(&m, &v, &p),
            })
        })
    },
};

/// Volume rendering; the output is the image.
pub const VOLREN: App = App {
    key: "volren",
    label: "Vol. Rend.",
    coarse: true,
    problem: |s| {
        let p = volren_params(s);
        format!("{}^3 vol, {}^2 img", p.size, p.image)
    },
    build: |s| {
        let p = volren_params(s);
        let vol = volren::gen_volume(p.size);
        Rc::new(move |version| {
            let image = match version {
                Version::Coarse(procs) => volren::render_coarse(&vol, &p, procs),
                Version::Fine | Version::Serial => volren::render_fine(&vol, &p),
            };
            image.iter().map(|v| v.to_bits() as u64).collect()
        })
    },
};

/// The bodies of an app with no coarse version (its [`App::coarse`] is
/// unset): one body for fine and serial, and a panic on
/// [`Version::Coarse`], so no table reports a fine run as coarse.
fn fine_only(body: impl Fn() -> Vec<u64> + 'static) -> Bodies {
    Rc::new(move |version| {
        assert!(
            !matches!(version, Version::Coarse(_)),
            "this app has no coarse version"
        );
        body()
    })
}

fn matmul_params(s: Scale) -> matmul::Params {
    s.pick(matmul::Params::small, matmul::Params::paper)
}

fn barnes_hut_params(s: Scale) -> barnes_hut::Params {
    s.pick(barnes_hut::Params::small, barnes_hut::Params::paper)
}

fn fmm_params(s: Scale) -> fmm::Params {
    s.pick(fmm::Params::small, fmm::Params::paper)
}

fn dtree_params(s: Scale) -> dtree::Params {
    s.pick(dtree::Params::small, dtree::Params::paper)
}

/// FFT parameters with one thread; each body sets its own count.
fn fft_params(s: Scale) -> fft::Params {
    s.pick(|| fft::Params::small(1), || fft::Params::paper(1))
}

fn spmv_params(s: Scale) -> spmv::Params {
    s.pick(spmv::Params::small, spmv::Params::paper)
}

/// Volume-rendering parameters at a scale: [`VOLREN`]'s, and the base the
/// granularity sweep (Figure 11) varies `tiles_per_thread` from.
pub fn volren_params(s: Scale) -> volren::Params {
    s.pick(volren::Params::small, volren::Params::paper)
}

fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
    v.into_iter().map(f64::to_bits).collect()
}

/// A tree in preorder: a leaf as `[0, label, count]`, a split as `[1,
/// attr, threshold bits]` followed by its left and right subtrees.
fn node_words(node: &dtree::Node, out: &mut Vec<u64>) {
    match node {
        dtree::Node::Leaf { label, count } => out.extend([0, *label as u64, *count as u64]),
        dtree::Node::Split {
            attr,
            threshold,
            left,
            right,
        } => {
            out.extend([1, *attr as u64, threshold.to_bits() as u64]);
            node_words(left, out);
            node_words(right, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// An app without a coarse version refuses one before running, so
    /// `App::coarse` and the bodies cannot disagree silently.
    #[test]
    fn apps_without_a_coarse_version_refuse_one() {
        for app in APPS.iter().filter(|app| !app.coarse) {
            let bodies = (app.build)(Scale::Small);
            let refused = catch_unwind(AssertUnwindSafe(|| bodies(Version::Coarse(4))));
            assert!(refused.is_err(), "{} ran a coarse version", app.key);
        }
    }
}
