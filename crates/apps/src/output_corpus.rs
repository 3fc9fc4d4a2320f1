//! What a kernel change may not move: the output *bits* of the seven apps.
//!
//! Each app's tests compare against a serial reference with a tolerance
//! (or exactly, where the output is discrete); that lets a faster kernel
//! drift by a rounding step unnoticed. This corpus pins the FNV-1a-64 of
//! every output word at the apps' test sizes (`Params::small()`), run
//! standalone and under DF at p = 4. A row is regenerated only by a change
//! that means to move that app's numbers and says so.

use std::hash::Hasher;

use ptdf::trace::Fnv1a;
use ptdf::{Config, SchedKind};

use crate::{barnes_hut, dtree, fft, fmm, matmul, spmv, volren};

/// Feeds `w` to `h` as its little-endian bytes, so a hash is the same on
/// every host (`Hasher::write_u64` is native-endian).
pub(crate) fn word(h: &mut Fnv1a, w: u64) {
    h.write(&w.to_le_bytes());
}

fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv1a::default();
    for w in words {
        word(&mut h, w);
    }
    h.finish()
}

fn hash_node(node: &dtree::Node, h: &mut Fnv1a) {
    match node {
        dtree::Node::Leaf { label, count } => {
            word(h, 0);
            word(h, *label as u64);
            word(h, *count as u64);
        }
        dtree::Node::Split {
            attr,
            threshold,
            left,
            right,
        } => {
            word(h, 1);
            word(h, *attr as u64);
            word(h, threshold.to_bits() as u64);
            hash_node(left, h);
            hash_node(right, h);
        }
    }
}

fn matmul_bits() -> u64 {
    let p = matmul::Params::small();
    let (a, b) = matmul::gen_input(&p);
    hash_words(matmul::multiply(&a, &b, &p).iter().map(|v| v.to_bits()))
}

fn barnes_hut_bits() -> u64 {
    let p = barnes_hut::Params::small();
    let mut bodies = barnes_hut::plummer(p.n_bodies, p.seed);
    barnes_hut::run_fine(&mut bodies, &p);
    hash_words(
        bodies
            .iter()
            .flat_map(|b| b.pos.into_iter().map(f64::to_bits)),
    )
}

fn fmm_bits() -> u64 {
    let p = fmm::Params::small();
    let particles = fmm::gen_particles(&p);
    let out = fmm::run_fmm(&particles, &p);
    hash_words(out.potential.iter().map(|v| v.to_bits()))
}

fn dtree_bits() -> u64 {
    let p = dtree::Params::small();
    let ds = dtree::gen_dataset(&p);
    let mut h = Fnv1a::default();
    hash_node(&dtree::build(&ds, &p), &mut h);
    h.finish()
}

fn fft_bits() -> u64 {
    let p = fft::Params::small(256);
    let x = fft::gen_input(&p);
    hash_words(
        fft::fft(&x, &p)
            .iter()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()]),
    )
}

fn spmv_bits() -> u64 {
    let p = spmv::Params::small();
    let m = spmv::gen_matrix(&p);
    let v = spmv::gen_vector(&p);
    hash_words(spmv::run_fine(&m, &v, &p).iter().map(|v| v.to_bits()))
}

/// The image, then the total sample count: `samples` is what the renderer
/// charges to the model, so a ray loop that takes one sample more or fewer
/// moves every makespan even when the image does not change.
fn volren_bits() -> u64 {
    let p = volren::Params::small();
    let vol = volren::gen_volume(p.size);
    let img = volren::render_fine(&vol, &p);
    let samples: u64 = (0..p.image * p.image)
        .map(|i| volren::cast_ray(&vol, &p, i % p.image, i / p.image).1 as u64)
        .sum();
    hash_words(
        img.iter()
            .map(|v| v.to_bits() as u64)
            .chain(std::iter::once(samples)),
    )
}

/// An app, the hash of its output, and what that hash must be when the app
/// runs standalone and under DF at p = 4.
type Row = (&'static str, fn() -> u64, u64, u64);

#[rustfmt::skip]
const APP_OUTPUT_CORPUS: [Row; 7] = [
    ("matmul",     matmul_bits,     0x1bb2_187c_0c32_ae54, 0x1bb2_187c_0c32_ae54),
    ("barnes_hut", barnes_hut_bits, 0xaba4_4e3f_27fb_25f0, 0xaba4_4e3f_27fb_25f0),
    ("fmm",        fmm_bits,        0xd3b7_17a8_0a65_bafc, 0xd3b7_17a8_0a65_bafc),
    ("dtree",      dtree_bits,      0x9e43_0589_bec3_d4e4, 0x9e43_0589_bec3_d4e4),
    ("fft",        fft_bits,        0x2d3b_dfe1_2abc_75fa, 0x2d3b_dfe1_2abc_75fa),
    ("spmv",       spmv_bits,       0xa1f8_b075_a8bb_98da, 0xa1f8_b075_a8bb_98da),
    ("volren",     volren_bits,     0x3cfe_af60_5fa2_46a4, 0x3cfe_af60_5fa2_46a4),
];

#[test]
fn app_outputs_are_bit_identical() {
    for (name, bits, standalone, df) in APP_OUTPUT_CORPUS {
        let got_standalone = bits();
        let (got_df, _) = ptdf::run(Config::new(4, SchedKind::Df), bits);
        assert_eq!(
            (got_standalone, got_df),
            (standalone, df),
            "{name}: output bits moved to ({got_standalone:#018x}, {got_df:#018x})"
        );
    }
}
