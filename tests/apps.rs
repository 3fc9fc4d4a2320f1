//! What a kernel change may not move, pinned in `tests/golden/apps.tsv`.
//! Per entry of `ptdf_apps::APPS` at its test size (`Scale::Small`):
//! - the FNV-1a-64 of every output word of its fine body (the same
//!   standalone, serially and under DF at p = 4), and the model inputs,
//!   makespan and dispatches of a serial and a DF run of the body alone
//!   (its input built outside the run);
//! - for an app with a coarse body, that body's output, DF makespan and
//!   dispatches at `procs` = 4;
//! - its Figure 8 label and problem string at test and at paper scale.
//!
//! Then FFT's 2^14-point cells, matmul's output and space over eight (n,
//! base) shapes, volren's phantom and octree, and the shapes on which the
//! volren, FMM and decision-tree kernels must agree bit for bit: each ray's
//! intensity and sample count, each kernel-derivative tensor, and each
//! tree with its model inputs. Each app's unit tests
//! allow a tolerance or share the kernel with their reference; these rows
//! do neither. A kernel speed-up regenerates nothing; a change that means
//! to move an app's numbers runs `cargo test --test apps -- --ignored
//! bless` and says which rows moved and why. The table must also pass
//! under `--features ptdf/thread-backend`.

use std::fmt::Write as _;
use std::hash::Hasher;

use ptdf::trace::Fnv1a;
use ptdf::{Config, CostModel, SchedKind};
use ptdf_apps::fmm::jet::KernelJet;
use ptdf_apps::util::uniform01;
use ptdf_apps::{dtree, fft, fmm, matmul, volren, volren_params, Scale, Version, APPS, VOLREN};
use ptdf_smp::RunStats;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/apps.tsv");

/// Feeds `w` to `h` as its little-endian bytes, so a hash is the same on
/// every host (`Hasher::write_u64` is native-endian).
fn word(h: &mut Fnv1a, w: u64) {
    h.write(&w.to_le_bytes());
}

/// A run's makespan (ns) and dispatch count.
fn model(s: &RunStats) -> String {
    let dispatches: u64 = s.procs.iter().map(|p| p.dispatches).sum();
    format!("{}\t{dispatches}", s.makespan.as_ns())
}

fn serial_run<T>(f: impl FnOnce() -> T) -> (T, RunStats) {
    let (out, r) = ptdf::run_serial(CostModel::ultrasparc_167(), f);
    (out, r.stats)
}

fn df_run<T: 'static>(f: impl FnOnce() -> T + 'static) -> (T, RunStats) {
    let (out, r) = ptdf::run(Config::new(4, SchedKind::Df), f);
    (out, r.stats)
}

fn fnv(words: &[u64]) -> u64 {
    let mut h = Fnv1a::default();
    words.iter().for_each(|&w| word(&mut h, w));
    h.finish()
}

/// Per app, its fine body alone, returning its output words, run
/// standalone, serially and under DF; volren's total sample count is
/// hashed after its image. The sample count is counted outside the run:
/// `samples` is what the renderer charges to the model, so a ray loop that
/// takes one sample more or fewer moves every makespan even when the image
/// does not change.
fn app_rows(out: &mut String) {
    for app in APPS {
        let fine = (app.build)(Scale::Small);
        let mut words = fine(Version::Fine);
        let (serial_words, serial) = serial_run(|| fine(Version::Fine));
        let (df_words, df) = df_run(move || fine(Version::Fine));
        assert!(
            serial_words == words && df_words == words,
            "{}: output differs by mode",
            app.key
        );
        if app.key == VOLREN.key {
            let p = volren_params(Scale::Small);
            let vol = volren::gen_volume(p.size);
            let samples: u64 = (0..p.image * p.image)
                .map(|i| {
                    let (px, py) = (i % p.image, i / p.image);
                    u64::from(volren::cast_ray(&vol, &p, volren::VIEW_ANGLE, px, py).1)
                })
                .sum();
            words.push(samples);
        }
        let (h, serial, df) = (fnv(&words), model(&serial), model(&df));
        writeln!(out, "{}\t{h:016x}\t{serial}\t{df}", app.key).expect("to a String");
    }
}

/// The coarse (one thread per processor) body of each app that has one,
/// under DF at p = 4 with `procs` = 4: its output words, makespan and
/// dispatches.
fn coarse_rows(out: &mut String) {
    for app in APPS.iter().filter(|app| app.coarse) {
        let coarse = (app.build)(Scale::Small);
        let (words, df) = df_run(move || coarse(Version::Coarse(4)));
        writeln!(out, "{}\t{:016x}\t{}", app.key, fnv(&words), model(&df)).expect("to a String");
    }
}

/// Each app's key, Figure 8 label and problem string at test and at paper
/// scale.
fn scale_rows(out: &mut String) {
    for app in APPS {
        let (small, paper) = ((app.problem)(Scale::Small), (app.problem)(Scale::Paper));
        writeln!(out, "{}\t{}\t{small}\t{paper}", app.key, app.label).expect("to a String");
    }
}

/// FFT at 2^14 points: serially with one thread, and under DF at p = 4
/// with 4 and 256 threads.
fn fft_rows(out: &mut String) {
    let p = |threads| fft::Params {
        log2n: 14,
        threads,
        seed: 5,
    };
    let x = fft::gen_input(&p(1));
    let (_, serial) = serial_run(|| fft::fft(&x, &p(1)));
    writeln!(out, "fft,2^14,threads=1\tserial\t{}", model(&serial)).expect("to a String");
    for threads in [4, 256] {
        let x = x.clone();
        let (_, df) = df_run(move || fft::fft(&x, &p(threads)));
        writeln!(out, "fft,2^14,threads={threads}\tdf,p=4\t{}", model(&df)).expect("to a String");
    }
}

/// Matmul over (n, base) shapes from a lone leaf to two levels above a
/// 64-block: the output bits standalone, then serially and under FIFO, DF
/// and WS at p = 4 the output bits, makespan and footprint. FIFO holds every
/// level's temporary `T` at once, so its footprint pins when each `T` is
/// allocated and freed.
fn matmul_shape_rows(out: &mut String) {
    let shapes = [
        (1, 1),
        (8, 1),
        (16, 4),
        (64, 8),
        (128, 16),
        (256, 32),
        (256, 64),
        (64, 64),
    ];
    for (n, base) in shapes {
        let p = matmul::Params {
            n,
            base,
            seed: 0xA1,
        };
        let (a, b) = matmul::gen_input(&p);
        let cell = format!("matmul,n={n},base={base}");
        let fnv = |c: &[f64]| fnv(&c.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let standalone = fnv(&matmul::multiply(&a, &b, &p));
        writeln!(out, "{cell}	standalone	{standalone:016x}	-	-").expect("to a String");
        let (c, serial) = serial_run(|| matmul::multiply(&a, &b, &p));
        let mut runs = vec![("serial".to_string(), fnv(&c), serial)];
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let (a, b) = (a.clone(), b.clone());
            let (c, r) = ptdf::run(Config::new(4, kind), move || matmul::multiply(&a, &b, &p));
            runs.push((format!("{},p=4", kind.name()), fnv(&c), r.stats));
        }
        for (run, h, s) in runs {
            let (makespan, footprint) = (s.makespan.as_ns(), s.mem.footprint_hwm);
            writeln!(out, "{cell}	{run}	{h:016x}	{makespan}	{footprint}").expect("to a String");
        }
    }
}

/// The phantom and its octree at the two sizes in use (64 for tests and
/// the benchmark, 256 for the paper's scale): voxels, finest block edge,
/// and every level's (min, max) pairs.
fn phantom_rows(out: &mut String) {
    for size in [64, 256] {
        let vol = volren::gen_volume(size);
        let (block, levels) = vol.octree();
        let mut h = Fnv1a::default();
        h.write(&vol.data);
        word(&mut h, block as u64);
        for level in levels {
            word(&mut h, level.len() as u64);
            for &(mn, mx) in level {
                h.write(&[mn, mx]);
            }
        }
        writeln!(out, "volren:phantom\t{size}\t{:016x}", h.finish()).expect("to a String");
    }
}

/// Every ray of an image, one at a time: the FNV-1a of each pixel's
/// intensity bits and sample count, the total sample count, and how many
/// pixels stay unlit. The view angles 0, π/2, π and 3π/2 put a direction
/// component at or next to ±0.0; sizes 20 and 36 have an odd number of
/// octree blocks a side and 100 a short last block; where a pixel is narrower than two voxels, the first
/// image row starts below y = 1 and never enters the volume; a cutoff of
/// 2.0 never terminates a ray early.
fn volren_ray_rows(out: &mut String) {
    use std::f32::consts::{FRAC_PI_2, PI};
    let shapes: [(usize, usize, f32, f32); 11] = [
        (64, 96, 0.5, 0.98),
        (64, 40, 0.0, 0.98),
        (64, 40, FRAC_PI_2, 0.98),
        (64, 40, PI, 0.98),
        (64, 40, 3.0 * FRAC_PI_2, 0.98),
        (64, 40, 0.5, 2.0),
        (20, 24, 0.5, 0.98),
        (36, 30, 1.0, 0.98),
        (100, 48, 0.5, 0.98),
        (100, 36, 2.5, 2.0),
        (256, 24, 0.5, 0.98),
    ];
    let mut vol = volren::gen_volume(64);
    for (size, image, view_angle, opacity_cutoff) in shapes {
        if vol.size != size {
            vol = volren::gen_volume(size);
        }
        let p = volren::Params {
            size,
            image,
            opacity_cutoff,
            ..volren::Params::small()
        };
        let mut h = Fnv1a::default();
        let (mut samples, mut unlit) = (0u64, 0usize);
        for py in 0..image {
            for px in 0..image {
                let (v, n) = volren::cast_ray(&vol, &p, view_angle, px, py);
                word(&mut h, u64::from(v.to_bits()) << 32 | u64::from(n));
                samples += u64::from(n);
                unlit += usize::from(v == 0.0);
            }
        }
        assert!(unlit > 0, "volren {size}, {image}: every ray enters");
        writeln!(
            out,
            "volren:rays\t{size}\t{image}\t{view_angle}\t{opacity_cutoff}\t{:016x}\t{samples}\t{unlit}",
            h.finish()
        )
        .expect("to a String");
    }
}

/// The Taylor coefficients of `1/|r|` at every order up to 12 (the jet of
/// `P` = 1..6 expansion terms is order 2P), every bit and sign of zero, at
/// the 316 unit M2L offsets and at 200 seeded points.
fn fmm_jet_rows(out: &mut String) {
    let mut lattice = Vec::new();
    for dx in -3i32..=3 {
        for dy in -3i32..=3 {
            for dz in -3i32..=3 {
                if dx.abs().max(dy.abs()).max(dz.abs()) >= 2 {
                    lattice.push([dx as f64, dy as f64, dz as f64]);
                }
            }
        }
    }
    assert_eq!(lattice.len(), 316);
    let mut s = 43;
    let random: Vec<[f64; 3]> = (0..200)
        .map(|_| [0; 3].map(|_| uniform01(&mut s) * 6.0 - 3.0))
        .collect();
    for order in 1..=12 {
        let kj = KernelJet::new(order);
        for (points, set) in [("lattice", &lattice), ("random", &random)] {
            let mut h = Fnv1a::default();
            for &r0 in set {
                kj.inv_r_coeffs(r0)
                    .iter()
                    .for_each(|c| word(&mut h, c.to_bits()));
            }
            writeln!(out, "fmm:jet\t{order}\t{points}\t{:016x}", h.finish()).expect("to a String");
        }
    }
}

/// `run_fmm` at two (particles, levels): every potential and field word,
/// and its DF run at p = 4.
fn fmm_shape_rows(out: &mut String) {
    for (n_particles, levels) in [(1_000, 2), (3_000, 3)] {
        let p = fmm::Params {
            n_particles,
            levels,
            ..fmm::Params::small()
        };
        let particles = fmm::gen_particles(&p);
        let (r, df) = df_run(move || fmm::run_fmm(&particles, &p));
        let words: Vec<u64> = r
            .potential
            .iter()
            .chain(r.field.iter().flatten())
            .map(|x| x.to_bits())
            .collect();
        let cell = format!("fmm,n={n_particles},levels={levels}");
        writeln!(out, "{cell}\t{:016x}\t{}", fnv(&words), model(&df)).expect("to a String");
    }
}

/// The decision tree at four (instances, min_split, seed): the tree's
/// `Debug` form (every threshold printed to its exact bits), and its DF
/// run at p = 4 with its footprint.
fn dtree_shape_rows(out: &mut String) {
    for (instances, min_split, seed) in [
        (2_500, 50, 1),
        (6_000, 300, 7),
        (12_000, 1_000, 0xD7),
        (20_000, 2_000, 42),
    ] {
        let p = dtree::Params {
            instances,
            min_split,
            seed,
            ..dtree::Params::small()
        };
        let ds = dtree::gen_dataset(&p);
        let (tree, df) = df_run(move || dtree::build(&ds, &p));
        let mut h = Fnv1a::default();
        h.write(format!("{tree:?}").as_bytes());
        let cell = format!("dtree,n={instances},min_split={min_split},seed={seed}");
        let footprint = df.mem.footprint_hwm;
        writeln!(
            out,
            "{cell}\t{:016x}\t{}\t{footprint}",
            h.finish(),
            model(&df)
        )
        .expect("to a String");
    }
}

fn table() -> String {
    let mut out = String::from("# app\toutput_fnv1a\tserial_makespan_ns\tserial_dispatches\t");
    out.push_str("df_p4_makespan_ns\tdf_p4_dispatches\n");
    app_rows(&mut out);
    out.push_str("# coarse app, procs=4\toutput_fnv1a\tdf_p4_makespan_ns\tdf_p4_dispatches\n");
    coarse_rows(&mut out);
    out.push_str("# app\tfigure8_label\tsmall_problem\tpaper_problem\n");
    scale_rows(&mut out);
    out.push_str("# cell\trun\tmakespan_ns\tdispatches\n");
    fft_rows(&mut out);
    out.push_str("# cell\trun\toutput_fnv1a\tmakespan_ns\tfootprint_bytes\n");
    matmul_shape_rows(&mut out);
    out.push_str("# volume\tsize\tfnv1a\n");
    phantom_rows(&mut out);
    out.push_str("# volren rays\tsize\timage\tview_angle\topacity_cutoff\tfnv1a\tsamples\tunlit\n");
    volren_ray_rows(&mut out);
    out.push_str("# fmm jet\torder\tpoints\tfnv1a\n");
    fmm_jet_rows(&mut out);
    out.push_str("# fmm cell\toutput_fnv1a\tdf_p4_makespan_ns\tdf_p4_dispatches\n");
    fmm_shape_rows(&mut out);
    out.push_str(
        "# dtree cell\ttree_fnv1a\tdf_p4_makespan_ns\tdf_p4_dispatches\tfootprint_bytes\n",
    );
    dtree_shape_rows(&mut out);
    out
}

#[test]
fn apps_match_the_committed_table() {
    ptdf_bench::golden::assert_unchanged(
        GOLDEN,
        &table(),
        "A kernel change must not move an output bit or a model input. If \
         this change moves them on purpose: cargo test --test apps -- --ignored bless",
    );
}

#[test]
#[ignore = "rewrites tests/golden/apps.tsv from the code as it stands"]
fn bless() {
    ptdf_bench::golden::bless(GOLDEN, &table());
}
