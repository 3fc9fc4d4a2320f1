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
//! base) shapes, and volren's phantom and octree. Each app's unit tests
//! allow a tolerance or share the kernel with their reference; these rows
//! do neither. A kernel speed-up regenerates nothing; a change that means
//! to move an app's numbers runs `cargo test --test apps -- --ignored
//! bless` and says which rows moved and why. The table must also pass
//! under `--features ptdf/thread-backend`.

use std::fmt::Write as _;
use std::hash::Hasher;

use ptdf::trace::Fnv1a;
use ptdf::{Config, CostModel, SchedKind};
use ptdf_apps::{fft, matmul, volren, volren_params, Scale, Version, APPS, VOLREN};
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
                .map(|i| volren::cast_ray(&vol, &p, i % p.image, i / p.image).1 as u64)
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
