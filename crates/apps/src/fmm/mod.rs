//! Fast Multipole Method (paper §5.1.2): the uniform 3-D FMM for the
//! Laplace kernel `1/r`.
//!
//! The paper's implementation uses spherical-harmonic expansions; this
//! reproduction uses **Cartesian Taylor expansions** of the same order
//! (`terms = 5` ⇒ multipole/local order `P = 4`), with the kernel
//! derivative tensors computed by jet arithmetic ([`jet`]). The
//! substitution preserves the algorithmic structure the paper measures —
//! the phase decomposition, the fork pattern (a thread per cell, M2L
//! interaction lists split 25-sources-per-thread forked as a binary tree),
//! and the dynamic allocation in the M2L phase — while remaining
//! numerically verifiable against direct summation (see this module's
//! tests and DESIGN.md).
//!
//! Conventions (multi-index `α`, kernel `G(r) = 1/|r|`):
//!
//! * multipole about `cM`: `M_α = Σ_i q_i (−(x_i−cM))^α / α!`
//! * potential: `φ(y) = Σ_α M_α (D^α G)(y − cM)`
//! * local about `cL`: `L_β = D^β φ(cL) = Σ_α M_α (D^{α+β} G)(cL − cM)`
//! * evaluation: `φ(y) = Σ_β L_β (y − cL)^β / β!`, field `E = −∇φ`.

pub mod jet;
pub mod tables;

use jet::KernelJet;
use ptdf::TrackedBuf;
use tables::MultiIndexTable;

use crate::util::{
    charge_flops_dense, charge_flops_irregular, region, salt, uniform01, SharedSlice,
};

/// A point charge / mass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Particle {
    /// Position in the unit cube.
    pub pos: [f64; 3],
    /// Charge (mass).
    pub q: f64,
}

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of particles (uniform in the unit cube).
    pub n_particles: usize,
    /// Finest tree level `L` (leaves are the `8^L` cells at level `L`;
    /// the paper's "tree with 4 levels" is `L = 3`).
    pub levels: usize,
    /// Expansion terms (the paper's 5 ⇒ Taylor order `P = terms − 1`).
    pub terms: usize,
    /// M2L sources handled per forked thread (paper: 25).
    pub mpl_chunk: usize,
    /// Seed.
    pub seed: u64,
}

impl Params {
    /// The paper's configuration: 10,000 uniform particles, 4 levels,
    /// 5 terms.
    pub fn paper() -> Self {
        Params {
            n_particles: 10_000,
            levels: 3,
            terms: 5,
            mpl_chunk: 25,
            seed: 0xF33D,
        }
    }

    /// Scaled-down configuration (keeps the paper's tree depth so the
    /// phase-level parallelism structure is comparable).
    pub fn small() -> Self {
        Params {
            n_particles: 4_000,
            levels: 3,
            terms: 5,
            mpl_chunk: 25,
            seed: 0xF33D,
        }
    }

    fn order(&self) -> usize {
        self.terms.saturating_sub(1)
    }
}

/// Uniformly distributed particles with unit total charge.
pub fn gen_particles(p: &Params) -> Vec<Particle> {
    let mut s = p.seed;
    (0..p.n_particles)
        .map(|_| Particle {
            pos: [uniform01(&mut s), uniform01(&mut s), uniform01(&mut s)],
            q: 1.0 / p.n_particles as f64,
        })
        .collect()
}

/// Result: potential and field per particle.
#[derive(Debug, Clone)]
pub struct FieldResult {
    /// Potential `φ = Σ q/r`.
    pub potential: Vec<f64>,
    /// Field `E = −∇φ`.
    pub field: Vec<[f64; 3]>,
}

/// Precomputed translation machinery shared by all phases.
struct Ctx {
    p: usize,
    t1: MultiIndexTable,
    kj: KernelJet,
    /// Pair list of t1 (for M2M / L2L).
    pairs1: Vec<(u32, u32, u32)>,
    /// t2 position of `t1[a] + t1[b]` (dense `n1 × n1`).
    sum12: Vec<u32>,
    /// Kernel derivative tensors at each unit M2L offset, indexed by
    /// `offset_key(d)`; empty slot for non-M2L offsets. Entries are
    /// `T[γ] · γ!` at the unit offset (so M2L is a plain dot product).
    unit_tensors: Vec<Vec<f64>>,
}

fn offset_key(d: [i32; 3]) -> usize {
    (((d[0] + 3) * 7 + (d[1] + 3)) * 7 + (d[2] + 3)) as usize
}

impl Ctx {
    fn new(p: usize) -> Self {
        let t1 = MultiIndexTable::new(p);
        let kj = KernelJet::new(2 * p);
        let t2 = kj.table();
        let n1 = t1.len();
        let mut sum12 = vec![u32::MAX; n1 * n1];
        for (a, &ia) in t1.idx.iter().enumerate() {
            for (b, &ib) in t1.idx.iter().enumerate() {
                let pos = t2.pos_sum(ia, ib).expect("|α+β| ≤ 2P by construction");
                sum12[a * n1 + b] = pos as u32;
            }
        }
        // Unit-offset tensors: all d with max-norm in 2..=3 (the children
        // of parent's neighbours that are not our neighbours).
        let mut unit_tensors = vec![Vec::new(); 7 * 7 * 7];
        for dx in -3i32..=3 {
            for dy in -3i32..=3 {
                for dz in -3i32..=3 {
                    let cheb = dx.abs().max(dy.abs()).max(dz.abs());
                    if cheb < 2 {
                        continue;
                    }
                    let t = kj.inv_r_coeffs([dx as f64, dy as f64, dz as f64]);
                    let scaled: Vec<f64> = t
                        .iter()
                        .zip(t2.factorial.iter())
                        .map(|(c, f)| c * f)
                        .collect();
                    unit_tensors[offset_key([dx, dy, dz])] = scaled;
                }
            }
        }
        let pairs1 = t1.product_pairs();
        Ctx {
            p,
            t1,
            kj,
            pairs1,
            sum12,
            unit_tensors,
        }
    }

    fn n1(&self) -> usize {
        self.t1.len()
    }
}

/// The uniform cell tree: per-level flattened expansion arrays.
struct Tree {
    levels: usize,
    n1: usize,
    /// Multipole coefficients per level: `m[l][cell * n1 + coef]`.
    m: Vec<Vec<f64>>,
    /// Local coefficients per level.
    l: Vec<Vec<f64>>,
    /// Leaf → particle indices (CSR).
    leaf_start: Vec<u32>,
    leaf_particles: Vec<u32>,
}

fn cells_per_side(level: usize) -> usize {
    1 << level
}

fn cell_index(level: usize, c: [usize; 3]) -> usize {
    let n = cells_per_side(level);
    (c[2] * n + c[1]) * n + c[0]
}

fn cell_center(level: usize, c: [usize; 3]) -> [f64; 3] {
    let w = 1.0 / cells_per_side(level) as f64;
    [
        (c[0] as f64 + 0.5) * w,
        (c[1] as f64 + 0.5) * w,
        (c[2] as f64 + 0.5) * w,
    ]
}

fn leaf_of(pos: [f64; 3], levels: usize) -> [usize; 3] {
    let n = cells_per_side(levels);
    let f = |x: f64| ((x * n as f64) as usize).min(n - 1);
    [f(pos[0]), f(pos[1]), f(pos[2])]
}

fn bin_particles(particles: &[Particle], levels: usize) -> (Vec<u32>, Vec<u32>) {
    let n = cells_per_side(levels);
    let ncells = n * n * n;
    let mut counts = vec![0u32; ncells + 1];
    let leaf: Vec<usize> = particles
        .iter()
        .map(|pt| cell_index(levels, leaf_of(pt.pos, levels)))
        .collect();
    for &c in &leaf {
        counts[c + 1] += 1;
    }
    for i in 0..ncells {
        counts[i + 1] += counts[i];
    }
    let mut slots = counts.clone();
    let mut order = vec![0u32; particles.len()];
    for (i, &c) in leaf.iter().enumerate() {
        order[slots[c] as usize] = i as u32;
        slots[c] += 1;
    }
    (counts, order)
}

/// Runs the FMM; parallel when inside a runtime (forks per the paper's
/// phase structure), serial otherwise — same code.
pub fn run_fmm(particles: &[Particle], prm: &Params) -> FieldResult {
    let ctx = Ctx::new(prm.order());
    let levels = prm.levels;
    let n1 = ctx.n1();
    let (leaf_start, leaf_particles) = bin_particles(particles, levels);
    let mut tree = Tree {
        levels,
        n1,
        m: (0..=levels)
            .map(|l| vec![0.0; cells_per_side(l).pow(3) * n1])
            .collect(),
        l: (0..=levels)
            .map(|l| vec![0.0; cells_per_side(l).pow(3) * n1])
            .collect(),
        leaf_start,
        leaf_particles,
    };
    // Track the tree's expansion arrays and particle bins in the memory
    // model (the FMM's structural allocations).
    let tree_bytes: u64 = tree
        .m
        .iter()
        .chain(tree.l.iter())
        .map(|v| v.len() as u64 * 8)
        .sum::<u64>()
        + (tree.leaf_start.len() + tree.leaf_particles.len()) as u64 * 4
        + particles.len() as u64 * 32;
    ptdf::rt_alloc(tree_bytes);
    charge_flops_dense((ctx.unit_tensors.len() * ctx.kj.table().len() * 30) as u64);

    phase_p2m(particles, prm, &ctx, &mut tree);
    phase_m2m(prm, &ctx, &mut tree);
    phase_m2l_l2l(prm, &ctx, &mut tree);
    let result = phase_l2p_p2p(particles, prm, &ctx, &tree);
    ptdf::rt_free(tree_bytes);
    result
}

/// Phase 1: multipole expansions of leaf cells (a thread per leaf).
fn phase_p2m(particles: &[Particle], _prm: &Params, ctx: &Ctx, tree: &mut Tree) {
    let levels = tree.levels;
    let n1 = tree.n1;
    let n = cells_per_side(levels);
    let ncells = n * n * n;
    let leaf_start = &tree.leaf_start;
    let leaf_particles = &tree.leaf_particles;
    let m = SharedSlice::new(&mut tree.m[levels]);
    // One thread per occupied leaf cell, forked as a binary tree.
    let mut occupied: Vec<(usize, [usize; 3])> = Vec::new();
    for cz in 0..n {
        for cy in 0..n {
            for cx in 0..n {
                let ci = cell_index(levels, [cx, cy, cz]);
                if leaf_start[ci] != leaf_start[ci + 1] {
                    occupied.push((ci, [cx, cy, cz]));
                }
            }
        }
    }
    let occupied = &occupied;
    crate::util::fork_each(0, occupied.len(), |k| {
        let (ci, c) = occupied[k];
        {
            {
                {
                    {
                        let center = cell_center(levels, c);
                        let mut mono = vec![0.0; n1];
                        let mut acc = vec![0.0; n1];
                        let lo = leaf_start[ci] as usize;
                        let hi = leaf_start[ci + 1] as usize;
                        for &pi in &leaf_particles[lo..hi] {
                            let pt = particles[pi as usize];
                            let v = [
                                -(pt.pos[0] - center[0]),
                                -(pt.pos[1] - center[1]),
                                -(pt.pos[2] - center[2]),
                            ];
                            ctx.t1.monomials(v, &mut mono);
                            for (a, (mo, f)) in mono.iter().zip(&ctx.t1.factorial).enumerate() {
                                acc[a] += pt.q * mo / f;
                            }
                        }
                        ptdf::touch(region(salt::FMM_CELLS, ci as u64), (n1 * 8) as u64);
                        charge_flops_irregular(((hi - lo) * n1 * 6) as u64);
                        for (a, v) in acc.into_iter().enumerate() {
                            // SAFETY: each leaf cell's slice is owned by
                            // exactly one thread.
                            unsafe { m.set(ci * n1 + a, v) };
                        }
                    }
                }
            }
        }
    });
    let _ = ncells;
}

/// Phase 2: upward M2M (a thread per parent cell, level by level).
fn phase_m2m(prm: &Params, ctx: &Ctx, tree: &mut Tree) {
    let _ = prm;
    let n1 = tree.n1;
    for level in (0..tree.levels).rev() {
        let (upper, lower) = tree.m.split_at_mut(level + 1);
        let parents = &mut upper[level];
        let children: &Vec<f64> = &lower[0];
        let np = cells_per_side(level);
        let pm = SharedSlice::new(parents);
        let coords: Vec<[usize; 3]> = (0..np)
            .flat_map(|pz| (0..np).flat_map(move |py| (0..np).map(move |px| [px, py, pz])))
            .collect();
        let coords = &coords;
        crate::util::fork_each(0, coords.len(), |k| {
            {
                {
                    {
                        {
                            let pcell = coords[k];
                            let [px, py, pz] = pcell;
                            let pi = cell_index(level, pcell);
                            let pc = cell_center(level, pcell);
                            let mut acc = vec![0.0; n1];
                            let mut mono = vec![0.0; n1];
                            let mut work = 0u64;
                            for oz in 0..2 {
                                for oy in 0..2 {
                                    for ox in 0..2 {
                                        let cc = [2 * px + ox, 2 * py + oy, 2 * pz + oz];
                                        let ci = cell_index(level + 1, cc);
                                        let cm = &children[ci * n1..(ci + 1) * n1];
                                        if cm.iter().all(|&v| v == 0.0) {
                                            continue;
                                        }
                                        let ccen = cell_center(level + 1, cc);
                                        let d = [
                                            -(ccen[0] - pc[0]),
                                            -(ccen[1] - pc[1]),
                                            -(ccen[2] - pc[2]),
                                        ];
                                        ctx.t1.monomials(d, &mut mono);
                                        for &(a, b, o) in &ctx.pairs1 {
                                            acc[o as usize] += cm[a as usize] * mono[b as usize]
                                                / ctx.t1.factorial[b as usize];
                                        }
                                        work += ctx.pairs1.len() as u64;
                                    }
                                }
                            }
                            charge_flops_irregular(work * 2);
                            for (a, v) in acc.into_iter().enumerate() {
                                // SAFETY: one thread per parent cell.
                                unsafe { pm.set(pi * n1 + a, v) };
                            }
                        }
                    }
                }
            }
        });
    }
}

/// Computes the M2L contributions to `dst` from `sources[range]`, forking
/// as a binary tree with ≤ `chunk` sources per leaf thread, each
/// accumulating into a freshly allocated partial buffer (the paper's
/// dynamically allocated phase-3 memory). Returns the partial sum.
fn m2l_binary(
    ctx: &Ctx,
    scale: &[f64],
    sources: &[(usize, [i32; 3])], // (cell index, unit offset dst-src)
    ms: &[f64],
    n1: usize,
    chunk: usize,
) -> Vec<f64> {
    if sources.len() <= chunk.max(1) {
        let mut partial = TrackedBuf::<f64>::zeroed(n1);
        let mut work = 0u64;
        for &(src, d) in sources {
            let tensor = &ctx.unit_tensors[offset_key(d)];
            debug_assert!(!tensor.is_empty(), "offset {d:?} is not well separated");
            let msrc = &ms[src * n1..(src + 1) * n1];
            m2l_apply(ctx, msrc, tensor, scale, &mut partial);
            work += (n1 * n1) as u64;
        }
        charge_flops_irregular(work * 3);
        return partial.into_vec();
    }
    let mid = sources.len() / 2;
    let (lo, hi) = sources.split_at(mid);
    let (mut a, b) = ptdf::scope(|s| {
        let hl = s.spawn(move || m2l_binary(ctx, scale, lo, ms, n1, chunk));
        let b = m2l_binary(ctx, scale, hi, ms, n1, chunk);
        (hl.join(), b)
    });
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
    a
}

fn m2l_apply(ctx: &Ctx, msrc: &[f64], tensor: &[f64], scale: &[f64], out: &mut [f64]) {
    let n1 = ctx.n1();
    for (b, &(bi, bj, bk)) in ctx.t1.idx.iter().enumerate() {
        let btot = (bi + bj + bk) as usize;
        let mut sum = 0.0;
        for (a, &(ai, aj, ak)) in ctx.t1.idx.iter().enumerate() {
            let atot = (ai + aj + ak) as usize;
            let t2pos = ctx.sum12[a * n1 + b] as usize;
            sum += msrc[a] * tensor[t2pos] * scale[atot + btot];
        }
        out[b] += sum;
    }
}

/// Phases 3: top-down L2L + M2L per level (a thread per cell; each cell's
/// interaction list split into ≤25-source chunks forked as a binary tree).
fn phase_m2l_l2l(prm: &Params, ctx: &Ctx, tree: &mut Tree) {
    let n1 = tree.n1;
    for level in 2..=tree.levels {
        let nc = cells_per_side(level);
        let w = 1.0 / nc as f64;
        let w_inv = 1.0 / w;
        // D^γ G at w·v is w^{-(1+|γ|)} D^γ G(v): scale[|γ|] = w^{-(1+|γ|)}.
        let mut scale = vec![0.0; 2 * ctx.p + 1];
        let mut acc = w_inv;
        for s in scale.iter_mut() {
            *s = acc;
            acc *= w_inv;
        }
        let scale = &scale;
        // Split locals: parent level read-only, this level written.
        let (head, tail) = tree.l.split_at_mut(level);
        let parent_l: &[f64] = &head[level - 1];
        let this_l: &mut Vec<f64> = &mut tail[0];
        let lv = SharedSlice::new(this_l);
        let ms: &[f64] = &tree.m[level];
        let chunk = prm.mpl_chunk;
        let coords: Vec<[usize; 3]> = (0..nc)
            .flat_map(|cz| (0..nc).flat_map(move |cy| (0..nc).map(move |cx| [cx, cy, cz])))
            .collect();
        let coords = &coords;
        crate::util::fork_each(0, coords.len(), |k| {
            {
                {
                    {
                        {
                            let [cx, cy, cz] = coords[k];
                            let ci = cell_index(level, [cx, cy, cz]);
                            let mut local = vec![0.0; n1];
                            // L2L from the parent.
                            let pcell = [cx / 2, cy / 2, cz / 2];
                            let pidx = cell_index(level - 1, pcell);
                            let pl = &parent_l[pidx * n1..(pidx + 1) * n1];
                            if pl.iter().any(|&v| v != 0.0) {
                                let pc = cell_center(level - 1, pcell);
                                let cc = cell_center(level, [cx, cy, cz]);
                                let e = [cc[0] - pc[0], cc[1] - pc[1], cc[2] - pc[2]];
                                let mut mono = vec![0.0; n1];
                                ctx.t1.monomials(e, &mut mono);
                                for &(a, b, o) in &ctx.pairs1 {
                                    local[a as usize] += pl[o as usize] * mono[b as usize]
                                        / ctx.t1.factorial[b as usize];
                                }
                                charge_flops_irregular(ctx.pairs1.len() as u64 * 2);
                            }
                            // Interaction list: children of parent's
                            // neighbours that are not adjacent to us.
                            let mut sources = Vec::new();
                            let c = [cx as i32, cy as i32, cz as i32];
                            for dz in -3i32..=3 {
                                for dy in -3i32..=3 {
                                    for dx in -3i32..=3 {
                                        let cheb = dx.abs().max(dy.abs()).max(dz.abs());
                                        if cheb < 2 {
                                            continue;
                                        }
                                        let sx = c[0] + dx;
                                        let sy = c[1] + dy;
                                        let sz = c[2] + dz;
                                        if sx < 0
                                            || sy < 0
                                            || sz < 0
                                            || sx >= nc as i32
                                            || sy >= nc as i32
                                            || sz >= nc as i32
                                        {
                                            continue;
                                        }
                                        // Same parent-neighbourhood test:
                                        // parents within distance 1.
                                        if (sx / 2 - c[0] / 2).abs() > 1
                                            || (sy / 2 - c[1] / 2).abs() > 1
                                            || (sz / 2 - c[2] / 2).abs() > 1
                                        {
                                            continue;
                                        }
                                        let si = cell_index(
                                            level,
                                            [sx as usize, sy as usize, sz as usize],
                                        );
                                        let msrc = &ms[si * n1..(si + 1) * n1];
                                        if msrc.iter().any(|&v| v != 0.0) {
                                            // Offset cL − cM in units of w.
                                            sources.push((si, [-dx, -dy, -dz]));
                                        }
                                    }
                                }
                            }
                            if !sources.is_empty() {
                                let partial = m2l_binary(ctx, scale, &sources, ms, n1, chunk);
                                for (a, v) in partial.into_iter().enumerate() {
                                    local[a] += v;
                                }
                            }
                            ptdf::touch(
                                region(salt::FMM_CELLS, (level as u64) << 32 | ci as u64),
                                (n1 * 8) as u64,
                            );
                            for (a, v) in local.into_iter().enumerate() {
                                // SAFETY: one thread per cell.
                                unsafe { lv.set(ci * n1 + a, v) };
                            }
                        }
                    }
                }
            }
        });
    }
}

/// Phase 4: evaluate local expansions and near-field direct interactions
/// (a thread per leaf cell).
fn phase_l2p_p2p(particles: &[Particle], prm: &Params, ctx: &Ctx, tree: &Tree) -> FieldResult {
    let levels = tree.levels;
    let n1 = tree.n1;
    let nc = cells_per_side(levels);
    let mut potential = vec![0.0f64; particles.len()];
    let mut field = vec![[0.0f64; 3]; particles.len()];
    let locals: &[f64] = &tree.l[levels];
    let leaf_start = &tree.leaf_start;
    let leaf_particles = &tree.leaf_particles;
    {
        let pv = SharedSlice::new(&mut potential);
        let fv = crate::util::SharedBuf::new(&mut field);
        let mut occupied: Vec<(usize, [usize; 3])> = Vec::new();
        for cz in 0..nc {
            for cy in 0..nc {
                for cx in 0..nc {
                    let ci = cell_index(levels, [cx, cy, cz]);
                    if leaf_start[ci] != leaf_start[ci + 1] {
                        occupied.push((ci, [cx, cy, cz]));
                    }
                }
            }
        }
        let occupied = &occupied;
        crate::util::fork_each(0, occupied.len(), |k| {
            {
                {
                    {
                        let (ci, ccoord) = occupied[k];
                        let [cx, cy, cz] = ccoord;
                        {
                            let center = cell_center(levels, ccoord);
                            let me: Vec<u32> = leaf_particles
                                [leaf_start[ci] as usize..leaf_start[ci + 1] as usize]
                                .to_vec();
                            let lc = &locals[ci * n1..(ci + 1) * n1];
                            let mut mono = vec![0.0; n1];
                            let mut pairs = 0u64;
                            for &pi in &me {
                                let y = particles[pi as usize].pos;
                                // L2P: potential and gradient of the series.
                                let v = [y[0] - center[0], y[1] - center[1], y[2] - center[2]];
                                ctx.t1.monomials(v, &mut mono);
                                let mut phi = 0.0;
                                for (b, &m) in mono.iter().enumerate() {
                                    phi += lc[b] * m / ctx.t1.factorial[b];
                                }
                                let mut e = [0.0; 3];
                                for (bp, &(bi, bj, bk)) in ctx.t1.idx.iter().enumerate() {
                                    let fb = ctx.t1.factorial[bp];
                                    for (dim, l_shift) in [
                                        ctx.t1.pos(bi as usize + 1, bj as usize, bk as usize),
                                        ctx.t1.pos(bi as usize, bj as usize + 1, bk as usize),
                                        ctx.t1.pos(bi as usize, bj as usize, bk as usize + 1),
                                    ]
                                    .into_iter()
                                    .enumerate()
                                    {
                                        if let Some(lp) = l_shift {
                                            e[dim] -= lc[lp] * mono[bp] / fb;
                                        }
                                    }
                                }
                                // P2P over own + adjacent leaf cells.
                                for dz in -1i32..=1 {
                                    for dy in -1i32..=1 {
                                        for dx in -1i32..=1 {
                                            let nx = cx as i32 + dx;
                                            let ny = cy as i32 + dy;
                                            let nz = cz as i32 + dz;
                                            if nx < 0
                                                || ny < 0
                                                || nz < 0
                                                || nx >= nc as i32
                                                || ny >= nc as i32
                                                || nz >= nc as i32
                                            {
                                                continue;
                                            }
                                            let nb = cell_index(
                                                levels,
                                                [nx as usize, ny as usize, nz as usize],
                                            );
                                            for &pj in &leaf_particles[leaf_start[nb] as usize
                                                ..leaf_start[nb + 1] as usize]
                                            {
                                                if pj == pi {
                                                    continue;
                                                }
                                                let o = particles[pj as usize];
                                                let d = [
                                                    y[0] - o.pos[0],
                                                    y[1] - o.pos[1],
                                                    y[2] - o.pos[2],
                                                ];
                                                let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                                                let r = r2.sqrt().max(1e-12);
                                                phi += o.q / r;
                                                let f = o.q / (r2 * r);
                                                e[0] += d[0] * f;
                                                e[1] += d[1] * f;
                                                e[2] += d[2] * f;
                                                pairs += 1;
                                            }
                                        }
                                    }
                                }
                                // SAFETY: each particle belongs to one leaf.
                                unsafe {
                                    pv.set(pi as usize, phi);
                                    fv.set(pi as usize, e);
                                }
                            }
                            ptdf::touch(
                                region(salt::FMM_CELLS, (9u64 << 32) | ci as u64),
                                (me.len() * 32) as u64,
                            );
                            charge_flops_irregular(pairs * 12 + me.len() as u64 * (n1 as u64) * 8);
                        }
                    }
                }
            }
        });
    }
    let _ = prm;
    FieldResult { potential, field }
}

/// Direct O(n²) summation for verification.
pub fn direct(particles: &[Particle]) -> FieldResult {
    let n = particles.len();
    let mut potential = vec![0.0; n];
    let mut field = vec![[0.0; 3]; n];
    for i in 0..n {
        let y = particles[i].pos;
        for (j, o) in particles.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = [y[0] - o.pos[0], y[1] - o.pos[1], y[2] - o.pos[2]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let r = r2.sqrt().max(1e-12);
            potential[i] += o.q / r;
            let f = o.q / (r2 * r);
            field[i][0] += d[0] * f;
            field[i][1] += d[1] * f;
            field[i][2] += d[2] * f;
        }
    }
    FieldResult { potential, field }
}

/// Relative RMS error between two scalar vectors.
pub fn rel_rms(a: &[f64], b: &[f64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let den: f64 = b.iter().map(|y| y * y).sum();
    (num / den.max(1e-300)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn fmm_matches_direct_summation() {
        let prm = Params {
            n_particles: 800,
            levels: 2,
            terms: 5,
            mpl_chunk: 25,
            seed: 11,
        };
        let particles = gen_particles(&prm);
        let fmm = run_fmm(&particles, &prm);
        let exact = direct(&particles);
        let pot_err = rel_rms(&fmm.potential, &exact.potential);
        assert!(pot_err < 5e-3, "potential error {pot_err}");
        let fx: Vec<f64> = fmm.field.iter().map(|f| f[0]).collect();
        let ex: Vec<f64> = exact.field.iter().map(|f| f[0]).collect();
        let f_err = rel_rms(&fx, &ex);
        assert!(f_err < 5e-2, "field error {f_err}");
    }

    #[test]
    fn accuracy_improves_with_terms() {
        let mk = |terms| Params {
            n_particles: 400,
            levels: 2,
            terms,
            mpl_chunk: 25,
            seed: 12,
        };
        let particles = gen_particles(&mk(3));
        let exact = direct(&particles);
        let mut errs = Vec::new();
        for terms in [2, 4, 6] {
            let fmm = run_fmm(&particles, &mk(terms));
            errs.push(rel_rms(&fmm.potential, &exact.potential));
        }
        assert!(
            errs[0] > errs[1] && errs[1] > errs[2],
            "errors must decrease: {errs:?}"
        );
        assert!(errs[2] < 1e-4, "6-term error {}", errs[2]);
    }

    #[test]
    fn parallel_equals_standalone() {
        let prm = Params {
            n_particles: 600,
            levels: 2,
            terms: 4,
            mpl_chunk: 10,
            seed: 13,
        };
        let particles = gen_particles(&prm);
        let standalone = run_fmm(&particles, &prm);
        for kind in [SchedKind::Fifo, SchedKind::Df] {
            let (par, report) = ptdf::run(Config::new(4, kind), {
                let particles = particles.clone();
                move || run_fmm(&particles, &prm)
            });
            assert!(
                rel_rms(&par.potential, &standalone.potential) < 1e-13,
                "{kind:?}"
            );
            assert!(report.total_threads > 64, "{kind:?} must fork per cell");
        }
    }

    #[test]
    fn m2l_phase_allocates_dynamic_memory() {
        let prm = Params {
            n_particles: 1000,
            levels: 2,
            terms: 5,
            mpl_chunk: 5, // small chunks → many partial buffers
            seed: 14,
        };
        let particles = gen_particles(&prm);
        let (_, report) = ptdf::run(Config::new(2, SchedKind::Df), {
            let particles = particles.clone();
            move || run_fmm(&particles, &prm)
        });
        assert!(report.stats.mem.allocs > 100, "partial buffers tracked");
    }

    #[test]
    fn binning_is_a_partition() {
        let prm = Params::small();
        let particles = gen_particles(&prm);
        let (start, order) = bin_particles(&particles, prm.levels);
        assert_eq!(order.len(), particles.len());
        let mut seen = order.clone();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &v)| v == i as u32));
        assert_eq!(*start.last().unwrap() as usize, particles.len());
        // Each particle is inside its cell.
        let nc = cells_per_side(prm.levels);
        for ci in 0..nc * nc * nc {
            for &pi in &order[start[ci] as usize..start[ci + 1] as usize] {
                let c = leaf_of(particles[pi as usize].pos, prm.levels);
                assert_eq!(cell_index(prm.levels, c), ci);
            }
        }
    }

    /// M2M identity: evaluating a shifted multipole must equal evaluating
    /// the original at a well-separated point.
    #[test]
    fn m2m_shift_preserves_far_field() {
        let ctx = Ctx::new(4);
        let n1 = ctx.n1();
        // A few charges near the child center.
        let child_c = [0.25, 0.25, 0.25];
        let parent_c = [0.5, 0.5, 0.5];
        let charges = [
            ([0.22, 0.27, 0.24], 0.7),
            ([0.28, 0.23, 0.26], -0.4),
            ([0.25, 0.25, 0.29], 1.1),
        ];
        // P2M about the child.
        let mut m_child = vec![0.0; n1];
        let mut mono = vec![0.0; n1];
        for (pos, q) in charges {
            let v = [
                -(pos[0] - child_c[0]),
                -(pos[1] - child_c[1]),
                -(pos[2] - child_c[2]),
            ];
            ctx.t1.monomials(v, &mut mono);
            for a in 0..n1 {
                m_child[a] += q * mono[a] / ctx.t1.factorial[a];
            }
        }
        // M2M to the parent.
        let d = [
            -(child_c[0] - parent_c[0]),
            -(child_c[1] - parent_c[1]),
            -(child_c[2] - parent_c[2]),
        ];
        ctx.t1.monomials(d, &mut mono);
        let mut m_parent = vec![0.0; n1];
        for &(a, b, o) in &ctx.pairs1 {
            m_parent[o as usize] +=
                m_child[a as usize] * mono[b as usize] / ctx.t1.factorial[b as usize];
        }
        // Evaluate both multipoles at a far point y via the kernel jet.
        let y = [3.0, 2.5, 4.0];
        let eval = |m: &[f64], c: [f64; 3]| -> f64 {
            let t = ctx.kj.inv_r_coeffs([y[0] - c[0], y[1] - c[1], y[2] - c[2]]);
            let t2 = ctx.kj.table();
            // φ(y) = Σ_α M_α D^α G(y−c); D^α G = coeff * α!.
            ctx.t1
                .idx
                .iter()
                .enumerate()
                .map(|(a, &(i, j, k))| {
                    let p2 = t2.pos(i as usize, j as usize, k as usize).unwrap();
                    m[a] * t[p2] * t2.factorial[p2]
                })
                .sum()
        };
        let direct: f64 = charges
            .iter()
            .map(|(pos, q)| {
                let d = [y[0] - pos[0], y[1] - pos[1], y[2] - pos[2]];
                q / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
            })
            .sum();
        let via_child = eval(&m_child, child_c);
        let via_parent = eval(&m_parent, parent_c);
        assert!(
            (via_child - direct).abs() / direct.abs() < 1e-4,
            "child multipole far-field: {via_child} vs {direct}"
        );
        assert!(
            (via_parent - via_child).abs() / via_child.abs() < 1e-3,
            "M2M must preserve the far field: {via_parent} vs {via_child}"
        );
    }

    /// L2L identity: shifting a local expansion must not change its value
    /// at a shared evaluation point.
    #[test]
    fn l2l_shift_preserves_potential() {
        let ctx = Ctx::new(5);
        let n1 = ctx.n1();
        // Build a local expansion about cL from a single far charge.
        let c_l = [0.5, 0.5, 0.5];
        let src = [4.0, 3.0, 5.0];
        let q = 2.0;
        let t2 = ctx.kj.table();
        let t = ctx
            .kj
            .inv_r_coeffs([c_l[0] - src[0], c_l[1] - src[1], c_l[2] - src[2]]);
        // L_β = D_y^β [q/|y−src|] at cL = q · coeff(β)·β!.
        let mut local = vec![0.0; n1];
        for (b, &(i, j, k)) in ctx.t1.idx.iter().enumerate() {
            let p2 = t2.pos(i as usize, j as usize, k as usize).unwrap();
            local[b] = q * t[p2] * t2.factorial[p2];
        }
        // L2L to a child center.
        let c_child = [0.55, 0.45, 0.52];
        let e = [
            c_child[0] - c_l[0],
            c_child[1] - c_l[1],
            c_child[2] - c_l[2],
        ];
        let mut mono = vec![0.0; n1];
        ctx.t1.monomials(e, &mut mono);
        let mut local_child = vec![0.0; n1];
        for &(a, b, o) in &ctx.pairs1 {
            local_child[a as usize] +=
                local[o as usize] * mono[b as usize] / ctx.t1.factorial[b as usize];
        }
        // Evaluate both at the same nearby point.
        let y = [0.53, 0.49, 0.51];
        let eval = |l: &[f64], c: [f64; 3]| -> f64 {
            let v = [y[0] - c[0], y[1] - c[1], y[2] - c[2]];
            let mut mono = vec![0.0; n1];
            ctx.t1.monomials(v, &mut mono);
            l.iter()
                .zip(&mono)
                .zip(&ctx.t1.factorial)
                .map(|((l, m), f)| l * m / f)
                .sum()
        };
        let exact = {
            let d = [y[0] - src[0], y[1] - src[1], y[2] - src[2]];
            q / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt()
        };
        let at_l = eval(&local, c_l);
        let at_child = eval(&local_child, c_child);
        assert!((at_l - exact).abs() / exact < 1e-6, "{at_l} vs {exact}");
        assert!(
            (at_child - at_l).abs() / at_l.abs() < 1e-6,
            "L2L must preserve the potential: {at_child} vs {at_l}"
        );
    }

    #[test]
    fn total_charge_appears_in_root_multipole() {
        let prm = Params {
            n_particles: 500,
            levels: 2,
            terms: 4,
            mpl_chunk: 25,
            seed: 15,
        };
        let particles = gen_particles(&prm);
        let ctx = Ctx::new(prm.order());
        let (leaf_start, leaf_particles) = bin_particles(&particles, prm.levels);
        let mut tree = Tree {
            levels: prm.levels,
            n1: ctx.n1(),
            m: (0..=prm.levels)
                .map(|l| vec![0.0; cells_per_side(l).pow(3) * ctx.n1()])
                .collect(),
            l: (0..=prm.levels)
                .map(|l| vec![0.0; cells_per_side(l).pow(3) * ctx.n1()])
                .collect(),
            leaf_start,
            leaf_particles,
        };
        phase_p2m(&particles, &prm, &ctx, &mut tree);
        phase_m2m(&prm, &ctx, &mut tree);
        // M_0 at the root is the total charge (1.0) at every level.
        for level in 0..=prm.levels {
            let total: f64 = (0..cells_per_side(level).pow(3))
                .map(|c| tree.m[level][c * ctx.n1()])
                .sum();
            assert!((total - 1.0).abs() < 1e-12, "level {level}: {total}");
        }
    }
}
