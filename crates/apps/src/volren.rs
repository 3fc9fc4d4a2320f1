//! Volume rendering by ray casting (paper §5.1.6, after the SPLASH-2
//! `volrend` application).
//!
//! A `256³` voxel volume is rendered into a `375²` image by casting one ray
//! per pixel, sampling the volume front-to-back with trilinear
//! interpolation, compositing opacity, and terminating rays early once
//! nearly opaque. A min-max octree over the volume skips empty space. The
//! image plane is divided into 4×4-pixel tiles (8,836 tiles at full size):
//!
//! * **Fine-grained** (the paper's rewrite): one thread per group of
//!   `tiles_per_thread` tiles (64 in Figure 8; swept 10–260 in Figure 11).
//! * **Coarse-grained** (SPLASH-2): one thread per processor owning a
//!   contiguous block of tiles, with explicit task queues and stealing via
//!   mutexes.
//!
//! The paper's CT-head dataset is proprietary; [`gen_volume`] builds a
//! synthetic head phantom (nested ellipsoid shells: skin, skull, brain,
//! ventricles) with the same dimensions and non-uniformity (see DESIGN.md).

use ptdf::Mutex;

use crate::util::{charge_flops_irregular, region, salt, SharedBuf};

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Volume edge length (voxels).
    pub size: usize,
    /// Image edge length (pixels).
    pub image: usize,
    /// Tiles per fine-grained thread (Figure 11's granularity knob).
    pub tiles_per_thread: usize,
    /// Early-termination opacity threshold.
    pub opacity_cutoff: f32,
}

/// Tile edge (pixels); the paper uses 4.
const TILE: usize = 4;

/// View angle (radians) around the vertical axis of every render. The ray
/// kernel [`cast_ray`] takes the angle as an argument so that a test can
/// drive it from every side of the volume.
pub const VIEW_ANGLE: f32 = 0.5;

impl Params {
    /// The paper's scale: 256³ volume, 375² image, 4×4 tiles, 64
    /// tiles/thread.
    pub fn paper() -> Self {
        Params {
            size: 256,
            image: 375,
            tiles_per_thread: 64,
            opacity_cutoff: 0.98,
        }
    }

    /// Scaled-down configuration.
    pub fn small() -> Self {
        Params {
            size: 64,
            image: 96,
            tiles_per_thread: 16,
            opacity_cutoff: 0.98,
        }
    }

    /// Number of tiles along one image edge.
    pub fn tiles_per_side(&self) -> usize {
        self.image.div_ceil(TILE)
    }

    /// Total tile count.
    pub fn total_tiles(&self) -> usize {
        self.tiles_per_side() * self.tiles_per_side()
    }
}

/// A density volume (u8 voxels) with a min-max octree.
#[derive(Debug, Clone)]
pub struct Volume {
    /// Edge length.
    pub size: usize,
    /// Voxel densities, x-major: `data[(z*size + y)*size + x]`.
    pub data: Vec<u8>,
    /// Min-max octree levels, finest first: each entry is `(min, max)` per
    /// block; level k has blocks of edge `block << k`.
    octree: Vec<Vec<(u8, u8)>>,
    /// Finest octree block edge (voxels).
    block: usize,
    /// Finest-level blocks along one axis: `size / block`, rounded up.
    per: usize,
    /// `x / block` for every voxel coordinate `x`.
    block_of: Vec<u32>,
    /// The march's `t` before a ray's first octree skip: the f32 running
    /// sum of `STEP` from 0, every value below `3 · size`. Every ray
    /// shares it.
    grid: Vec<f32>,
}

/// The ray march's step along `t`.
const STEP: f32 = 0.8;

impl Volume {
    #[cfg(test)]
    fn at(&self, x: usize, y: usize, z: usize) -> u8 {
        self.data[(z * self.size + y) * self.size + x]
    }

    /// The finest octree block edge (voxels) and the min-max levels,
    /// finest first.
    pub fn octree(&self) -> (usize, &[Vec<(u8, u8)>]) {
        (self.block, &self.octree)
    }

    /// Trilinear interpolation at `p` in [0, size − 1)³ from the eight
    /// voxels at `c = p` truncated, read through one bounds-checked slice.
    /// The weights multiply x, y, z in that order and the corners add x
    /// fastest, then y, then z.
    ///
    /// Always inlined: as a call it receives `p` and `c` through memory and
    /// reloads them as vectors the stores cannot forward to, and the ray
    /// casts ran 1.19× slower.
    #[inline(always)]
    fn trilinear(&self, p: [f32; 3], c: [usize; 3]) -> f32 {
        let (row, plane) = (self.size, self.size * self.size);
        let (fx, fy, fz) = (p[0] - c[0] as f32, p[1] - c[1] as f32, p[2] - c[2] as f32);
        let (gx, gy, gz) = (1.0 - fx, 1.0 - fy, 1.0 - fz);
        let base = (c[2] * row + c[1]) * row + c[0];
        let cube = &self.data[base..base + plane + row + 2];
        let v = |i: usize| cube[i] as f32;
        let mut acc = 0.0f32;
        acc += gx * gy * gz * v(0);
        acc += fx * gy * gz * v(1);
        acc += gx * fy * gz * v(row);
        acc += fx * fy * gz * v(row + 1);
        acc += gx * gy * fz * v(plane);
        acc += fx * gy * fz * v(plane + 1);
        acc += gx * fy * fz * v(plane + row);
        acc += fx * fy * fz * v(plane + row + 1);
        acc
    }

    /// Max density over the finest octree block containing voxel `c`.
    #[inline(always)]
    fn block_max(&self, c: [usize; 3]) -> u8 {
        let [bx, by, bz] = c.map(|x| self.block_of[x] as usize);
        self.octree[0][(bz * self.per + by) * self.per + bx].1
    }
}

/// Builds the synthetic CT-head phantom: nested ellipsoid shells.
pub fn gen_volume(size: usize) -> Volume {
    let mut data = vec![0u8; size * size * size];
    let c = size as f32 / 2.0;
    // Ellipsoid radii (relative to half-size): skin, skull, brain,
    // ventricles.
    let shells: [([f32; 3], u8); 4] = [
        ([0.90, 0.80, 0.95], 40),  // skin / soft tissue
        ([0.80, 0.70, 0.85], 230), // skull (dense bone shell)
        ([0.74, 0.64, 0.79], 90),  // brain
        ([0.25, 0.18, 0.30], 15),  // ventricles (low density)
    ];
    for z in 0..size {
        for y in 0..size {
            for x in 0..size {
                let p = [
                    (x as f32 - c) / c,
                    (y as f32 - c) / c,
                    (z as f32 - c * 0.9) / c,
                ];
                let mut v = 0u8;
                for (r, dens) in shells {
                    let d = (p[0] / r[0]).powi(2) + (p[1] / r[1]).powi(2) + (p[2] / r[2]).powi(2);
                    if d <= 1.0 {
                        v = dens;
                    }
                }
                data[(z * size + y) * size + x] = v;
            }
        }
    }
    build_octree(size, data)
}

/// Any `size` is accepted: block counts are rounded up at every level, so
/// the last block along an axis is short when `block` does not divide `size`
/// and the last parent has one child when a level's count is odd.
fn build_octree(size: usize, data: Vec<u8>) -> Volume {
    let block = (size / 8).max(4);
    let per = size.div_ceil(block);
    let mut level0 = vec![(u8::MAX, u8::MIN); per * per * per];
    for z in 0..size {
        for y in 0..size {
            for x in 0..size {
                let v = data[(z * size + y) * size + x];
                let b = ((z / block) * per + (y / block)) * per + (x / block);
                let e = &mut level0[b];
                e.0 = e.0.min(v);
                e.1 = e.1.max(v);
            }
        }
    }
    // Coarser levels by 2× reduction.
    let mut octree = vec![level0];
    let mut cur_per = per;
    while cur_per > 1 {
        let next_per = cur_per.div_ceil(2);
        let prev = octree.last().unwrap();
        let mut next = vec![(u8::MAX, u8::MIN); next_per * next_per * next_per];
        for z in 0..cur_per {
            for y in 0..cur_per {
                for x in 0..cur_per {
                    let v = prev[(z * cur_per + y) * cur_per + x];
                    let e = &mut next[((z / 2) * next_per + (y / 2)) * next_per + (x / 2)];
                    e.0 = e.0.min(v.0);
                    e.1 = e.1.max(v.1);
                }
            }
        }
        octree.push(next);
        cur_per = next_per;
    }
    let t_max = 3.0 * size as f32;
    let grid = std::iter::successors(Some(0.0f32), |t| Some(t + STEP))
        .take_while(|&t| t < t_max)
        .collect();
    Volume {
        size,
        data,
        octree,
        block,
        per,
        block_of: (0..size).map(|x| (x / block) as u32).collect(),
        grid,
    }
}

/// Transfer function: opacity and brightness per sampled density.
#[inline]
fn transfer(d: f32) -> (f32, f32) {
    // Bone bright and opaque, soft tissue translucent, air invisible.
    if d < 20.0 {
        (0.0, 0.0)
    } else if d < 60.0 {
        (0.02, 0.3)
    } else if d < 150.0 {
        (0.06, 0.5)
    } else {
        (0.35, 1.0)
    }
}

/// Casts the ray for pixel `(px, py)` of a view from `view_angle` radians
/// around the vertical axis; returns (intensity, samples taken).
///
/// The ray marches `t` from 0 in steps of 0.8 while `t < 3 · size`,
/// counting one sample per step. A step inside the volume (every coordinate
/// in [1, size − 1)) skips half a block through an octree block with max
/// < 20, and otherwise samples, composites and may end the ray. Each
/// coordinate of `start + dir · t` is monotone in `t` in f32, so the inside
/// steps are one interval: the steps before it lie on the shared grid `t_k`
/// and a binary search finds its first, and the steps after it only count.
pub fn cast_ray(vol: &Volume, p: &Params, view_angle: f32, px: usize, py: usize) -> (f32, u32) {
    let n = vol.size as f32;
    let (sin, cos) = view_angle.sin_cos();
    // Orthographic camera: image plane axes u (rotated x/z) and v (y).
    let scale = n / p.image as f32;
    let u = (px as f32 + 0.5) * scale - n / 2.0;
    let v = (py as f32 + 0.5) * scale - n / 2.0;
    let dir = [-sin, 0.0, -cos];
    let center = [n / 2.0, n / 2.0, n / 2.0];
    let right = [cos, 0.0, -sin];
    // Start well outside the volume, march in.
    let start = [
        center[0] + right[0] * u - dir[0] * n,
        center[1] + v,
        center[2] + right[2] * u - dir[2] * n,
    ];
    let at = |t: f32| [0, 1, 2].map(|c| start[c] + dir[c] * t);
    let inside = |pos: [f32; 3]| pos.iter().all(|&x| x >= 1.0 && x < n - 1.0);
    // Per coordinate, the bound the ray crosses first holds from some step
    // on: the ray has entered once all three do.
    let entered = |t: f32| {
        let pos = at(t);
        (0..3).all(|c| {
            if dir[c] >= 0.0 {
                pos[c] >= 1.0
            } else {
                pos[c] < n - 1.0
            }
        })
    };
    let grid = &vol.grid;
    let first = grid.partition_point(|&t| !entered(t));
    // The other bound, once broken, stays broken: a ray not inside at its
    // first entered step never is.
    if first == grid.len() || !inside(at(grid[first])) {
        return (0.0, grid.len() as u32);
    }
    let t_max = 3.0 * n;
    let skip = vol.block as f32 * 0.5;
    let mut t = grid[first];
    let mut samples = first as u32;
    let mut transparency = 1.0f32;
    let mut intensity = 0.0f32;
    while t < t_max {
        let pos = at(t);
        if !inside(pos) {
            break;
        }
        samples += 1;
        let c = pos.map(|x| x as usize);
        // Empty-space skipping via the min-max octree.
        if vol.block_max(c) < 20 {
            t += skip;
            continue;
        }
        let (alpha, bright) = transfer(vol.trilinear(pos, c));
        if alpha > 0.0 {
            let a = alpha * STEP;
            intensity += transparency * a * bright * 255.0;
            transparency *= 1.0 - a;
            if 1.0 - transparency > p.opacity_cutoff {
                return (intensity.min(255.0), samples); // early ray termination
            }
        }
        t += STEP;
    }
    // Past the exit every step is outside.
    while t < t_max {
        samples += 1;
        t += STEP;
    }
    (intensity.min(255.0), samples)
}

/// Renders the tiles in `tiles` (tile indices) into the shared image.
/// Returns sample count (work proxy).
fn render_tiles(vol: &Volume, p: &Params, tiles: &[usize], img: SharedBuf<f32>) -> u64 {
    let tps = p.tiles_per_side();
    let mut total_samples = 0u64;
    for &tidx in tiles {
        let tx = (tidx % tps) * TILE;
        let ty = (tidx / tps) * TILE;
        // Locality: a ray traverses a column of volume blocks, and
        // neighbouring tiles traverse mostly the same column. Touch the
        // blocks along the tile's central ray so the cache model sees the
        // real working set (this is what penalizes very fine thread
        // granularity, paper Figure 11).
        {
            let n = vol.size as f32;
            let (sin, cos) = VIEW_ANGLE.sin_cos();
            let scale = n / p.image as f32;
            let u = (tx as f32 + TILE as f32 / 2.0) * scale - n / 2.0;
            let v = (ty as f32 + TILE as f32 / 2.0) * scale - n / 2.0;
            let dir = [-sin, 0.0, -cos];
            let center = [n / 2.0, n / 2.0, n / 2.0];
            let right = [cos, 0.0, -sin];
            let start = [
                center[0] + right[0] * u,
                center[1] + v,
                center[2] + right[2] * u,
            ];
            // Locality regions are finer than the octree skip blocks so a
            // tile group's working set fits in one processor's cache and
            // reuse across *neighbouring* groups is what placement decides.
            let lb = (vol.block / 2).max(4);
            let per = vol.size / lb;
            let bytes = (lb * lb * lb) as u64;
            let steps = per * 2;
            for step in 0..steps {
                let t = (step as f32 + 0.5 - steps as f32 / 2.0) * lb as f32;
                let pos = [
                    start[0] + dir[0] * t,
                    start[1] + dir[1] * t,
                    start[2] + dir[2] * t,
                ];
                let inside = pos.iter().all(|&c| c >= 0.0 && c < n);
                if inside {
                    let bx = (pos[0] as usize / lb).min(per - 1);
                    let by = (pos[1] as usize / lb).min(per - 1);
                    let bz = (pos[2] as usize / lb).min(per - 1);
                    let id = ((bz * per + by) * per + bx) as u64;
                    ptdf::touch(region(salt::VOLREN, id), bytes);
                }
            }
        }
        for py in ty..(ty + TILE).min(p.image) {
            for px in tx..(tx + TILE).min(p.image) {
                let (val, samples) = cast_ray(vol, p, VIEW_ANGLE, px, py);
                // SAFETY: each pixel belongs to exactly one tile, and each
                // tile to exactly one thread.
                unsafe { img.set(py * p.image + px, val) };
                total_samples += samples as u64;
            }
        }
    }
    charge_flops_irregular(total_samples * 12);
    total_samples
}

/// Fine-grained render: one thread per `tiles_per_thread` consecutive
/// tiles; the scheduler balances the irregular ray costs.
pub fn render_fine(vol: &Volume, p: &Params) -> Vec<f32> {
    let mut img = vec![0.0f32; p.image * p.image];
    let total = p.total_tiles();
    let tiles: Vec<usize> = (0..total).collect();
    {
        let iv = SharedBuf::new(&mut img);
        let groups: Vec<&[usize]> = tiles.chunks(p.tiles_per_thread.max(1)).collect();
        let groups = &groups;
        crate::util::fork_each(0, groups.len(), |g| {
            render_tiles(vol, p, groups[g], iv);
        });
    }
    img
}

/// Coarse-grained render (SPLASH-2 style): one thread per processor with an
/// explicit per-processor task queue of tiles; idle threads steal from
/// other queues through mutexes.
pub fn render_coarse(vol: &Volume, p: &Params, procs: usize) -> Vec<f32> {
    let mut img = vec![0.0f32; p.image * p.image];
    let total = p.total_tiles();
    // Static blocks of tiles, one queue per processor.
    let queues: Vec<Mutex<Vec<usize>>> = (0..procs)
        .map(|t| {
            let lo = t * total / procs;
            let hi = (t + 1) * total / procs;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    {
        let iv = SharedBuf::new(&mut img);
        let queues = &queues;
        ptdf::scope(|s| {
            for t in 0..procs {
                s.spawn(move || loop {
                    // Own queue first, then steal.
                    let mut tile = queues[t].lock().pop();
                    if tile.is_none() {
                        for (v, q) in queues.iter().enumerate() {
                            if v == t {
                                continue;
                            }
                            tile = q.lock().pop();
                            if tile.is_some() {
                                break;
                            }
                        }
                    }
                    match tile {
                        Some(tidx) => {
                            render_tiles(vol, p, &[tidx], iv);
                        }
                        None => break,
                    }
                });
            }
        });
    }
    img
}

/// Serial reference render (no threading structures at all).
pub fn render_reference(vol: &Volume, p: &Params) -> Vec<f32> {
    let mut img = vec![0.0f32; p.image * p.image];
    for py in 0..p.image {
        for px in 0..p.image {
            img[py * p.image + px] = cast_ray(vol, p, VIEW_ANGLE, px, py).0;
        }
    }
    img
}

/// Writes the image as a binary PGM (for the example binary).
pub fn to_pgm(img: &[f32], edge: usize) -> Vec<u8> {
    let mut out = format!("P5\n{edge} {edge}\n255\n").into_bytes();
    out.extend(img.iter().map(|&v| v.clamp(0.0, 255.0) as u8));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn phantom_has_structure() {
        let vol = gen_volume(64);
        // Dense skull shell present.
        assert!(vol.data.contains(&230));
        // Air outside.
        assert_eq!(vol.at(0, 0, 0), 0);
        // Center should be brain or ventricle (not air, not bone).
        let c = 32;
        let center = vol.at(c, c, c);
        assert!(center > 0 && center < 230, "center density {center}");
    }

    /// Every voxel lies within the (min, max) of its block at every level,
    /// also where the last block of a row is short (36 = 9 blocks of 4,
    /// then 5, 3, 2, 1 a side) or overhangs the volume (100 = 9 of 12).
    #[test]
    fn octree_min_max_sound() {
        for size in [64, 36, 100] {
            let vol = gen_volume(size);
            assert_eq!(vol.octree.last().map(Vec::len), Some(1), "size {size}");
            for (k, level) in vol.octree.iter().enumerate() {
                let edge = vol.block << k;
                let per = size.div_ceil(edge);
                assert_eq!(level.len(), per * per * per, "size {size}, level {k}");
                for z in 0..size {
                    for y in 0..size {
                        for x in 0..size {
                            let (mn, mx) = level[((z / edge) * per + y / edge) * per + x / edge];
                            let v = vol.at(x, y, z);
                            assert!(mn <= v && v <= mx, "size {size}, level {k}");
                        }
                    }
                }
            }
        }
    }

    /// `gen_volume` used to index past its octree for most sizes that are
    /// not a power of two (20, 30, 36, 100, ...).
    #[test]
    fn every_volume_size_builds_and_renders() {
        for size in (8..=72).step_by(4) {
            let p = Params {
                size,
                image: 24,
                ..Params::small()
            };
            let img = render_reference(&gen_volume(size), &p);
            assert!(img.iter().any(|&v| v > 10.0), "size {size}: empty image");
        }
    }

    #[test]
    fn image_is_nontrivial() {
        let p = Params::small();
        let vol = gen_volume(p.size);
        let img = render_reference(&vol, &p);
        let lit = img.iter().filter(|&&v| v > 10.0).count();
        assert!(
            lit > img.len() / 20,
            "head should occupy a chunk of the frame: {lit}/{}",
            img.len()
        );
        let dark = img.iter().filter(|&&v| v < 1.0).count();
        assert!(dark > img.len() / 10, "background should be dark: {dark}");
    }

    #[test]
    fn fine_coarse_and_reference_agree() {
        let p = Params::small();
        let vol = gen_volume(p.size);
        let want = render_reference(&vol, &p);
        let (fine, _) = ptdf::run(Config::new(4, SchedKind::Df), {
            let vol = vol.clone();
            move || render_fine(&vol, &p)
        });
        assert_eq!(fine, want);
        let (coarse, _) = ptdf::run(Config::new(4, SchedKind::Fifo), {
            let vol = vol.clone();
            move || render_coarse(&vol, &p, 4)
        });
        assert_eq!(coarse, want);
    }

    #[test]
    fn early_termination_saves_samples() {
        let p = Params::small();
        let vol = gen_volume(p.size);
        let mut with = 0u64;
        let mut without = 0u64;
        let p_no = Params {
            opacity_cutoff: 2.0, // never triggers
            ..p
        };
        for py in (0..p.image).step_by(7) {
            for px in (0..p.image).step_by(7) {
                with += cast_ray(&vol, &p, VIEW_ANGLE, px, py).1 as u64;
                without += cast_ray(&vol, &p_no, VIEW_ANGLE, px, py).1 as u64;
            }
        }
        assert!(with < without, "early termination must cut samples");
    }

    #[test]
    fn pgm_output_is_well_formed() {
        let img = vec![0.0f32, 127.5, 255.0, 300.0];
        let pgm = to_pgm(&img, 2);
        let header_end = pgm.iter().filter(|&&b| b == b'\n').count();
        assert!(header_end >= 3);
        assert!(pgm.starts_with(b"P5\n2 2\n255\n"));
        let pixels = &pgm[pgm.len() - 4..];
        assert_eq!(pixels, &[0u8, 127, 255, 255], "values clamped to u8");
    }

    #[test]
    fn tile_math() {
        let p = Params::paper();
        assert_eq!(p.tiles_per_side(), 94);
        assert_eq!(p.total_tiles(), 8836); // the paper's 8836 tiles
    }

    #[test]
    fn granularity_affects_thread_count_not_image() {
        let base = Params::small();
        let vol = gen_volume(base.size);
        let want = render_reference(&vol, &base);
        let mut counts = Vec::new();
        for tpt in [4, 32] {
            let p = Params {
                tiles_per_thread: tpt,
                ..base
            };
            let (img, report) = ptdf::run(Config::new(4, SchedKind::Df), {
                let vol = vol.clone();
                move || render_fine(&vol, &p)
            });
            assert_eq!(img, want, "tiles_per_thread={tpt}");
            counts.push(report.total_threads);
        }
        assert!(counts[0] > counts[1] * 4);
    }
}
