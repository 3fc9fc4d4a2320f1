//! Barnes-Hut N-body simulation (paper §5.1.1, after the SPLASH-2 "Barnes"
//! application).
//!
//! Each timestep has three phases: build an octree over the bodies,
//! compute the force on every body by traversing the tree with the opening
//! criterion θ, and update positions and velocities.
//!
//! * **Fine-grained** (the paper's rewrite): the tree build forks a thread
//!   per sufficiently large octant subtree; the force phase recursively
//!   forks a thread per subtree until a subtree holds fewer than `grain`
//!   bodies (paper: ~8 leaves); the update phase forks a thread per chunk.
//!   No partitioning scheme is needed — the scheduler balances the load.
//! * **Coarse-grained** (SPLASH-2 style): one thread per processor with
//!   barriers between phases, bodies partitioned by a costzones scheme:
//!   contiguous tree-order zones of roughly equal work, weighted by each
//!   body's interaction count from the previous timestep.
//!
//! Input is the Plummer model, as in SPLASH-2.

use ptdf::{Barrier, Mutex};

use crate::util::{charge_flops_irregular, region, salt, uniform01, SharedBuf};

/// 3-vector helpers.
type V3 = [f64; 3];

fn add(a: V3, b: V3) -> V3 {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}
fn sub3(a: V3, b: V3) -> V3 {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}
fn scale(a: V3, s: f64) -> V3 {
    [a[0] * s, a[1] * s, a[2] * s]
}
fn norm2(a: V3) -> f64 {
    a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
}

/// A body.
#[derive(Debug, Clone, Copy, Default)]
pub struct Body {
    /// Position.
    pub pos: V3,
    /// Velocity.
    pub vel: V3,
    /// Mass.
    pub mass: f64,
}

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of bodies.
    pub n_bodies: usize,
    /// Simulated timesteps.
    pub timesteps: usize,
    /// Opening criterion θ (smaller = more accurate).
    pub theta: f64,
    /// Integration step.
    pub dt: f64,
    /// Bodies per octree leaf.
    pub leaf_cap: usize,
    /// Force-phase threads stop forking below this many bodies per subtree.
    pub grain: usize,
    /// Seed for the Plummer sampler.
    pub seed: u64,
}

impl Params {
    /// The paper's scale: 100k bodies (Plummer), leafy tree.
    pub fn paper() -> Self {
        Params {
            n_bodies: 100_000,
            timesteps: 2,
            theta: 0.75,
            dt: 0.025,
            leaf_cap: 8,
            grain: 64,
            seed: 0xB0D1,
        }
    }

    /// Scaled-down configuration.
    pub fn small() -> Self {
        Params {
            n_bodies: 4_000,
            timesteps: 2,
            theta: 0.75,
            dt: 0.025,
            leaf_cap: 8,
            grain: 64,
            seed: 0xB0D1,
        }
    }
}

/// Samples `n` bodies from the Plummer model (standard Aarseth sampling,
/// scale radius 1, total mass 1), truncated at radius 10.
pub fn plummer(n: usize, seed: u64) -> Vec<Body> {
    let mut s = seed;
    let mut bodies = Vec::with_capacity(n);
    while bodies.len() < n {
        let u = uniform01(&mut s).max(1e-9);
        let r = (u.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
        if r > 10.0 {
            continue;
        }
        let pos = scale(rand_dir(&mut s), r);
        // Velocity magnitude via von Neumann rejection on g(q)=q²(1-q²)^3.5.
        let q = loop {
            let q = uniform01(&mut s);
            let g = q * q * (1.0 - q * q).powf(3.5);
            if uniform01(&mut s) * 0.1 < g {
                break q;
            }
        };
        let vmag = q * std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        bodies.push(Body {
            pos,
            vel: scale(rand_dir(&mut s), vmag),
            mass: 1.0 / n as f64,
        });
    }
    bodies
}

fn rand_dir(s: &mut u64) -> V3 {
    // Marsaglia sphere point picking.
    loop {
        let x = uniform01(s) * 2.0 - 1.0;
        let y = uniform01(s) * 2.0 - 1.0;
        let k = x * x + y * y;
        if k < 1.0 {
            let f = 2.0 * (1.0 - k).sqrt();
            return [x * f, y * f, 1.0 - 2.0 * k];
        }
    }
}

/// An octree node.
#[derive(Debug)]
pub enum BhNode {
    /// Leaf holding body indices.
    Leaf {
        /// Indices of the bodies in this cell.
        bodies: Vec<u32>,
        /// Total mass.
        mass: f64,
        /// Center of mass.
        com: V3,
    },
    /// Internal cell.
    Internal {
        /// Child octants (some may be absent).
        children: [Option<Box<BhNode>>; 8],
        /// Total mass.
        mass: f64,
        /// Center of mass.
        com: V3,
        /// Cell half-width (for the opening criterion).
        half: f64,
        /// Bodies contained (for force-phase granularity decisions).
        count: usize,
    },
}

impl BhNode {
    /// Total mass.
    pub fn mass(&self) -> f64 {
        match self {
            BhNode::Leaf { mass, .. } => *mass,
            BhNode::Internal { mass, .. } => *mass,
        }
    }

    /// Center of mass.
    pub fn com(&self) -> V3 {
        match self {
            BhNode::Leaf { com, .. } => *com,
            BhNode::Internal { com, .. } => *com,
        }
    }

    /// Number of bodies.
    pub fn count(&self) -> usize {
        match self {
            BhNode::Leaf { bodies, .. } => bodies.len(),
            BhNode::Internal { count, .. } => *count,
        }
    }

    /// Number of cells in the tree.
    pub fn cells(&self) -> usize {
        match self {
            BhNode::Leaf { .. } => 1,
            BhNode::Internal { children, .. } => {
                1 + children.iter().flatten().map(|c| c.cells()).sum::<usize>()
            }
        }
    }
}

fn make_leaf(bodies: &[Body], idx: Vec<u32>) -> BhNode {
    let mut mass = 0.0;
    let mut com = [0.0; 3];
    for &i in &idx {
        let b = &bodies[i as usize];
        mass += b.mass;
        com = add(com, scale(b.pos, b.mass));
    }
    if mass > 0.0 {
        com = scale(com, 1.0 / mass);
    }
    BhNode::Leaf {
        bodies: idx,
        mass,
        com,
    }
}

/// Builds the octree over `idx` within the cell (`center`, `half`).
/// `build_stats` models the paper's mutex-protected shared tree state.
fn build_rec(
    bodies: &[Body],
    idx: Vec<u32>,
    center: V3,
    half: f64,
    p: &Params,
    parallel: bool,
    build_stats: &Mutex<usize>,
) -> BhNode {
    charge_flops_irregular(idx.len() as u64 * 6);
    {
        // The paper's fine-grained build takes a Pthread mutex to update the
        // shared, partially-built tree; we model that contended update here.
        *build_stats.lock() += 1;
    }
    if idx.len() <= p.leaf_cap || half < 1e-6 {
        return make_leaf(bodies, idx);
    }
    // Partition into octants.
    let mut parts: [Vec<u32>; 8] = Default::default();
    for &i in &idx {
        let b = bodies[i as usize].pos;
        let o = (usize::from(b[0] >= center[0]) << 2)
            | (usize::from(b[1] >= center[1]) << 1)
            | usize::from(b[2] >= center[2]);
        parts[o].push(i);
    }
    drop(idx);
    let count: usize = parts.iter().map(|v| v.len()).sum();
    let q = half / 2.0;
    let child_center = |o: usize| {
        [
            center[0] + if o & 4 != 0 { q } else { -q },
            center[1] + if o & 2 != 0 { q } else { -q },
            center[2] + if o & 1 != 0 { q } else { -q },
        ]
    };
    let mut children: [Option<Box<BhNode>>; 8] = Default::default();
    ptdf::scope(|s| {
        let mut handles = Vec::new();
        for (o, (slot, part)) in children.iter_mut().zip(parts).enumerate() {
            if part.is_empty() {
                continue;
            }
            let cc = child_center(o);
            let fork = parallel && part.len() > p.grain;
            if fork {
                let h = s.spawn(move || {
                    Box::new(build_rec(bodies, part, cc, q, p, parallel, build_stats))
                });
                handles.push((o, h));
            } else {
                *slot = Some(Box::new(build_rec(
                    bodies,
                    part,
                    cc,
                    q,
                    p,
                    parallel,
                    build_stats,
                )));
            }
        }
        for (o, h) in handles {
            children[o] = Some(h.join());
        }
    });
    let mut mass = 0.0;
    let mut com = [0.0; 3];
    for c in children.iter().flatten() {
        mass += c.mass();
        com = add(com, scale(c.com(), c.mass()));
    }
    if mass > 0.0 {
        com = scale(com, 1.0 / mass);
    }
    BhNode::Internal {
        children,
        mass,
        com,
        half,
        count,
    }
}

/// Builds the octree for the body set.
pub fn build_tree(bodies: &[Body], p: &Params, parallel: bool) -> BhNode {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for b in bodies {
        for d in 0..3 {
            lo[d] = lo[d].min(b.pos[d]);
            hi[d] = hi[d].max(b.pos[d]);
        }
    }
    let center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    let half = (0..3).map(|d| (hi[d] - lo[d]) / 2.0).fold(0.0, f64::max) + 1e-9;
    let stats = Mutex::new(0usize);
    let idx: Vec<u32> = (0..bodies.len() as u32).collect();
    build_rec(bodies, idx, center, half, p, parallel, &stats)
}

/// Gravitational acceleration on `pos` from the tree (softening ε² = 1e-4;
/// counts body-cell interactions for cost charging). Leaf cells are always
/// opened (direct sum over their bodies, excluding the target itself via
/// the softening guard).
pub fn accel_on(bodies: &[Body], pos: V3, tree: &BhNode, theta: f64, interactions: &mut u64) -> V3 {
    const EPS2: f64 = 1e-4;
    let mut acc = [0.0; 3];
    // Explicit stack walk (avoids deep fiber recursion on large trees).
    let mut stack: Vec<&BhNode> = vec![tree];
    while let Some(node) = stack.pop() {
        match node {
            BhNode::Leaf { bodies: idx, .. } => {
                for &i in idx {
                    let b = &bodies[i as usize];
                    let d = sub3(b.pos, pos);
                    let r2 = norm2(d) + EPS2;
                    if r2 > EPS2 * 1.5 {
                        let inv = b.mass / (r2 * r2.sqrt());
                        acc = add(acc, scale(d, inv));
                    }
                }
                *interactions += idx.len() as u64;
            }
            BhNode::Internal {
                children,
                mass,
                com,
                half,
                ..
            } => {
                let d = sub3(*com, pos);
                let r2 = norm2(d) + EPS2;
                if (2.0 * half) * (2.0 * half) < theta * theta * r2 {
                    let inv = mass / (r2 * r2.sqrt());
                    acc = add(acc, scale(d, inv));
                    *interactions += 1;
                } else {
                    for c in children.iter().flatten() {
                        stack.push(c);
                    }
                }
            }
        }
    }
    acc
}

/// Force phase over a subtree: recursively forks per child subtree until
/// fewer than `grain` bodies, then computes accelerations for the subtree's
/// bodies (each walking the whole tree from the root).
fn force_rec(
    bodies: &[Body],
    node: &BhNode,
    root: &BhNode,
    acc: SharedBuf<V3>,
    p: &Params,
    parallel: bool,
    path: u64,
) {
    match node {
        BhNode::Leaf { bodies: idx, .. } => {
            ptdf::touch(region(salt::BH_BODIES, path), (idx.len() * 80) as u64);
            let mut inter = 0u64;
            for &i in idx {
                let a = accel_on(bodies, bodies[i as usize].pos, root, p.theta, &mut inter);
                // SAFETY: each body index belongs to exactly one leaf.
                unsafe { acc.set(i as usize, a) };
            }
            charge_flops_irregular(inter * 22);
        }
        BhNode::Internal { children, .. } => {
            ptdf::scope(|s| {
                for (o, c) in children.iter().flatten().enumerate() {
                    let child_path = path * 8 + o as u64 + 1;
                    if parallel && c.count() > p.grain {
                        s.spawn(move || force_rec(bodies, c, root, acc, p, parallel, child_path));
                    } else {
                        force_rec(bodies, c, root, acc, p, parallel, child_path);
                    }
                }
            });
        }
    }
}

/// One simulation timestep (build, force, update). Returns the tree cell
/// count (for stats). `parallel` selects fine-grained forking.
pub fn step(bodies: &mut [Body], p: &Params, parallel: bool) -> usize {
    let tree = build_tree(bodies, p, parallel);
    let cells = tree.cells();
    let n = bodies.len();
    let mut acc = vec![[0.0f64; 3]; n];
    {
        let av = SharedBuf::new(&mut acc);
        force_rec(bodies, &tree, &tree, av, p, parallel, 0);
    }
    // Update phase: thread per chunk.
    let chunk = p.grain.max(1) * 4;
    {
        let bv = SharedBuf::new(bodies);
        let av = SharedBuf::new(&mut acc);
        ptdf::scope(|s| {
            let mut lo = 0;
            while lo < n {
                let hi = (lo + chunk).min(n);
                let dt = p.dt;
                let body = move || {
                    for i in lo..hi {
                        // SAFETY: disjoint index ranges per thread.
                        unsafe {
                            let mut b = bv.get(i);
                            let a = av.get(i);
                            b.vel = add(b.vel, scale(a, dt));
                            b.pos = add(b.pos, scale(b.vel, dt));
                            bv.set(i, b);
                        }
                    }
                    charge_flops_irregular((hi - lo) as u64 * 12);
                };
                if parallel {
                    s.spawn(body);
                } else {
                    body();
                }
                lo = hi;
            }
        });
    }
    cells
}

/// Runs the fine-grained simulation for `p.timesteps` steps.
pub fn run_fine(bodies: &mut [Body], p: &Params) {
    for _ in 0..p.timesteps {
        step(bodies, p, true);
    }
}

/// Coarse-grained (SPLASH-2 style) simulation: one thread per processor,
/// barriers between phases, bodies partitioned in tree (Morton-ish) order
/// weighted by the previous step's per-chunk interaction counts — the
/// costzones approximation.
pub fn run_coarse(bodies: &mut [Body], p: &Params, procs: usize) {
    let n = bodies.len();
    // Costzones state: per-body work weight from the previous timestep's
    // interaction counts (uniform on the first step), as in SPLASH-2.
    let mut weights: Vec<u32> = vec![1; n];
    for _ in 0..p.timesteps {
        // Phase 1: tree build (parallel over octant subtrees with the
        // mutex-guarded shared state, like the SPLASH-2 lock-based build).
        let tree = build_tree(bodies, p, true);
        // Collect leaf body order (tree order ≈ spatial locality).
        let mut order = Vec::with_capacity(n);
        collect_tree_order(&tree, &mut order);
        // Costzones partition: contiguous tree-order ranges of roughly
        // equal previous-step work.
        let total: u64 = order.iter().map(|&i| weights[i as usize] as u64).sum();
        let per = total.div_ceil(procs as u64).max(1);
        let mut cuts = Vec::with_capacity(procs + 1);
        cuts.push(0usize);
        let mut acc_w = 0u64;
        for (pos, &i) in order.iter().enumerate() {
            acc_w += weights[i as usize] as u64;
            if acc_w >= per && cuts.len() < procs {
                cuts.push(pos + 1);
                acc_w = 0;
            }
        }
        while cuts.len() < procs {
            cuts.push(n);
        }
        cuts.push(n);
        // Phase 2: forces over the costzones, one long-lived thread each.
        let mut acc = vec![[0.0f64; 3]; n];
        let mut new_weights: Vec<u32> = vec![1; n];
        {
            let av = SharedBuf::new(&mut acc);
            let wv = SharedBuf::new(&mut new_weights);
            let tree = &tree;
            let order = &order;
            let cuts = &cuts;
            let bodies2: &[Body] = bodies;
            let barrier = Barrier::new(procs);
            ptdf::scope(|s| {
                for t in 0..procs {
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        let (lo, hi) = (cuts[t], cuts[t + 1]);
                        let mut total_inter = 0u64;
                        ptdf::touch(region(salt::BH_BODIES, t as u64), ((hi - lo) * 80) as u64);
                        for &i in &order[lo..hi] {
                            let mut inter = 0u64;
                            let a = accel_on(
                                bodies2,
                                bodies2[i as usize].pos,
                                tree,
                                p.theta,
                                &mut inter,
                            );
                            // SAFETY: disjoint body sets per thread.
                            unsafe {
                                av.set(i as usize, a);
                                wv.set(i as usize, inter.min(u32::MAX as u64) as u32);
                            }
                            total_inter += inter;
                        }
                        charge_flops_irregular(total_inter * 22);
                        barrier.wait();
                    });
                }
            });
        }
        weights = new_weights;
        // Phase 3: update.
        for (b, a) in bodies.iter_mut().zip(&acc) {
            b.vel = add(b.vel, scale(*a, p.dt));
            b.pos = add(b.pos, scale(b.vel, p.dt));
        }
        charge_flops_irregular(n as u64 * 12);
    }
}

fn collect_tree_order(node: &BhNode, out: &mut Vec<u32>) {
    match node {
        BhNode::Leaf { bodies, .. } => out.extend_from_slice(bodies),
        BhNode::Internal { children, .. } => {
            for c in children.iter().flatten() {
                collect_tree_order(c, out);
            }
        }
    }
}

/// Direct O(n²) accelerations for verification.
pub fn direct_accels(bodies: &[Body]) -> Vec<V3> {
    const EPS2: f64 = 1e-4;
    bodies
        .iter()
        .map(|bi| {
            let mut a = [0.0; 3];
            for bj in bodies {
                let d = sub3(bj.pos, bi.pos);
                let r2 = norm2(d) + EPS2;
                if r2 > EPS2 * 1.5 {
                    a = add(a, scale(d, bj.mass / (r2 * r2.sqrt())));
                }
            }
            a
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn plummer_statistics() {
        let bodies = plummer(20_000, 1);
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        assert!((total_mass - 1.0).abs() < 1e-9);
        // Half-mass radius of a (untruncated) Plummer sphere ≈ 1.30.
        let mut radii: Vec<f64> = bodies.iter().map(|b| norm2(b.pos).sqrt()).collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let half_mass_r = radii[radii.len() / 2];
        assert!(
            (1.0..1.6).contains(&half_mass_r),
            "half-mass radius {half_mass_r}"
        );
        // Center of mass near origin.
        let com: V3 = bodies
            .iter()
            .fold([0.0; 3], |acc, b| add(acc, scale(b.pos, b.mass)));
        assert!(norm2(com).sqrt() < 0.1);
    }

    #[test]
    fn tree_partitions_all_bodies() {
        let p = Params::small();
        let bodies = plummer(2000, 2);
        let tree = build_tree(&bodies, &p, false);
        assert_eq!(tree.count(), 2000);
        let mut order = Vec::new();
        collect_tree_order(&tree, &mut order);
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &v)| v == i as u32));
        assert!((tree.mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bh_accels_close_to_direct() {
        let mut p = Params::small();
        p.theta = 0.3; // accuracy mode for the check
        let bodies = plummer(500, 3);
        let tree = build_tree(&bodies, &p, false);
        let direct = direct_accels(&bodies);
        let mut err_num = 0.0;
        let mut err_den = 0.0;
        let mut inter = 0;
        for (b, d) in bodies.iter().zip(&direct) {
            let a = accel_on(&bodies, b.pos, &tree, p.theta, &mut inter);
            err_num += norm2(sub3(a, *d));
            err_den += norm2(*d);
        }
        let rel = (err_num / err_den).sqrt();
        assert!(rel < 0.02, "relative force error {rel}");
    }

    #[test]
    fn fine_and_coarse_agree() {
        let p = Params {
            n_bodies: 800,
            timesteps: 2,
            grain: 50,
            ..Params::small()
        };
        let init = plummer(p.n_bodies, 4);
        let (fine, _) = ptdf::run(Config::new(4, SchedKind::Df), {
            let mut b = init.clone();
            move || {
                run_fine(&mut b, &p);
                b
            }
        });
        let (coarse, _) = ptdf::run(Config::new(4, SchedKind::Fifo), {
            let mut b = init.clone();
            move || {
                run_coarse(&mut b, &p, 4);
                b
            }
        });
        for (f, c) in fine.iter().zip(&coarse) {
            assert!(norm2(sub3(f.pos, c.pos)) < 1e-18);
        }
    }

    #[test]
    fn fine_forks_many_threads_and_df_bounds_them() {
        let p = Params {
            n_bodies: 3000,
            timesteps: 1,
            grain: 32,
            ..Params::small()
        };
        let bodies = plummer(p.n_bodies, 5);
        let (_, report) = ptdf::run(Config::new(8, SchedKind::Df), {
            let mut b = bodies.clone();
            move || run_fine(&mut b, &p)
        });
        assert!(report.total_threads > 50, "forked {}", report.total_threads);
        assert!(
            report.max_live_threads() < report.total_threads as u64 / 2,
            "DF should not keep all threads live: {} of {}",
            report.max_live_threads(),
            report.total_threads
        );
    }

    #[test]
    fn momentum_roughly_conserved_over_step() {
        let p = Params {
            n_bodies: 1000,
            timesteps: 1,
            ..Params::small()
        };
        let mut bodies = plummer(p.n_bodies, 6);
        let p0: V3 = bodies
            .iter()
            .fold([0.0; 3], |acc, b| add(acc, scale(b.vel, b.mass)));
        step(&mut bodies, &p, false);
        let p1: V3 = bodies
            .iter()
            .fold([0.0; 3], |acc, b| add(acc, scale(b.vel, b.mass)));
        // Approximate (tree) forces are not exactly pairwise-antisymmetric,
        // but momentum drift per step must be small.
        assert!(norm2(sub3(p1, p0)).sqrt() < 1e-3);
    }
}
