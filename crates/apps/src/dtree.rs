//! Decision tree builder (paper §5.1.3): ID3 with C4.5-style handling of
//! continuous attributes via gain-ratio splits.
//!
//! The tree is built top-down; at each node the instances are *sorted by
//! each attribute* (a parallel divide-and-conquer quicksort, forking a
//! thread per recursive call) to find the best binary split. A thread is
//! forked for each recursive tree-builder call as well; both recursions
//! switch to serial execution below 2,000 instances, per the paper. The
//! resulting computation graph is highly irregular and data dependent,
//! which is why the paper chose it — and the per-node index buffers are the
//! dynamically allocated memory that Figure 9(b) measures.
//!
//! The paper's input was a proprietary speech-recognition dataset (133,999
//! instances, 4 continuous attributes, boolean class); [`gen_dataset`]
//! substitutes a seeded Gaussian-mixture set of the same shape (see
//! DESIGN.md).

use ptdf::TrackedBuf;

use crate::util::{charge_flops_irregular, region, salt, splitmix64, uniform01};

/// Problem parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of instances.
    pub instances: usize,
    /// Number of continuous attributes.
    pub attrs: usize,
    /// Below this many instances, recursion (tree and quicksort) is serial.
    pub min_split: usize,
    /// Maximum tree depth.
    pub max_depth: u32,
    /// Seed.
    pub seed: u64,
}

impl Params {
    /// The paper's scale: 133,999 × 4, serial below 2,000 instances.
    pub fn paper() -> Self {
        Params {
            instances: 133_999,
            attrs: 4,
            min_split: 2_000,
            max_depth: 16,
            seed: 0xD7,
        }
    }

    /// Scaled-down configuration (keeps the instances/min_split ratio near
    /// the paper's 134k/2000 so the recursion shape is comparable).
    pub fn small() -> Self {
        Params {
            instances: 40_000,
            attrs: 4,
            min_split: 1_500,
            max_depth: 14,
            seed: 0xD7,
        }
    }
}

/// A labelled dataset with continuous attributes (row-major).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Attribute matrix, `n × attrs`.
    pub x: Vec<f32>,
    /// Boolean class labels.
    pub y: Vec<bool>,
    /// Instance count.
    pub n: usize,
    /// Attribute count.
    pub attrs: usize,
}

impl Dataset {
    #[inline]
    fn attr(&self, i: usize, a: usize) -> f32 {
        self.x[i * self.attrs + a]
    }
}

/// Generates a Gaussian-mixture classification set: each class is a mixture
/// of three axis-aligned Gaussians with random centers, plus 5% label
/// noise — separable enough to grow a deep, irregular tree.
pub fn gen_dataset(p: &Params) -> Dataset {
    let mut s = p.seed;
    let gauss = |s: &mut u64| {
        // Box-Muller.
        let u1 = uniform01(s).max(1e-12);
        let u2 = uniform01(s);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    // Three mixture centers per class.
    let centers: Vec<Vec<f64>> = (0..2 * 3)
        .map(|_| (0..p.attrs).map(|_| uniform01(&mut s) * 10.0).collect())
        .collect();
    let mut x = Vec::with_capacity(p.instances * p.attrs);
    let mut y = Vec::with_capacity(p.instances);
    for _ in 0..p.instances {
        let class = uniform01(&mut s) < 0.5;
        let comp = (splitmix64(&mut s) % 3) as usize + if class { 3 } else { 0 };
        for center in centers[comp].iter().take(p.attrs) {
            let v = center + gauss(&mut s) * 1.2;
            x.push(v as f32);
        }
        let noisy = uniform01(&mut s) < 0.05;
        y.push(class != noisy);
    }
    Dataset {
        x,
        y,
        n: p.instances,
        attrs: p.attrs,
    }
}

/// A decision tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Leaf predicting `label`; `count` training instances reached it.
    Leaf {
        /// Majority label.
        label: bool,
        /// Training instances at this leaf.
        count: usize,
    },
    /// Binary split: `attr < threshold` goes left.
    Split {
        /// Attribute index.
        attr: usize,
        /// Split threshold.
        threshold: f32,
        /// Left subtree (attr < threshold).
        left: Box<Node>,
        /// Right subtree.
        right: Box<Node>,
    },
}

impl Node {
    /// Classifies one instance (a slice of `attrs` values).
    pub fn classify(&self, row: &[f32]) -> bool {
        match self {
            Node::Leaf { label, .. } => *label,
            Node::Split {
                attr,
                threshold,
                left,
                right,
            } => {
                if row[*attr] < *threshold {
                    left.classify(row)
                } else {
                    right.classify(row)
                }
            }
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.size() + right.size(),
        }
    }

    /// Depth of the tree.
    pub fn depth(&self) -> u32 {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

fn entropy(pos: usize, total: usize) -> f64 {
    if total == 0 || pos == 0 || pos == total {
        return 0.0;
    }
    let p = pos as f64 / total as f64;
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Parallel quicksort of `idx` by attribute `attr` (forks a thread per
/// recursive call above `min_split` elements; three-way partition for
/// duplicate keys); returns the `(key, index)` pairs in sorted order.
///
/// The keys are gathered once up front and travel with their indices as
/// pairs, so neither the partition passes nor the serial base sorts pay an
/// indirect load per comparison. Every partition and comparison decision
/// sees the same key values as the indirect form, so the resulting index
/// permutation is unchanged.
fn par_sort(ds: &Dataset, idx: &mut [u32], attr: usize, min_split: usize) -> Vec<(f32, u32)> {
    let mut pairs: Vec<(f32, u32)> = idx
        .iter()
        .map(|&i| (ds.attr(i as usize, attr), i))
        .collect();
    par_sort_rec(&mut pairs, min_split);
    for (slot, &(_, i)) in idx.iter_mut().zip(&pairs) {
        *slot = i;
    }
    pairs
}

fn par_sort_rec(pairs: &mut [(f32, u32)], min_split: usize) {
    charge_flops_irregular(pairs.len() as u64 * 6);
    let n = pairs.len();
    if n <= min_split.max(8) {
        pairs.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let n = n.max(2) as u64;
        charge_flops_irregular(n * (n as f64).log2() as u64 * 4);
        return;
    }
    let pivot = {
        let mut v = [pairs[0].0, pairs[n / 2].0, pairs[n - 1].0];
        v.sort_unstable_by(|x, y| x.partial_cmp(y).unwrap());
        v[1]
    };
    // Three-way partition.
    let (mut lt, mut gt, mut i) = (0usize, n, 0usize);
    while i < gt {
        let k = pairs[i].0;
        if k < pivot {
            pairs.swap(lt, i);
            lt += 1;
            i += 1;
        } else if k > pivot {
            gt -= 1;
            pairs.swap(i, gt);
        } else {
            i += 1;
        }
    }
    let (lo, rest) = pairs.split_at_mut(lt);
    let (_, hi) = rest.split_at_mut(gt - lt);
    ptdf::scope(|s| {
        s.spawn(|| par_sort_rec(lo, min_split));
        s.spawn(|| par_sort_rec(hi, min_split));
    });
}

/// The split information of cutting `n` instances after `nl`, for `nl` in
/// `1..n` (at index `nl − 1`): it depends on neither the attribute nor the
/// labels, so a node computes it once for all its attributes.
fn split_info(n: usize) -> Vec<f64> {
    (1..n)
        .map(|nl| {
            let fl = nl as f64 / n as f64;
            -(fl * fl.log2() + (1.0 - fl) * (1.0 - fl).log2())
        })
        .collect()
}

/// Finds the best gain-ratio split of `sorted`, the `(key, index)` pairs
/// of a node sorted by one attribute; returns `(gain_ratio, threshold,
/// left_count)`.
fn best_split_on_attr(
    ds: &Dataset,
    sorted: &[(f32, u32)],
    split_info: &[f64],
) -> Option<(f64, f32, usize)> {
    let n = sorted.len();
    // Gather the labels once in sorted order: the boundary scan below reads
    // each about twice, and sequential loads replace per-step indirect
    // gathers. Values and float math are unchanged, so the chosen split is
    // bit-identical.
    let labels: Vec<bool> = sorted.iter().map(|&(_, i)| ds.y[i as usize]).collect();
    let total_pos = labels.iter().filter(|&&b| b).count();
    let h_root = entropy(total_pos, n);
    let mut best: Option<(f64, f32, usize)> = None;
    let mut pos_left = 0usize;
    charge_flops_irregular(n as u64 * 12);
    for i in 1..n {
        if labels[i - 1] {
            pos_left += 1;
        }
        let prev = sorted[i - 1].0;
        let cur = sorted[i].0;
        if prev == cur {
            continue; // not a class boundary candidate
        }
        let (nl, nr) = (i, n - i);
        let ig = h_root
            - (nl as f64 / n as f64) * entropy(pos_left, nl)
            - (nr as f64 / n as f64) * entropy(total_pos - pos_left, nr);
        let split_info = split_info[nl - 1];
        if split_info <= 0.0 {
            continue;
        }
        let gr = ig / split_info;
        let threshold = (prev + cur) / 2.0;
        if best.is_none_or(|(bg, _, _)| gr > bg) {
            best = Some((gr, threshold, nl));
        }
    }
    best.filter(|&(gr, _, _)| gr > 1e-6)
}

/// Builds the tree over the instances in `idx`.
fn build_node(ds: &Dataset, idx: &[u32], p: &Params, depth: u32) -> Node {
    let n = idx.len();
    let pos = idx.iter().filter(|&&i| ds.y[i as usize]).count();
    charge_flops_irregular(n as u64 * 2);
    // Deterministic region id from the node's shape (depth, size, first id).
    let first = idx.first().copied().unwrap_or(0) as u64;
    ptdf::touch(
        region(
            salt::DTREE,
            ((depth as u64) << 34) ^ ((n as u64) << 20) ^ first,
        ),
        (n * 4) as u64,
    );
    let leaf = Node::Leaf {
        label: pos * 2 >= n,
        count: n,
    };
    if n < p.min_split.max(2) || pos == 0 || pos == n || depth >= p.max_depth {
        return leaf;
    }
    // Sort by each attribute (one forked sort per attribute) and evaluate
    // the candidate splits.
    let parallel = n >= p.min_split;
    let split_info = split_info(n);
    let mut per_attr: Vec<Option<(f64, f32, usize)>> = vec![None; ds.attrs];
    let mut sorted_per_attr: Vec<TrackedBuf<u32>> = (0..ds.attrs)
        .map(|_| TrackedBuf::from_vec(idx.to_vec()))
        .collect();
    ptdf::scope(|s| {
        let split_info = &split_info;
        for (a, (out, buf)) in per_attr
            .iter_mut()
            .zip(sorted_per_attr.iter_mut())
            .enumerate()
        {
            let mut body = move || {
                let sorted = par_sort(ds, buf, a, p.min_split);
                *out = best_split_on_attr(ds, &sorted, split_info);
            };
            if parallel {
                s.spawn(body);
            } else {
                body();
            }
        }
    });
    // Not held through the children's builds, where every ancestor's
    // column would stay alive.
    drop(split_info);
    let best = per_attr
        .iter()
        .enumerate()
        .filter_map(|(a, o)| o.map(|(gr, th, nl)| (gr, a, th, nl)))
        .max_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
    let Some((_, attr, threshold, nl)) = best else {
        return leaf;
    };
    let (left_idx, right_idx) = {
        let sorted = &sorted_per_attr[attr];
        (
            TrackedBuf::from_vec(sorted[..nl].to_vec()),
            TrackedBuf::from_vec(sorted[nl..].to_vec()),
        )
    };
    drop(sorted_per_attr);
    let (left, right) = if parallel {
        ptdf::scope(|s| {
            let lh = s.spawn(|| build_node(ds, &left_idx, p, depth + 1));
            let r = build_node(ds, &right_idx, p, depth + 1);
            (lh.join(), r)
        })
    } else {
        (
            build_node(ds, &left_idx, p, depth + 1),
            build_node(ds, &right_idx, p, depth + 1),
        )
    };
    Node::Split {
        attr,
        threshold,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Builds a decision tree for the dataset (parallel in a runtime, serial
/// otherwise — same code).
pub fn build(ds: &Dataset, p: &Params) -> Node {
    let idx = TrackedBuf::from_vec((0..ds.n as u32).collect::<Vec<u32>>());
    build_node(ds, &idx, p, 0)
}

/// Fraction of the dataset the tree classifies correctly.
pub fn accuracy(tree: &Node, ds: &Dataset) -> f64 {
    let correct = (0..ds.n)
        .filter(|&i| tree.classify(&ds.x[i * ds.attrs..(i + 1) * ds.attrs]) == ds.y[i])
        .count();
    correct as f64 / ds.n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptdf::{Config, SchedKind};

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 10), 0.0);
        assert!((entropy(5, 10) - 1.0).abs() < 1e-12);
        assert!(entropy(3, 10) < 1.0);
    }

    #[test]
    fn perfect_split_found_on_trivial_data() {
        // One attribute separates the classes exactly at 0.5.
        let n = 100;
        let x: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let y: Vec<bool> = (0..n).map(|i| i as f32 / n as f32 >= 0.5).collect();
        let ds = Dataset { x, y, n, attrs: 1 };
        let p = Params {
            instances: n,
            attrs: 1,
            min_split: 2,
            max_depth: 4,
            seed: 0,
        };
        let tree = build(&ds, &p);
        assert_eq!(accuracy(&tree, &ds), 1.0);
        match tree {
            Node::Split {
                attr, threshold, ..
            } => {
                assert_eq!(attr, 0);
                assert!((threshold - 0.495).abs() < 0.02, "threshold {threshold}");
            }
            _ => panic!("expected a split at the root"),
        }
    }

    #[test]
    fn par_sort_sorts_and_permutes() {
        let p = Params::small();
        let ds = gen_dataset(&p);
        let mut idx: Vec<u32> = (0..ds.n as u32).collect();
        par_sort(&ds, &mut idx, 2, 100);
        for w in idx.windows(2) {
            assert!(ds.attr(w[0] as usize, 2) <= ds.attr(w[1] as usize, 2));
        }
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn learns_mixture_better_than_majority() {
        let p = Params {
            instances: 4000,
            min_split: 200,
            ..Params::small()
        };
        let ds = gen_dataset(&p);
        let tree = build(&ds, &p);
        let acc = accuracy(&tree, &ds);
        assert!(acc > 0.80, "accuracy {acc}");
        assert!(tree.size() > 3);
        assert!(tree.depth() <= p.max_depth + 1);
    }

    #[test]
    fn parallel_and_serial_trees_identical() {
        let p = Params {
            instances: 3000,
            min_split: 300,
            ..Params::small()
        };
        let ds = gen_dataset(&p);
        let serial_tree = build(&ds, &p);
        for kind in [SchedKind::Fifo, SchedKind::Df, SchedKind::Ws] {
            let (par_tree, report) = ptdf::run(Config::new(4, kind), {
                let ds = ds.clone();
                move || build(&ds, &p)
            });
            assert_eq!(par_tree, serial_tree, "{kind:?}");
            assert!(report.total_threads > 1, "{kind:?} must actually fork");
        }
    }

    #[test]
    fn dataset_shape() {
        let p = Params::paper();
        let ds = gen_dataset(&p);
        assert_eq!(ds.n, 133_999);
        assert_eq!(ds.x.len(), 133_999 * 4);
        let pos = ds.y.iter().filter(|&&b| b).count();
        let frac = pos as f64 / ds.n as f64;
        assert!((0.45..0.55).contains(&frac), "class balance {frac}");
    }
}
