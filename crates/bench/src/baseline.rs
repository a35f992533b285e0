//! Seed-algorithm reference implementations, kept as benchmark baselines.
//!
//! These reproduce the pre-optimization hot paths exactly as the seed tree
//! shipped them, so every `BENCH_baseline.json` speedup is measured against
//! a live implementation in the same binary rather than a number copied
//! from an old run:
//!
//! - [`octree_build`]: array-of-structs `Vec<(u64, &Point)>` Morton pairs,
//!   comparison `sort_unstable`, and per-node re-accumulation of the point
//!   range at **every** level (O(n·depth) aggregate work);
//! - [`geometry_distortion_mse`]: one sequential kd-tree query per point,
//!   no batching, no query ordering.
//!
//! They are correctness-checked against the optimized pipeline by the
//! `baseline_agrees_*` tests, which is what makes the speedup comparisons
//! apples-to-apples.

use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::math::Vec3;
use arvis_pointcloud::point::Point;

/// Sentinel of an unoccupied octant in [`RefNode::children`] (as the seed
/// had it).
pub const NO_CHILD: u32 = u32::MAX;

/// Node of the reference octree, field-for-field the seed's arena element.
#[derive(Debug, Clone)]
pub struct RefNode {
    /// Child arena indices per octant (`NO_CHILD` = unoccupied).
    pub children: [u32; 8],
    /// Points inside the node's voxel.
    pub count: u64,
    /// Sum of contained positions.
    pub position_sum: Vec3,
    /// Sum of contained colors.
    pub color_sum: [u64; 3],
}

/// Output of the reference build: per-level node counts plus the arena, in
/// the same breadth-first order as the optimized build.
#[derive(Debug, Clone)]
pub struct RefOctree {
    /// All nodes, levels contiguous.
    pub nodes: Vec<RefNode>,
    /// First arena index of each level (`max_depth + 2` entries).
    pub level_starts: Vec<u32>,
}

#[inline]
fn morton3(x: u64, y: u64, z: u64, bits: u8) -> u64 {
    let mut code = 0u64;
    for k in 0..u64::from(bits) {
        code |= ((x >> k) & 1) << (3 * k);
        code |= ((y >> k) & 1) << (3 * k + 1);
        code |= ((z >> k) & 1) << (3 * k + 2);
    }
    code
}

/// The seed octree construction algorithm (see module docs).
///
/// # Panics
///
/// Panics on an empty cloud.
pub fn octree_build(cloud: &PointCloud, max_depth: u8) -> RefOctree {
    assert!(!cloud.is_empty(), "baseline build needs a non-empty cloud");
    let cube = cloud.aabb().expect("non-empty").bounding_cube();
    let n = 1u64 << max_depth;
    let extent = cube.max_extent();
    let min = cube.min();
    let code_of = |p: Vec3| -> u64 {
        let q = |v: f64, lo: f64| -> u64 {
            if extent <= 0.0 {
                return 0;
            }
            let idx = ((v - lo) / extent * n as f64).floor();
            (idx.max(0.0) as u64).min(n - 1)
        };
        morton3(q(p.x, min.x), q(p.y, min.y), q(p.z, min.z), max_depth)
    };
    let mut coded: Vec<(u64, &Point)> = cloud.iter().map(|p| (code_of(p.position), p)).collect();
    coded.sort_unstable_by_key(|(c, _)| *c);

    let aggregate = |range: &[(u64, &Point)]| -> RefNode {
        let mut node = RefNode {
            children: [NO_CHILD; 8],
            count: 0,
            position_sum: Vec3::ZERO,
            color_sum: [0; 3],
        };
        for (_, p) in range {
            node.count += 1;
            node.position_sum += p.position;
            node.color_sum[0] += u64::from(p.color.r);
            node.color_sum[1] += u64::from(p.color.g);
            node.color_sum[2] += u64::from(p.color.b);
        }
        node
    };

    let mut nodes = vec![aggregate(&coded)];
    let mut level_starts = vec![0u32, 1];
    // The seed's frontier: (arena index, point range) per open node.
    let mut current: Vec<(u32, usize, usize)> = vec![(0, 0, coded.len())];
    for depth in 1..=max_depth {
        let shift = 3 * u64::from(max_depth - depth);
        let mut next: Vec<(u32, usize, usize)> = Vec::with_capacity(current.len() * 2);
        for &(node_idx, lo, hi) in &current {
            let mut i = lo;
            while i < hi {
                let prefix = coded[i].0 >> shift;
                let octant = (prefix & 7) as usize;
                let mut j = i + 1;
                while j < hi && (coded[j].0 >> shift) == prefix {
                    j += 1;
                }
                let child_idx = nodes.len() as u32;
                // The seed's per-level re-scan of the point range.
                nodes.push(aggregate(&coded[i..j]));
                nodes[node_idx as usize].children[octant] = child_idx;
                next.push((child_idx, i, j));
                i = j;
            }
        }
        level_starts.push(nodes.len() as u32);
        current = next;
    }
    RefOctree {
        nodes,
        level_starts,
    }
}

/// The seed kd-tree: single-element recursion (no scan leaves), the
/// original `partial_cmp` median comparator, serial build, one recursive
/// query per point.
#[derive(Debug, Clone)]
pub struct RefKdTree {
    nodes: Vec<(Vec3, usize)>,
}

impl RefKdTree {
    /// Builds the reference tree (seed algorithm).
    pub fn build<I: IntoIterator<Item = Vec3>>(positions: I) -> RefKdTree {
        let mut nodes: Vec<(Vec3, usize)> = positions
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i))
            .collect();
        if !nodes.is_empty() {
            Self::build_range(&mut nodes, 0);
        }
        RefKdTree { nodes }
    }

    fn build_range(nodes: &mut [(Vec3, usize)], axis: usize) {
        if nodes.len() <= 1 {
            return;
        }
        let mid = nodes.len() / 2;
        nodes.select_nth_unstable_by(mid, |a, b| {
            a.0[axis]
                .partial_cmp(&b.0[axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (lo, rest) = nodes.split_at_mut(mid);
        let hi = &mut rest[1..];
        let next = (axis + 1) % 3;
        Self::build_range(lo, next);
        Self::build_range(hi, next);
    }

    /// Squared distance to the nearest indexed point.
    pub fn nearest_distance_squared(&self, query: Vec3) -> Option<f64> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best = (usize::MAX, f64::INFINITY);
        self.nearest_in(&self.nodes, 0, query, &mut best);
        Some(best.1)
    }

    fn nearest_in(
        &self,
        nodes: &[(Vec3, usize)],
        axis: usize,
        query: Vec3,
        best: &mut (usize, f64),
    ) {
        if nodes.is_empty() {
            return;
        }
        let mid = nodes.len() / 2;
        let (pos, idx) = nodes[mid];
        let d2 = pos.distance_squared(query);
        if d2 < best.1 {
            *best = (idx, d2);
        }
        let delta = query[axis] - pos[axis];
        let next = (axis + 1) % 3;
        let (near, far) = if delta < 0.0 {
            (&nodes[..mid], &nodes[mid + 1..])
        } else {
            (&nodes[mid + 1..], &nodes[..mid])
        };
        self.nearest_in(near, next, query, best);
        if delta * delta < best.1 {
            self.nearest_in(far, next, query, best);
        }
    }
}

/// The seed D1 measurement: the seed kd-tree with sequential per-point
/// nearest-neighbor queries in both directions. Returns the symmetric MSE.
///
/// # Panics
///
/// Panics when either cloud is empty.
pub fn geometry_distortion_mse(reference: &PointCloud, degraded: &PointCloud) -> f64 {
    assert!(!reference.is_empty() && !degraded.is_empty());
    let tree_deg = RefKdTree::build(degraded.positions());
    let tree_ref = RefKdTree::build(reference.positions());
    let mse = |from: &PointCloud, to: &RefKdTree| -> f64 {
        let sum: f64 = from
            .positions()
            .map(|p| to.nearest_distance_squared(p).expect("non-empty tree"))
            .sum();
        sum / from.len() as f64
    };
    let forward = mse(reference, &tree_deg);
    let backward = mse(degraded, &tree_ref);
    forward.max(backward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_octree::{LodMode, Octree, OctreeConfig};
    use arvis_pointcloud::color::Color;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
    use arvis_quality::psnr::geometry_distortion;

    fn body(n: usize) -> PointCloud {
        SynthBodyConfig::new(SubjectProfile::Soldier)
            .with_target_points(n)
            .with_seed(41)
            .generate()
    }

    #[test]
    fn baseline_agrees_with_soa_build() {
        let cloud = body(20_000);
        let depth = 7u8;
        let reference = octree_build(&cloud, depth);
        let optimized = Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap();
        let starts = &reference.level_starts;
        let profile: Vec<usize> = starts.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
        assert_eq!(optimized.occupancy_profile(), profile);
        // Each level's LoD colours are the seed's colour sums over its
        // counts, rounded, node for node (both builds are breadth-first with
        // each level in Morton order).
        for (d, w) in (0..=depth).zip(starts.windows(2)) {
            let want: Vec<Color> = reference.nodes[w[0] as usize..w[1] as usize]
                .iter()
                .map(|node| {
                    let [r, g, b] = node
                        .color_sum
                        .map(|s| (s as f64 / node.count as f64).round() as u8);
                    Color::new(r, g, b)
                })
                .collect();
            let lod = optimized.extract_lod(d, LodMode::VoxelCenters);
            let got: Vec<Color> = lod.cloud.iter().map(|p| p.color).collect();
            assert_eq!(got, want, "depth {d}");
        }
    }

    #[test]
    fn baseline_agrees_with_batched_psnr() {
        let cloud = body(10_000);
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(8)).unwrap();
        let lod = tree.extract_lod(6, LodMode::VoxelCenters);
        let fast = geometry_distortion(&cloud, &lod.cloud)
            .unwrap()
            .mse_symmetric;
        let slow = geometry_distortion_mse(&cloud, &lod.cloud);
        let rel = (fast - slow).abs() / slow.max(1e-300);
        assert!(rel < 1e-12, "batched MSE {fast} != sequential MSE {slow}");
    }
}
