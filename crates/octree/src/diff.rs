//! Structural diff between two octrees at a depth — the frame-to-frame
//! voxel delta of a dynamic sequence.
//!
//! Delta statistics matter for the scheduler's workload model: a renderer
//! with frame-coherence optimizations only pays for *changed* voxels, so the
//! effective arrival per slot is `|added| + |removed|`, not `a(d)`. The
//! `ratesweep`-style experiments can plug these numbers in directly.

use crate::tree::Octree;

/// The voxel-set difference between two trees at one depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OctreeDiff {
    /// Depth the diff was taken at.
    pub depth: u8,
    /// Voxels occupied in `b` but not `a` (Morton codes at `depth`).
    pub added: Vec<u64>,
    /// Voxels occupied in `a` but not `b`.
    pub removed: Vec<u64>,
    /// Voxels occupied in both.
    pub unchanged: usize,
}

impl OctreeDiff {
    /// Total changed voxels — the frame-coherent workload delta.
    pub fn changed(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Jaccard similarity of the two voxel sets (1 = identical, 0 =
    /// disjoint; 1 for two empty sets).
    pub fn jaccard(&self) -> f64 {
        let union = self.unchanged + self.changed();
        if union == 0 {
            1.0
        } else {
            self.unchanged as f64 / union as f64
        }
    }
}

/// Computes the voxel diff `a → b` at `depth`.
///
/// Both trees must cover the *same cube* for codes to be comparable; this
/// is the caller's contract (build both with a fixed
/// [`crate::OctreeConfig::in_cube`]).
///
/// # Panics
///
/// Panics when `depth` exceeds either tree's max depth.
pub fn diff_at_depth(a: &Octree, b: &Octree, depth: u8) -> OctreeDiff {
    assert!(
        depth <= a.max_depth() && depth <= b.max_depth(),
        "depth exceeds a tree's max depth"
    );
    // Both code lists are strictly ascending (each level of the arena is in
    // Morton order), so the set difference/intersection is a single linear
    // merge — no hash sets, no post-sort, and the output order is
    // deterministic by construction.
    let codes = |tree: &Octree| {
        let mut codes = Vec::with_capacity(tree.occupied_at_depth(depth));
        tree.walk_voxels(depth, |code| codes.push(code));
        debug_assert!(codes.windows(2).all(|w| w[0] < w[1]));
        codes
    };
    let (codes_a, codes_b) = (codes(a), codes(b));
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut unchanged = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < codes_a.len() && j < codes_b.len() {
        match codes_a[i].cmp(&codes_b[j]) {
            std::cmp::Ordering::Less => {
                removed.push(codes_a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(codes_b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                unchanged += 1;
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&codes_a[i..]);
    added.extend_from_slice(&codes_b[j..]);
    OctreeDiff {
        depth,
        added,
        removed,
        unchanged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeConfig;
    use arvis_pointcloud::aabb::Aabb;
    use arvis_pointcloud::math::Vec3;
    use arvis_pointcloud::synth::skeleton::Pose;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn shared_cube() -> Aabb {
        Aabb::cube(Vec3::new(0.0, 1.0, 0.0), 3.0)
    }

    fn tree_for_pose(pose: Pose, seed: u64) -> Octree {
        let cloud = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(5_000)
            .with_seed(seed)
            .with_pose(pose)
            .generate();
        Octree::build(
            &cloud,
            &OctreeConfig::with_max_depth(6).in_cube(shared_cube()),
        )
        .unwrap()
    }

    #[test]
    fn identical_trees_have_empty_diff() {
        let t = tree_for_pose(Pose::NEUTRAL, 1);
        let d = diff_at_depth(&t, &t, 5);
        assert!(d.added.is_empty() && d.removed.is_empty());
        assert_eq!(d.unchanged, t.occupied_at_depth(5));
        assert_eq!(d.jaccard(), 1.0);
        assert_eq!(d.changed(), 0);
    }

    #[test]
    fn same_pose_different_sampling_is_similar() {
        let a = tree_for_pose(Pose::NEUTRAL, 1);
        let b = tree_for_pose(Pose::NEUTRAL, 2);
        let d = diff_at_depth(&a, &b, 4);
        assert!(
            d.jaccard() > 0.6,
            "same pose must be voxel-similar, jaccard {}",
            d.jaccard()
        );
    }

    #[test]
    fn different_poses_differ_more_than_resampling() {
        let neutral_a = tree_for_pose(Pose::NEUTRAL, 1);
        let neutral_b = tree_for_pose(Pose::NEUTRAL, 2);
        let walking = tree_for_pose(Pose::walking(1.5), 1);
        let resample = diff_at_depth(&neutral_a, &neutral_b, 5);
        let motion = diff_at_depth(&neutral_a, &walking, 5);
        assert!(
            motion.jaccard() < resample.jaccard(),
            "motion ({}) must change more voxels than resampling ({})",
            motion.jaccard(),
            resample.jaccard()
        );
    }

    #[test]
    fn diff_is_antisymmetric() {
        let a = tree_for_pose(Pose::NEUTRAL, 1);
        let b = tree_for_pose(Pose::walking(0.7), 1);
        let ab = diff_at_depth(&a, &b, 5);
        let ba = diff_at_depth(&b, &a, 5);
        assert_eq!(ab.added, ba.removed);
        assert_eq!(ab.removed, ba.added);
        assert_eq!(ab.unchanged, ba.unchanged);
    }

    #[test]
    fn counts_are_conserved() {
        let a = tree_for_pose(Pose::NEUTRAL, 1);
        let b = tree_for_pose(Pose::walking(2.0), 3);
        let d = diff_at_depth(&a, &b, 5);
        assert_eq!(d.removed.len() + d.unchanged, a.occupied_at_depth(5));
        assert_eq!(d.added.len() + d.unchanged, b.occupied_at_depth(5));
    }

    #[test]
    fn diff_is_input_order_independent() {
        // The same point sets in different input orders must produce the
        // exact same diff — added/removed code lists bitwise identical.
        // (This used to hold only because HashSet results were sorted
        // after the fact; the merge now guarantees it by construction.)
        let cloud_a = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(4_000)
            .with_seed(11)
            .generate();
        let cloud_b = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(4_000)
            .with_seed(12)
            .with_pose(Pose::walking(1.0))
            .generate();
        let cfg = OctreeConfig::with_max_depth(6).in_cube(shared_cube());
        let build = |c: &arvis_pointcloud::cloud::PointCloud| Octree::build(c, &cfg).unwrap();

        let reversed = |c: &arvis_pointcloud::cloud::PointCloud| c.iter().rev().cloned().collect();
        let a_rev: arvis_pointcloud::cloud::PointCloud = reversed(&cloud_a);
        let b_rev: arvis_pointcloud::cloud::PointCloud = reversed(&cloud_b);

        let base = diff_at_depth(&build(&cloud_a), &build(&cloud_b), 5);
        let perm = diff_at_depth(&build(&a_rev), &build(&b_rev), 5);
        assert_eq!(base, perm, "diff must not depend on point input order");
        assert!(
            base.added.windows(2).all(|w| w[0] < w[1]),
            "added codes strictly ascending"
        );
        assert!(
            base.removed.windows(2).all(|w| w[0] < w[1]),
            "removed codes strictly ascending"
        );
    }

    #[test]
    fn coarse_depth_is_more_stable_than_fine() {
        let a = tree_for_pose(Pose::NEUTRAL, 1);
        let b = tree_for_pose(Pose::walking(0.5), 1);
        let coarse = diff_at_depth(&a, &b, 3).jaccard();
        let fine = diff_at_depth(&a, &b, 6).jaccard();
        assert!(
            coarse >= fine,
            "coarser voxels absorb motion: coarse {coarse} vs fine {fine}"
        );
    }
}
