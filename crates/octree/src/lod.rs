//! Depth-limited level-of-detail (LoD) extraction.
//!
//! Rendering a frame "at octree depth `d`" means drawing one point per
//! occupied depth-`d` voxel (paper Fig. 1). [`Octree::extract_lod`] produces
//! that cloud, and [`Octree::occupancy_profile`] produces the per-depth
//! counts `a(d)` the scheduler feeds on.

use std::convert::Infallible;

use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::point::Point;

use crate::attr::rgb_color;
use crate::occupancy::CellWalk;
use crate::tree::Octree;

/// Where the representative point of each voxel is placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LodMode {
    /// At the voxel center (what a voxel renderer draws; Open3D's octree
    /// visualization). Default.
    #[default]
    VoxelCenters,
}

/// A level-of-detail cloud extracted at a fixed depth.
#[derive(Debug, Clone)]
pub struct LodCloud {
    /// The extracted points (one per occupied voxel).
    pub cloud: PointCloud,
    /// The depth it was extracted at.
    pub depth: u8,
    /// Edge length of the voxels at that depth.
    pub voxel_size: f64,
}

impl Octree {
    /// Extracts the LoD cloud at `depth` (one point per occupied voxel, with
    /// the voxel's mean color).
    ///
    /// Points come in node order: the order of the attribute stream and of
    /// [`crate::attr::EncodedFrame::decode`] (breadth-first, Morton order
    /// within the level).
    ///
    /// Voxel centers are those of subdividing [`Octree::cube`] with the
    /// midpoint arithmetic of [`arvis_pointcloud::Aabb::octants`], bit for
    /// bit. They are not found by splitting boxes: one breadth-first walk
    /// over the occupancy column, shared with the decoder, yields each
    /// voxel's axis indices packed in one word, and the indices read
    /// per-axis tables of the level's cell boundaries, each entry the
    /// midpoint of its neighbours one level up. The decoder reads the same
    /// tables, so a decoded frame matches its LoD point for point.
    ///
    /// # Panics
    ///
    /// Panics when `depth > max_depth`.
    pub fn extract_lod(&self, depth: u8, mode: LodMode) -> LodCloud {
        let LodMode::VoxelCenters = mode;
        LodCloud {
            cloud: self.lod_points(depth, &mut CellWalk::default()).collect(),
            depth,
            voxel_size: self.voxel_size_at_depth(depth),
        }
    }

    /// The points of [`Octree::extract_lod`], yielded one at a time from a
    /// walk with `walk`'s buffers.
    pub(crate) fn lod_points<'w>(
        &'w self,
        depth: u8,
        walk: &'w mut CellWalk,
    ) -> impl ExactSizeIterator<Item = Point> + 'w {
        assert!(
            depth <= self.max_depth(),
            "depth {depth} exceeds max depth {}",
            self.max_depth()
        );
        let occupancy = self.occupancy_above(depth);
        let Ok(_) = walk.walk(depth, |rows| Ok::<_, Infallible>(&occupancy[rows]));
        let centres = walk.centres(self.cube(), depth);
        let colors = self.colors_at(depth).chunks_exact(3);
        assert_eq!(colors.len(), centres.len(), "one colour per voxel");
        centres
            .zip(colors)
            .map(|(centre, rgb)| Point::new(centre, rgb_color(rgb)))
    }

    /// The occupied-voxel count at every depth `0..=max_depth`.
    ///
    /// Element `d` is `a(d)` in the paper's notation: the workload injected
    /// into the visualization queue when depth `d` is selected.
    pub fn occupancy_profile(&self) -> Vec<usize> {
        (0..=self.max_depth())
            .map(|d| self.occupied_at_depth(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::OctreeConfig;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn body_tree(depth: u8) -> Octree {
        let cloud = SynthBodyConfig::new(SubjectProfile::RedAndBlack)
            .with_target_points(8_000)
            .with_seed(3)
            .generate();
        Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap()
    }

    #[test]
    fn lod_size_equals_occupancy() {
        let tree = body_tree(7);
        for d in [0u8, 2, 4, 6, 7] {
            let lod = tree.extract_lod(d, LodMode::VoxelCenters);
            assert_eq!(lod.cloud.len(), tree.occupied_at_depth(d), "depth {d}");
            assert_eq!(lod.depth, d);
        }
    }

    #[test]
    fn voxel_centers_lie_inside_cube() {
        let tree = body_tree(5);
        let lod = tree.extract_lod(5, LodMode::VoxelCenters);
        for p in lod.cloud.iter() {
            assert!(tree.cube().contains(p.position));
        }
    }

    #[test]
    fn lod_at_depth_zero_is_single_point() {
        let tree = body_tree(4);
        let lod = tree.extract_lod(0, LodMode::VoxelCenters);
        assert_eq!(lod.cloud.len(), 1);
        assert!(
            lod.cloud.points()[0]
                .position
                .distance(tree.cube().center())
                < 1e-12
        );
    }

    #[test]
    fn voxel_size_matches_depth() {
        let tree = body_tree(6);
        let lod = tree.extract_lod(3, LodMode::VoxelCenters);
        assert!((lod.voxel_size - tree.cube().max_extent() / 8.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_profile_shape() {
        let tree = body_tree(8);
        let profile = tree.occupancy_profile();
        assert_eq!(profile.len(), 9);
        assert_eq!(profile[0], 1);
        for w in profile.windows(2) {
            assert!(w[0] <= w[1], "profile must be non-decreasing: {profile:?}");
        }
        // Growth factor per level is at most 8.
        for w in profile.windows(2) {
            assert!(w[1] <= w[0] * 8);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max depth")]
    fn extract_beyond_max_depth_panics() {
        let tree = body_tree(3);
        let _ = tree.extract_lod(4, LodMode::VoxelCenters);
    }

    #[test]
    fn fig1_style_depths_increase_resolution() {
        // Paper Fig. 1 shows depths 5, 6, 7 with visibly increasing detail.
        let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
            .with_target_points(60_000)
            .generate();
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(7)).unwrap();
        let n5 = tree.extract_lod(5, LodMode::VoxelCenters).cloud.len();
        let n6 = tree.extract_lod(6, LodMode::VoxelCenters).cloud.len();
        let n7 = tree.extract_lod(7, LodMode::VoxelCenters).cloud.len();
        assert!(n5 < n6 && n6 < n7, "{n5} < {n6} < {n7} violated");
        // Depth 6 should have meaningfully more voxels than depth 5 for a
        // surface-like object (~4x per level until saturation).
        assert!(n6 as f64 / n5 as f64 > 2.0);
    }
}
