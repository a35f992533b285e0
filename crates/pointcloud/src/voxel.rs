//! Voxel grids.
//!
//! The 8i dataset is *voxelized*: point coordinates are integers in a cubic
//! grid (1024³ for the full-body scans). [`VoxelGrid`] reproduces that
//! representation, one cell of counts and sums per occupied voxel; the
//! octree's reference oracles rebuild each level with it.
//!
//! Cells live in a `BTreeMap` keyed by [`VoxelKey`], so every iteration
//! order — occupancy walks, oracles, tests — is deterministic by
//! construction (the determinism contract's hash-order-iteration rule).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::color::Color;
use crate::error::{Error, Result};
use crate::math::Vec3;
use crate::point::Point;

/// Integer voxel coordinates within a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VoxelKey {
    /// Grid index along X.
    pub x: u32,
    /// Grid index along Y.
    pub y: u32,
    /// Grid index along Z.
    pub z: u32,
}

impl VoxelKey {
    /// Creates a key from indices.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        VoxelKey { x, y, z }
    }

    /// Interleaves the low `bits` bits of each coordinate into a Morton code
    /// (z-order). Bit `3k` of the result is bit `k` of `x`, `3k+1` of `y`,
    /// `3k+2` of `z` — the same child ordering as [`Aabb::octants`].
    ///
    /// # Panics
    ///
    /// Panics when `bits > 21` (the result would overflow 63 bits).
    pub fn morton(self, bits: u32) -> u64 {
        assert!(bits <= 21, "morton supports at most 21 bits per axis");
        let mut code = 0u64;
        for k in 0..bits {
            code |= ((u64::from(self.x) >> k) & 1) << (3 * k);
            code |= ((u64::from(self.y) >> k) & 1) << (3 * k + 1);
            code |= ((u64::from(self.z) >> k) & 1) << (3 * k + 2);
        }
        code
    }

    /// Inverse of [`VoxelKey::morton`].
    pub fn from_morton(code: u64, bits: u32) -> VoxelKey {
        assert!(bits <= 21, "morton supports at most 21 bits per axis");
        let (mut x, mut y, mut z) = (0u32, 0u32, 0u32);
        for k in 0..bits {
            x |= (((code >> (3 * k)) & 1) as u32) << k;
            y |= (((code >> (3 * k + 1)) & 1) as u32) << k;
            z |= (((code >> (3 * k + 2)) & 1) as u32) << k;
        }
        VoxelKey::new(x, y, z)
    }
}

/// A sparse cubic voxel grid over a bounding cube.
///
/// Each occupied voxel stores how many points fell into it and their average
/// color — exactly the statistics the octree LoD extractor and the quality
/// profile need.
#[derive(Debug, Clone)]
pub struct VoxelGrid {
    cube: Aabb,
    resolution: u32,
    cells: BTreeMap<VoxelKey, VoxelCell>,
}

/// Aggregated contents of one voxel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoxelCell {
    /// Number of source points inside the voxel.
    pub count: u64,
    /// Sum of source positions (divide by `count` for the mean).
    pub position_sum: Vec3,
    /// Running color channel sums (divide by `count` for the mean).
    pub color_sum: [u64; 3],
}

impl VoxelCell {
    fn accumulate(&mut self, p: &Point) {
        self.count += 1;
        self.position_sum += p.position;
        self.color_sum[0] += u64::from(p.color.r);
        self.color_sum[1] += u64::from(p.color.g);
        self.color_sum[2] += u64::from(p.color.b);
    }

    /// The mean position of the points in this voxel.
    pub fn mean_position(&self) -> Vec3 {
        self.position_sum / self.count as f64
    }

    /// The mean color of the points in this voxel.
    pub fn mean_color(&self) -> Color {
        let n = self.count as f64;
        Color::new(
            (self.color_sum[0] as f64 / n).round() as u8,
            (self.color_sum[1] as f64 / n).round() as u8,
            (self.color_sum[2] as f64 / n).round() as u8,
        )
    }
}

impl VoxelGrid {
    /// Voxelizes a cloud into a cubic grid with `resolution` cells per axis
    /// over the cloud's bounding cube.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCloud`] for an empty cloud and
    /// [`Error::InvalidParameter`] when `resolution == 0`.
    pub fn from_cloud(cloud: &PointCloud, resolution: u32) -> Result<VoxelGrid> {
        let aabb = cloud.aabb().ok_or(Error::EmptyCloud)?;
        Self::from_cloud_in_cube(cloud, &aabb.bounding_cube(), resolution)
    }

    /// Voxelizes a cloud into the given bounding cube. Points outside the
    /// cube are clamped onto its boundary cells (the synthetic animator can
    /// push limbs slightly outside the reference cube).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `resolution == 0` or the cube
    /// is degenerate.
    pub fn from_cloud_in_cube(
        cloud: &PointCloud,
        cube: &Aabb,
        resolution: u32,
    ) -> Result<VoxelGrid> {
        if resolution == 0 {
            return Err(Error::InvalidParameter(
                "voxel resolution must be >= 1".into(),
            ));
        }
        if cube.max_extent() <= 0.0 {
            return Err(Error::InvalidParameter(
                "voxel grid cube must have positive extent".into(),
            ));
        }
        let mut grid = VoxelGrid {
            cube: *cube,
            resolution,
            cells: BTreeMap::new(),
        };
        for p in cloud.iter() {
            let key = grid.key_of(p.position);
            grid.cells
                .entry(key)
                .or_insert(VoxelCell {
                    count: 0,
                    position_sum: Vec3::ZERO,
                    color_sum: [0; 3],
                })
                .accumulate(p);
        }
        Ok(grid)
    }

    /// The cube the grid covers.
    pub fn cube(&self) -> &Aabb {
        &self.cube
    }

    /// Cells per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Number of occupied voxels.
    pub fn occupied(&self) -> usize {
        self.cells.len()
    }

    /// Edge length of one voxel.
    pub fn voxel_size(&self) -> f64 {
        self.cube.max_extent() / f64::from(self.resolution)
    }

    /// The voxel key containing `p` (clamped to the grid).
    pub fn key_of(&self, p: Vec3) -> VoxelKey {
        let size = self.cube.size();
        let min = self.cube.min();
        let cells = u64::from(self.resolution);
        let f = |v: f64, lo: f64, extent: f64| -> u32 {
            crate::morton::grid_cell(v, lo, crate::morton::grid_scale(extent, cells), cells) as u32
        };
        VoxelKey::new(
            f(p.x, min.x, size.x),
            f(p.y, min.y, size.y),
            f(p.z, min.z, size.z),
        )
    }

    /// The center position of a voxel.
    pub fn voxel_center(&self, key: VoxelKey) -> Vec3 {
        let s = self.voxel_size();
        self.cube.min()
            + Vec3::new(
                (f64::from(key.x) + 0.5) * s,
                (f64::from(key.y) + 0.5) * s,
                (f64::from(key.z) + 0.5) * s,
            )
    }

    /// Borrows the occupied cells (ordered by [`VoxelKey`]).
    pub fn cells(&self) -> &BTreeMap<VoxelKey, VoxelCell> {
        &self.cells
    }

    /// Looks up one cell.
    pub fn cell(&self, key: VoxelKey) -> Option<&VoxelCell> {
        self.cells.get(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corner_cloud() -> PointCloud {
        // Two tight clusters near opposite corners of the unit cube.
        PointCloud::from_points(vec![
            Point::xyz_rgb(0.01, 0.01, 0.01, 10, 0, 0),
            Point::xyz_rgb(0.02, 0.02, 0.02, 30, 0, 0),
            Point::xyz_rgb(0.99, 0.99, 0.99, 0, 100, 0),
        ])
    }

    #[test]
    fn morton_roundtrip() {
        for bits in [1u32, 4, 10, 21] {
            let mask = (1u32 << bits.min(10)) - 1;
            for raw in [
                VoxelKey::new(0, 0, 0),
                VoxelKey::new(mask, 0, mask / 2),
                VoxelKey::new(1, 2, 3),
            ] {
                // Keys must fit in `bits` bits for the roundtrip to hold.
                let key = VoxelKey::new(raw.x & mask, raw.y & mask, raw.z & mask);
                let code = key.morton(bits);
                assert_eq!(VoxelKey::from_morton(code, bits), key);
            }
        }
    }

    #[test]
    fn morton_child_ordering_matches_octants() {
        // With 1 bit per axis the code equals the octant index bit layout.
        assert_eq!(VoxelKey::new(1, 0, 0).morton(1), 1);
        assert_eq!(VoxelKey::new(0, 1, 0).morton(1), 2);
        assert_eq!(VoxelKey::new(0, 0, 1).morton(1), 4);
        assert_eq!(VoxelKey::new(1, 1, 1).morton(1), 7);
    }

    #[test]
    #[should_panic(expected = "21 bits")]
    fn morton_rejects_wide_keys() {
        let _ = VoxelKey::new(0, 0, 0).morton(22);
    }

    #[test]
    fn grid_counts_occupancy() {
        let grid = VoxelGrid::from_cloud(&corner_cloud(), 2).unwrap();
        assert_eq!(grid.occupied(), 2);
        let total: u64 = grid.cells().values().map(|c| c.count).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn grid_rejects_bad_params() {
        assert!(VoxelGrid::from_cloud(&PointCloud::new(), 4).is_err());
        assert!(VoxelGrid::from_cloud(&corner_cloud(), 0).is_err());
    }

    #[test]
    fn key_of_clamps_outside_points() {
        let cube = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let cloud = PointCloud::from_positions([Vec3::new(2.0, -1.0, 0.5)]);
        let grid = VoxelGrid::from_cloud_in_cube(&cloud, &cube, 4).unwrap();
        let key = grid.key_of(Vec3::new(2.0, -1.0, 0.5));
        assert_eq!(key, VoxelKey::new(3, 0, 2));
        assert_eq!(grid.occupied(), 1);
    }

    #[test]
    fn cell_means() {
        let grid = VoxelGrid::from_cloud(&corner_cloud(), 2).unwrap();
        let key = grid.key_of(Vec3::splat(0.015));
        let cell = grid.cell(key).unwrap();
        assert_eq!(cell.count, 2);
        assert!((cell.mean_position().x - 0.015).abs() < 1e-12);
        assert_eq!(cell.mean_color(), Color::new(20, 0, 0));
    }

    #[test]
    fn voxel_center_inside_cube() {
        let grid = VoxelGrid::from_cloud(&corner_cloud(), 8).unwrap();
        for key in grid.cells().keys() {
            assert!(grid.cube().contains(grid.voxel_center(*key)));
        }
    }

    #[test]
    fn output_order_is_input_order_independent() {
        // Voxelizing the same points in a different order must yield the
        // same voxels in the same (key-sorted) order with the same counts
        // and colour sums. Per-cell float sums may differ in the last bit
        // under permutation (accumulation order), so mean positions match
        // only approximately.
        let cloud = PointCloud::from_positions(
            (0..500).map(|i| Vec3::new((i % 7) as f64, ((i / 7) % 9) as f64, (i % 11) as f64)),
        );
        let shuffled: PointCloud = cloud.iter().rev().cloned().collect();
        let cube = cloud.aabb().unwrap().bounding_cube();
        let a = VoxelGrid::from_cloud_in_cube(&cloud, &cube, 8).unwrap();
        let b = VoxelGrid::from_cloud_in_cube(&shuffled, &cube, 8).unwrap();

        let keys_a: Vec<VoxelKey> = a.cells().keys().copied().collect();
        let keys_b: Vec<VoxelKey> = b.cells().keys().copied().collect();
        assert_eq!(keys_a, keys_b, "key order must be input-order independent");
        let counts_a: Vec<u64> = a.cells().values().map(|c| c.count).collect();
        let counts_b: Vec<u64> = b.cells().values().map(|c| c.count).collect();
        assert_eq!(counts_a, counts_b);
        for (ca, cb) in a.cells().values().zip(b.cells().values()) {
            assert_eq!(ca.mean_color(), cb.mean_color());
            assert!((ca.mean_position() - cb.mean_position()).norm() < 1e-9);
        }
    }
}
