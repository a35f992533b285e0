//! Point-to-point (D1) geometry PSNR, the standard objective metric for
//! degraded point clouds (used by MPEG PCC and the 8i dataset papers).
//!
//! Both directions build their kd-trees concurrently and resolve all
//! nearest-neighbor lookups through [`KdTree::nearest_many`], the batched
//! Morton-ordered fast path; per-point errors reduce through fixed-chunk
//! partial sums so results are bit-identical across worker counts.

use arvis_par as par;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::kdtree::KdTree;
use arvis_pointcloud::math::Vec3;

use crate::batch;

/// Result of a geometry-distortion measurement between a reference cloud and
/// a processed (degraded) cloud.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometryDistortion {
    /// Mean squared point-to-nearest-neighbor distance, reference → degraded.
    pub mse_forward: f64,
    /// Mean squared distance, degraded → reference.
    pub mse_backward: f64,
    /// The symmetric MSE: `max(mse_forward, mse_backward)` (MPEG convention).
    pub mse_symmetric: f64,
    /// The PSNR peak used (bounding-box diagonal of the reference).
    pub peak: f64,
}

impl GeometryDistortion {
    /// D1 PSNR in dB: `10·log10(peak² / mse_symmetric)`.
    ///
    /// Returns `f64::INFINITY` for an exact match (`mse == 0`).
    pub fn psnr_db(&self) -> f64 {
        if self.mse_symmetric <= 0.0 {
            f64::INFINITY
        } else {
            10.0 * ((self.peak * self.peak) / self.mse_symmetric).log10()
        }
    }
}

/// Measures symmetric point-to-point geometry distortion between `reference`
/// and `degraded`.
///
/// Returns `None` when either cloud is empty.
pub fn geometry_distortion(
    reference: &PointCloud,
    degraded: &PointCloud,
) -> Option<GeometryDistortion> {
    if reference.is_empty() || degraded.is_empty() {
        return None;
    }
    let peak = reference.aabb().expect("non-empty").diagonal();
    let ref_pos: Vec<Vec3> = reference.positions().collect();
    let deg_pos: Vec<Vec3> = degraded.positions().collect();
    let (tree_deg, tree_ref) = par::join(
        || KdTree::build(deg_pos.iter().copied()),
        || KdTree::build(ref_pos.iter().copied()),
    );

    let mse = |queries: &[Vec3], to: &KdTree| -> f64 {
        let nn = to.nearest_many(queries);
        batch::sum_by(&nn, |&(_, d2)| d2) / queries.len() as f64
    };
    let mse_forward = mse(&ref_pos, &tree_deg);
    let mse_backward = mse(&deg_pos, &tree_ref);
    Some(GeometryDistortion {
        mse_forward,
        mse_backward,
        mse_symmetric: mse_forward.max(mse_backward),
        peak,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_octree::{LodMode, Octree, OctreeConfig};
    use arvis_pointcloud::math::Vec3;
    use arvis_pointcloud::point::Point;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn body(n: usize) -> PointCloud {
        SynthBodyConfig::new(SubjectProfile::RedAndBlack)
            .with_target_points(n)
            .with_seed(9)
            .generate()
    }

    #[test]
    fn identical_clouds_have_infinite_psnr() {
        let c = body(2_000);
        let d = geometry_distortion(&c, &c).unwrap();
        assert_eq!(d.mse_symmetric, 0.0);
        assert_eq!(d.psnr_db(), f64::INFINITY);
    }

    #[test]
    fn empty_inputs_return_none() {
        let c = body(100);
        assert!(geometry_distortion(&c, &PointCloud::new()).is_none());
        assert!(geometry_distortion(&PointCloud::new(), &c).is_none());
    }

    #[test]
    fn known_offset_mse() {
        // Degraded = reference shifted by 0.1 along x: forward MSE = 0.01.
        let reference = PointCloud::from_positions([Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
        let degraded =
            PointCloud::from_positions([Vec3::new(0.1, 0.0, 0.0), Vec3::new(10.1, 0.0, 0.0)]);
        let d = geometry_distortion(&reference, &degraded).unwrap();
        assert!((d.mse_forward - 0.01).abs() < 1e-12);
        assert!((d.mse_backward - 0.01).abs() < 1e-12);
        assert!((d.peak - 10.0).abs() < 1e-12);
        // PSNR = 10 log10(100 / 0.01) = 40 dB.
        assert!((d.psnr_db() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn symmetric_mse_takes_the_worse_direction() {
        // Degraded has an extra far-away outlier: backward MSE dominates.
        let reference = PointCloud::from_positions([Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        let degraded = PointCloud::from_positions([
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ]);
        let d = geometry_distortion(&reference, &degraded).unwrap();
        assert!(d.mse_backward > d.mse_forward);
        assert_eq!(d.mse_symmetric, d.mse_backward);
    }

    #[test]
    fn batched_mse_matches_brute_force_nearest_neighbours() {
        let reference = body(2_000);
        let tree = Octree::build(&reference, &OctreeConfig::with_max_depth(8)).unwrap();
        let degraded = tree.extract_lod(5, LodMode::VoxelCenters).cloud;
        // Every query against every point, one direction at a time.
        let mse = |from: &PointCloud, to: &PointCloud| -> f64 {
            let nearest = |p: Vec3| {
                to.positions()
                    .map(|q| p.distance_squared(q))
                    .fold(f64::INFINITY, f64::min)
            };
            from.positions().map(nearest).sum::<f64>() / from.len() as f64
        };
        let want = mse(&reference, &degraded).max(mse(&degraded, &reference));
        let got = geometry_distortion(&reference, &degraded)
            .unwrap()
            .mse_symmetric;
        let rel = (got - want).abs() / want;
        assert!(rel < 1e-12, "batched MSE {got} != brute-force MSE {want}");
    }

    #[test]
    fn psnr_increases_with_octree_depth() {
        let cloud = body(20_000);
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(8)).unwrap();
        let mut last = f64::NEG_INFINITY;
        for depth in [3u8, 5, 7] {
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters);
            let psnr = geometry_distortion(&cloud, &lod.cloud).unwrap().psnr_db();
            assert!(
                psnr > last,
                "PSNR must increase with depth: {psnr} after {last}"
            );
            last = psnr;
        }
    }

    #[test]
    fn distortion_is_scale_aware_via_peak() {
        // Same relative distortion at 10x scale gives the same PSNR.
        let small_ref = PointCloud::from_positions([Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        let small_deg =
            PointCloud::from_positions([Vec3::new(0.01, 0.0, 0.0), Vec3::new(1.01, 0.0, 0.0)]);
        let big_ref = PointCloud::from_positions([Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
        let big_deg =
            PointCloud::from_positions([Vec3::new(0.1, 0.0, 0.0), Vec3::new(10.1, 0.0, 0.0)]);
        let a = geometry_distortion(&small_ref, &small_deg)
            .unwrap()
            .psnr_db();
        let b = geometry_distortion(&big_ref, &big_deg).unwrap().psnr_db();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn single_point_clouds() {
        let a = PointCloud::from_points(vec![Point::xyz_rgb(0.0, 0.0, 0.0, 9, 9, 9)]);
        let b = PointCloud::from_points(vec![Point::xyz_rgb(1.0, 0.0, 0.0, 9, 9, 9)]);
        let d = geometry_distortion(&a, &b).unwrap();
        assert!((d.mse_symmetric - 1.0).abs() < 1e-12);
        // Degenerate reference: peak 0 -> PSNR is -inf-ish (log of 0)...
        // psnr_db handles mse>0, peak=0 -> -inf. Verify it's not NaN.
        assert!(!d.psnr_db().is_nan());
    }
}
