//! Measured per-depth profiles: the bridge between a dataset and the
//! scheduler.
//!
//! For each candidate octree depth `d ∈ R` a [`DepthProfile`] records the
//! arrival workload `a(d)` (occupied voxels = points the renderer must
//! process) and a normalized quality `p_a(d)`. The paper's Algorithm 1 only
//! ever consults this table, which is why it is `O(|R|)` per slot and needs
//! no side information.

use std::ops::RangeInclusive;

use arvis_octree::{LodMode, OctreeBuilder, OctreeConfig, OctreeError};
use arvis_pointcloud::cloud::PointCloud;
use serde::{Deserialize, Serialize};

use crate::psnr::geometry_distortion;

/// How the normalized quality column of a profile is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QualityMetric {
    /// `p(d)` is the [`log_quality`] of the occupied voxels `a(d)` (cheap;
    /// no reference comparison). Default.
    #[default]
    LogPointCount,
    /// `p(d)` = measured D1 geometry PSNR against the full-resolution cloud,
    /// min-max normalized over the candidate depths. More faithful, costs a
    /// kd-tree pass per depth.
    GeometryPsnr,
}

/// Errors from profile measurement.
#[derive(Debug)]
#[non_exhaustive]
pub enum ProfileError {
    /// The underlying octree could not be built.
    Octree(OctreeError),
    /// The candidate range is empty or single-depth.
    BadRange,
    /// The arrivals do not grow from the lowest candidate depth to the
    /// highest (a one-point cloud, say), so [`log_quality`] is undefined.
    FlatArrivals,
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Octree(e) => write!(f, "octree construction failed: {e}"),
            ProfileError::BadRange => write!(f, "need at least two candidate depths"),
            ProfileError::FlatArrivals => write!(
                f,
                "arrivals must grow from the lowest to the highest candidate depth"
            ),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Octree(e) => Some(e),
            ProfileError::BadRange | ProfileError::FlatArrivals => None,
        }
    }
}

impl From<OctreeError> for ProfileError {
    fn from(e: OctreeError) -> Self {
        ProfileError::Octree(e)
    }
}

/// The normalized log quality of arrivals `a(d)` over consecutive depths:
/// `p(d) = (ln a(d) − ln a(min)) / (ln a(max) − ln a(min))`, clamped to
/// `[0, 1]`.
///
/// Each doubling of the rendered workload adds about the same perceived
/// detail ("bigger the number of PCs introduces better visualization
/// quality", §III of the paper, with diminishing returns). The unit is the
/// caller's: [`DepthProfile::measure`] passes occupied voxels, and
/// `arvis_core::pipeline` encoded frame bytes. Arrivals are positive, as
/// [`DepthProfile::from_parts`] requires.
///
/// # Errors
///
/// [`ProfileError::FlatArrivals`] when the last arrival does not exceed the
/// first (or there are fewer than two), so the normalization divides by
/// zero.
pub fn log_quality(arrivals: &[f64]) -> Result<Vec<f64>, ProfileError> {
    let (lo, hi) = match arrivals {
        [first, .., last] => (first.ln(), last.ln()),
        _ => return Err(ProfileError::FlatArrivals),
    };
    if hi > lo {
        Ok(arrivals
            .iter()
            .map(|a| ((a.ln() - lo) / (hi - lo)).clamp(0.0, 1.0))
            .collect())
    } else {
        Err(ProfileError::FlatArrivals)
    }
}

/// A measured per-depth table: `d → (a(d), psnr(d), p_a(d))`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DepthProfile {
    min_depth: u8,
    max_depth: u8,
    /// `a(d)`: occupied voxels at each depth (workload injected per frame).
    arrivals: Vec<f64>,
    /// Measured D1 PSNR in dB at each depth (`f64::INFINITY` ⇒ lossless;
    /// only populated when measured with [`QualityMetric::GeometryPsnr`],
    /// otherwise NaN).
    psnr_db: Vec<f64>,
    /// Normalized quality `p_a(d) ∈ [0, 1]`.
    quality: Vec<f64>,
}

impl DepthProfile {
    /// Measures a profile over `depths` from a single frame using the
    /// default [`QualityMetric::LogPointCount`].
    ///
    /// # Errors
    ///
    /// [`ProfileError::BadRange`] for fewer than two candidate depths;
    /// [`ProfileError::Octree`] when the cloud is empty or the max depth is
    /// unsupported; [`ProfileError::FlatArrivals`] when the cloud occupies
    /// as many voxels at the highest candidate depth as at the lowest (one
    /// point, or coincident points).
    pub fn measure(
        cloud: &PointCloud,
        depths: RangeInclusive<u8>,
    ) -> Result<DepthProfile, ProfileError> {
        Self::measure_with(cloud, depths, QualityMetric::LogPointCount)
    }

    /// Measures a profile with an explicit quality metric.
    pub fn measure_with(
        cloud: &PointCloud,
        depths: RangeInclusive<u8>,
        metric: QualityMetric,
    ) -> Result<DepthProfile, ProfileError> {
        Self::measure_with_builder(cloud, depths, metric, &mut OctreeBuilder::new())
    }

    /// Measures a profile with an explicit quality metric, reusing the
    /// given builder's scratch buffers — the per-frame fast path for
    /// streaming pipelines that profile every frame of a sequence.
    pub fn measure_with_builder(
        cloud: &PointCloud,
        depths: RangeInclusive<u8>,
        metric: QualityMetric,
        builder: &mut OctreeBuilder,
    ) -> Result<DepthProfile, ProfileError> {
        let (min_depth, max_depth) = (*depths.start(), *depths.end());
        if min_depth >= max_depth {
            return Err(ProfileError::BadRange);
        }
        let tree = builder.build(cloud, &OctreeConfig::with_max_depth(max_depth))?;
        let arrivals: Vec<f64> = (min_depth..=max_depth)
            .map(|d| tree.occupied_at_depth(d) as f64)
            .collect();

        let (psnr_db, quality) = match metric {
            QualityMetric::LogPointCount => {
                (vec![f64::NAN; arrivals.len()], log_quality(&arrivals)?)
            }
            QualityMetric::GeometryPsnr => {
                let psnr: Vec<f64> = (min_depth..=max_depth)
                    .map(|d| {
                        let lod = tree.extract_lod(d, LodMode::VoxelCenters);
                        geometry_distortion(cloud, &lod.cloud)
                            .expect("both clouds non-empty")
                            .psnr_db()
                    })
                    .collect();
                let finite: Vec<f64> = psnr.iter().copied().filter(|p| p.is_finite()).collect();
                let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let q = psnr
                    .iter()
                    .map(|&p| {
                        if !p.is_finite() {
                            1.0
                        } else if hi > lo {
                            ((p - lo) / (hi - lo)).clamp(0.0, 1.0)
                        } else {
                            1.0
                        }
                    })
                    .collect();
                (psnr, q)
            }
        };

        Ok(DepthProfile {
            min_depth,
            max_depth,
            arrivals,
            psnr_db,
            quality,
        })
    }

    /// Averages profiles measured from several frames (e.g. of a dynamic
    /// sequence). All profiles must share the same depth range.
    ///
    /// Returns `None` for an empty slice or mismatched ranges.
    pub fn average(profiles: &[DepthProfile]) -> Option<DepthProfile> {
        let first = profiles.first()?;
        let (lo, hi) = (first.min_depth, first.max_depth);
        if !profiles
            .iter()
            .all(|p| p.min_depth == lo && p.max_depth == hi)
        {
            return None;
        }
        let n = profiles.len() as f64;
        let len = first.arrivals.len();
        let mut arrivals = vec![0.0; len];
        let mut psnr_db = vec![0.0; len];
        let mut quality = vec![0.0; len];
        for p in profiles {
            for i in 0..len {
                arrivals[i] += p.arrivals[i] / n;
                psnr_db[i] += p.psnr_db[i] / n;
                quality[i] += p.quality[i] / n;
            }
        }
        Some(DepthProfile {
            min_depth: lo,
            max_depth: hi,
            arrivals,
            psnr_db,
            quality,
        })
    }

    /// Builds a profile directly from arrays (for synthetic scenarios and
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics when lengths mismatch the depth range or arrivals are
    /// non-positive.
    pub fn from_parts(min_depth: u8, arrivals: Vec<f64>, quality: Vec<f64>) -> DepthProfile {
        assert!(arrivals.len() >= 2, "need at least two depths");
        assert_eq!(arrivals.len(), quality.len(), "length mismatch");
        assert!(
            arrivals.iter().all(|&a| a > 0.0),
            "arrivals must be positive"
        );
        let max_depth = min_depth + (arrivals.len() - 1) as u8;
        DepthProfile {
            min_depth,
            max_depth,
            psnr_db: vec![f64::NAN; arrivals.len()],
            arrivals,
            quality,
        }
    }

    /// Rewrites the arrivals in place as `base`'s times `scale`,
    /// `a(d) = base.a(d) · scale` at every depth, keeping the quality and
    /// PSNR columns: a modulated stream's profile for the next slot, without
    /// building a new one.
    ///
    /// # Panics
    ///
    /// Panics when `base` covers another depth range or `scale` is not
    /// positive (NaN included), so the arrivals stay positive as
    /// [`DepthProfile::from_parts`] requires.
    pub fn rescale_arrivals(&mut self, base: &DepthProfile, scale: f64) {
        assert_eq!(self.depths(), base.depths(), "depth range mismatch");
        assert!(scale > 0.0, "scale must be positive, got {scale}");
        for (a, &b) in self.arrivals.iter_mut().zip(&base.arrivals) {
            *a = b * scale;
        }
    }

    /// The candidate depth set `R` as an inclusive range.
    pub fn depths(&self) -> RangeInclusive<u8> {
        self.min_depth..=self.max_depth
    }

    /// Lowest candidate depth.
    pub fn min_depth(&self) -> u8 {
        self.min_depth
    }

    /// Highest candidate depth.
    pub fn max_depth(&self) -> u8 {
        self.max_depth
    }

    /// Number of candidate depths `|R|`.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `false` always (a profile has ≥ 2 depths by construction); provided
    /// for API symmetry.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    fn idx(&self, depth: u8) -> usize {
        assert!(
            (self.min_depth..=self.max_depth).contains(&depth),
            "depth {depth} outside profile range {}..={}",
            self.min_depth,
            self.max_depth
        );
        usize::from(depth - self.min_depth)
    }

    /// Arrival workload `a(d)` (points per frame at depth `d`).
    ///
    /// # Panics
    ///
    /// Panics for depths outside the profile range.
    pub fn arrival(&self, depth: u8) -> f64 {
        self.arrivals[self.idx(depth)]
    }

    /// Normalized quality `p_a(d)`.
    ///
    /// # Panics
    ///
    /// Panics for depths outside the profile range.
    pub fn quality(&self, depth: u8) -> f64 {
        self.quality[self.idx(depth)]
    }

    /// Measured PSNR in dB (NaN when the profile was measured with
    /// [`QualityMetric::LogPointCount`]).
    ///
    /// # Panics
    ///
    /// Panics for depths outside the profile range.
    pub fn psnr_db(&self, depth: u8) -> f64 {
        self.psnr_db[self.idx(depth)]
    }

    /// Renders the profile as CSV (`depth,arrival,psnr_db,quality`),
    /// suitable for the Fig. 1 table artifact.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("depth,arrival_points,psnr_db,quality\n");
        for d in self.min_depth..=self.max_depth {
            let i = usize::from(d - self.min_depth);
            out.push_str(&format!(
                "{},{},{},{}\n",
                d, self.arrivals[i], self.psnr_db[i], self.quality[i]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_pointcloud::math::Vec3;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn body(n: usize, seed: u64) -> PointCloud {
        SynthBodyConfig::new(SubjectProfile::Soldier)
            .with_target_points(n)
            .with_seed(seed)
            .generate()
    }

    #[test]
    fn measure_basic_shape() {
        let p = DepthProfile::measure(&body(10_000, 1), 3..=7).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.depths(), 3..=7);
        assert_eq!(p.min_depth(), 3);
        assert_eq!(p.max_depth(), 7);
        assert!(!p.is_empty());
        // Arrivals strictly increase over this range for a dense body.
        for d in 3..7u8 {
            assert!(p.arrival(d) < p.arrival(d + 1));
        }
        // Quality normalized to the endpoints.
        assert_eq!(p.quality(3), 0.0);
        assert_eq!(p.quality(7), 1.0);
        // LogPointCount leaves PSNR unmeasured.
        assert!(p.psnr_db(5).is_nan());
    }

    #[test]
    fn measure_rejects_bad_inputs() {
        assert!(matches!(
            DepthProfile::measure(&body(100, 1), 5..=5),
            Err(ProfileError::BadRange)
        ));
        assert!(matches!(
            DepthProfile::measure(&PointCloud::new(), 3..=6),
            Err(ProfileError::Octree(_))
        ));
    }

    #[test]
    fn measure_reports_flat_arrivals_of_a_one_point_cloud() {
        let one = PointCloud::from_positions([Vec3::new(0.5, 0.25, 0.75)]);
        let coincident = PointCloud::from_positions([Vec3::ONE, Vec3::ONE]);
        for cloud in [one, coincident] {
            assert!(matches!(
                DepthProfile::measure(&cloud, 3..=6),
                Err(ProfileError::FlatArrivals)
            ));
        }
    }

    /// `p(d)` stays in `[0, 1]`, never falls with depth, and spans the
    /// whole range between the end depths.
    fn check_normalized_and_monotone(quality: &[f64]) {
        assert!(quality.iter().all(|q| (0.0..=1.0).contains(q)));
        assert!(quality.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(quality.first(), Some(&0.0));
        assert_eq!(quality.last(), Some(&1.0));
    }

    #[test]
    fn log_quality_of_geometric_arrivals_is_linear_in_depth() {
        // a(d) quadruples per level, so ln a(d) is linear in d.
        let arrivals: Vec<f64> = (0..6).map(|i| 100.0 * 4f64.powi(i)).collect();
        let q = log_quality(&arrivals).unwrap();
        check_normalized_and_monotone(&q);
        assert!((q[2] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn log_quality_compresses_saturating_arrivals() {
        // Arrivals that saturate near the end shrink late-depth gains.
        let q = log_quality(&[100.0, 400.0, 1600.0, 3000.0, 3200.0]).unwrap();
        check_normalized_and_monotone(&q);
        assert!(q[4] - q[3] < q[1] - q[0]);
    }

    #[test]
    fn log_quality_rejects_flat_arrivals() {
        for arrivals in [&[5.0, 5.0][..], &[5.0, 4.0], &[5.0], &[]] {
            assert!(matches!(
                log_quality(arrivals),
                Err(ProfileError::FlatArrivals)
            ));
        }
    }

    #[test]
    fn psnr_metric_produces_monotone_quality() {
        let p = DepthProfile::measure_with(&body(5_000, 2), 2..=6, QualityMetric::GeometryPsnr)
            .unwrap();
        for d in 2..6u8 {
            assert!(
                p.quality(d) <= p.quality(d + 1) + 1e-9,
                "psnr-based quality must be monotone"
            );
            assert!(p.psnr_db(d).is_finite());
        }
        assert!(p.psnr_db(6) >= p.psnr_db(2));
    }

    #[test]
    fn average_of_sequence_profiles() {
        let frames: Vec<DepthProfile> = (0..3)
            .map(|s| DepthProfile::measure(&body(3_000, s), 3..=6).unwrap())
            .collect();
        let avg = DepthProfile::average(&frames).unwrap();
        assert_eq!(avg.depths(), 3..=6);
        for d in 3..=6u8 {
            let mean: f64 = frames.iter().map(|f| f.arrival(d)).sum::<f64>() / 3.0;
            assert!((avg.arrival(d) - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn average_rejects_mismatched_ranges() {
        let a = DepthProfile::measure(&body(2_000, 1), 3..=6).unwrap();
        let b = DepthProfile::measure(&body(2_000, 1), 2..=6).unwrap();
        assert!(DepthProfile::average(&[a, b]).is_none());
        assert!(DepthProfile::average(&[]).is_none());
    }

    #[test]
    fn from_parts_and_accessors() {
        let p = DepthProfile::from_parts(5, vec![100.0, 400.0, 1600.0], vec![0.0, 0.5, 1.0]);
        assert_eq!(p.arrival(6), 400.0);
        assert_eq!(p.quality(7), 1.0);
        assert_eq!(p.depths(), 5..=7);
    }

    #[test]
    fn rescale_arrivals_scales_and_rejects_a_non_positive_scale() {
        let base = DepthProfile::from_parts(5, vec![100.0, 400.0, 1600.0], vec![0.0, 0.5, 1.0]);
        let mut p = base.clone();
        p.rescale_arrivals(&base, 0.25);
        assert_eq!([5, 6, 7].map(|d| p.arrival(d)), [25.0, 100.0, 400.0]);
        assert_eq!(p.quality(6), 0.5);
        for scale in [0.0, -1.0, f64::NAN] {
            let rescaled = std::panic::catch_unwind(|| base.clone().rescale_arrivals(&base, scale));
            assert!(rescaled.is_err(), "scale {scale}");
        }
    }

    #[test]
    #[should_panic(expected = "outside profile range")]
    fn out_of_range_depth_panics() {
        let p = DepthProfile::from_parts(5, vec![1.0, 2.0], vec![0.0, 1.0]);
        let _ = p.arrival(9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let p = DepthProfile::from_parts(4, vec![10.0, 40.0], vec![0.0, 1.0]);
        let csv = p.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("depth,"));
        assert!(lines[1].starts_with("4,10"));
    }

    #[test]
    fn deterministic_measurement() {
        let c = body(4_000, 7);
        let a = DepthProfile::measure(&c, 3..=6).unwrap();
        let b = DepthProfile::measure(&c, 3..=6).unwrap();
        // Cannot compare whole structs: the unmeasured PSNR column is NaN.
        for d in 3..=6u8 {
            assert_eq!(a.arrival(d), b.arrival(d));
            assert_eq!(a.quality(d), b.quality(d));
        }
    }
}
