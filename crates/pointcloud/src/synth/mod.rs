//! Synthetic 8i-Voxelized-Full-Bodies-like dataset generation.
//!
//! The paper evaluates on the 8i Voxelized Full Bodies point clouds
//! (de Queiroz & Chou, IEEE TIP 2017): four human subjects captured at 30 fps,
//! voxelized into a 1024³ grid (≈ 0.7–1.0 million occupied voxels per frame).
//! That dataset cannot be redistributed, so this module generates *synthetic*
//! full-body clouds with matching macro-statistics:
//!
//! - human silhouette from a parametric capsule skeleton ([`skeleton`]);
//! - four subject profiles mirroring the original capture set;
//! - surface-uniform sampling, colorized per body region with noise;
//! - optional voxelization into the same 1024³ integer grid;
//! - 30 fps animated sequences with a walking gait.
//!
//! What matters for the paper's scheduler is the *occupied-voxel count as a
//! function of octree depth* `a(d)` and the induced quality `p_a(d)`; a
//! surface-sampled body reproduces the same `O(4^d)`-until-saturation growth
//! as a real scan of similar surface area.

pub mod skeleton;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cloud::PointCloud;
use crate::color::Color;
use crate::math::Vec3;
use crate::point::Point;
use crate::sampling;
use crate::transform::normalize_to_unit_cube;

use skeleton::{posed_segments, BodyRegion, Build, Pose, SegmentShape};

/// The four subjects of the (synthetic) full-body capture set, named after
/// their 8i counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubjectProfile {
    /// Woman in a long dress (widest silhouette; most points in 8i).
    Longdress,
    /// Man in dark casual clothes.
    Loot,
    /// Woman in a red-and-black outfit.
    RedAndBlack,
    /// Soldier in camouflage (densest scan in 8i).
    Soldier,
}

impl SubjectProfile {
    /// All four subjects, in the 8i distribution order.
    pub const ALL: [SubjectProfile; 4] = [
        SubjectProfile::Longdress,
        SubjectProfile::Loot,
        SubjectProfile::RedAndBlack,
        SubjectProfile::Soldier,
    ];

    /// Canonical lower-case name (`"longdress"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            SubjectProfile::Longdress => "longdress",
            SubjectProfile::Loot => "loot",
            SubjectProfile::RedAndBlack => "redandblack",
            SubjectProfile::Soldier => "soldier",
        }
    }

    /// Physical build of the subject.
    pub fn build(self) -> Build {
        match self {
            SubjectProfile::Longdress => Build {
                height: 1.68,
                girth: 1.0,
                skirt: true,
            },
            SubjectProfile::Loot => Build {
                height: 1.80,
                girth: 0.95,
                skirt: false,
            },
            SubjectProfile::RedAndBlack => Build {
                height: 1.65,
                girth: 0.9,
                skirt: false,
            },
            SubjectProfile::Soldier => Build {
                height: 1.82,
                girth: 1.1,
                skirt: false,
            },
        }
    }

    /// Default full-resolution point budget, scaled to the per-subject mean
    /// occupied-voxel counts reported for the 8i scans.
    pub fn reference_point_count(self) -> usize {
        match self {
            SubjectProfile::Longdress => 806_000,
            SubjectProfile::Loot => 780_000,
            SubjectProfile::RedAndBlack => 729_000,
            SubjectProfile::Soldier => 1_059_000,
        }
    }

    /// Base color of each body region for this subject.
    pub fn palette(self, region: BodyRegion) -> Color {
        use BodyRegion::*;
        match self {
            SubjectProfile::Longdress => match region {
                Head | Hands => SKIN_LIGHT,
                Torso => Color::new(196, 170, 86), // gold bodice
                Arms => SKIN_LIGHT,
                Legs => Color::new(170, 60, 60), // long red-patterned dress
                Feet => Color::new(60, 40, 30),
            },
            SubjectProfile::Loot => match region {
                Head | Hands => SKIN_TAN,
                Torso => Color::new(70, 70, 80), // dark jacket
                Arms => Color::new(70, 70, 80),
                Legs => Color::new(50, 50, 60),
                Feet => Color::new(30, 30, 30),
            },
            SubjectProfile::RedAndBlack => match region {
                Head | Hands => SKIN_LIGHT,
                Torso => Color::new(160, 30, 40), // red top
                Arms => Color::new(160, 30, 40),
                Legs => Color::new(25, 25, 28), // black tights
                Feet => Color::new(20, 20, 20),
            },
            SubjectProfile::Soldier => match region {
                Head => SKIN_TAN,
                Hands => SKIN_TAN,
                Torso | Arms | Legs => Color::new(90, 105, 70), // camouflage
                Feet => Color::new(55, 45, 35),
            },
        }
    }
}

const SKIN_LIGHT: Color = Color::new(224, 180, 150);
const SKIN_TAN: Color = Color::new(190, 140, 110);

/// The voxel-grid resolution of the original 8i full-body scans (2^10 per
/// axis, i.e. octree depth 10).
pub const EIGHT_I_GRID_BITS: u32 = 10;

/// Amplitude of the per-channel colour noise of every generated point.
const COLOR_NOISE: f64 = 12.0;

/// Radial surface jitter in meters of every generated point (simulates
/// capture noise and cloth wrinkles).
const SURFACE_JITTER: f64 = 0.004;

/// Configuration for generating one synthetic body frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthBodyConfig {
    subject: SubjectProfile,
    target_points: usize,
    seed: u64,
    pose: Pose,
}

impl SynthBodyConfig {
    /// Starts a configuration for the given subject with its reference point
    /// budget, seed 0 and neutral pose.
    pub fn new(subject: SubjectProfile) -> Self {
        SynthBodyConfig {
            subject,
            target_points: subject.reference_point_count(),
            seed: 0,
            pose: Pose::NEUTRAL,
        }
    }

    /// Sets the approximate number of points to sample.
    #[must_use]
    pub fn with_target_points(mut self, n: usize) -> Self {
        self.target_points = n;
        self
    }

    /// Sets the RNG seed (generation is fully deterministic given the seed).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the body pose.
    #[must_use]
    pub fn with_pose(mut self, pose: Pose) -> Self {
        self.pose = pose;
        self
    }

    /// The configured subject.
    pub fn subject(&self) -> SubjectProfile {
        self.subject
    }

    /// Generates the body as a metric point cloud (meters, Y-up, feet at
    /// `y ≈ 0`).
    pub fn generate(&self) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(self.seed ^ subject_salt(self.subject));
        let segments = posed_segments(&self.subject.build(), &self.pose);
        let total_area: f64 = segments.iter().map(|s| s.shape.surface_area()).sum();
        let mut cloud = PointCloud::with_capacity(self.target_points + segments.len());

        for seg in &segments {
            let share = seg.shape.surface_area() / total_area;
            let n = (share * self.target_points as f64).round().max(1.0) as usize;
            let base = self.subject.palette(seg.region);
            for _ in 0..n {
                let mut p = match seg.shape {
                    SegmentShape::Capsule { a, b, radius } => {
                        sampling::capsule_surface(&mut rng, a, b, radius)
                    }
                    SegmentShape::Ellipsoid { center, radii } => {
                        sampling::ellipsoid_surface(&mut rng, center, radii)
                    }
                };
                p += sampling::unit_sphere(&mut rng) * rng.gen_range(0.0..SURFACE_JITTER);
                let color = noisy_color(base, &mut rng);
                cloud.push(Point::new(p, color));
            }
        }
        cloud
    }

    /// Generates the body voxelized into an integer grid with
    /// `2^grid_bits` cells per axis — the representation the 8i dataset
    /// ships (grid_bits = [`EIGHT_I_GRID_BITS`] = 10 gives 1024³).
    ///
    /// Positions are voxel-center integer coordinates in
    /// `[0, 2^grid_bits)`; duplicate voxels are merged with averaged colors,
    /// so the returned length is the *occupied-voxel count*.
    pub fn generate_voxelized(&self, grid_bits: u32) -> PointCloud {
        let metric = self.generate();
        voxelize_to_grid(&metric, grid_bits)
    }
}

fn subject_salt(s: SubjectProfile) -> u64 {
    match s {
        SubjectProfile::Longdress => 0x6c6f_6e67,
        SubjectProfile::Loot => 0x6c6f_6f74,
        SubjectProfile::RedAndBlack => 0x7265_6462,
        SubjectProfile::Soldier => 0x736f_6c64,
    }
}

fn noisy_color<R: Rng>(base: Color, rng: &mut R) -> Color {
    let mut jitter = |c: u8| -> u8 {
        // Sum of two uniforms ≈ triangular noise centered at 0.
        let n = (rng.gen_range(-1.0f64..1.0) + rng.gen_range(-1.0f64..1.0)) * COLOR_NOISE / 2.0;
        (f64::from(c) + n).clamp(0.0, 255.0) as u8
    };
    Color::new(jitter(base.r), jitter(base.g), jitter(base.b))
}

/// Normalizes `cloud` into the unit cube and quantizes it onto a
/// `2^grid_bits`-per-axis integer grid, merging duplicate voxels
/// (colors averaged). Matches the preprocessing that produced the 8i scans.
pub fn voxelize_to_grid(cloud: &PointCloud, grid_bits: u32) -> PointCloud {
    assert!((1..=21).contains(&grid_bits), "grid_bits must be in 1..=21");
    let Some(aabb) = cloud.aabb() else {
        return PointCloud::new();
    };
    let to_unit = normalize_to_unit_cube(&aabb.bounding_cube());
    let n = f64::from(1u32 << grid_bits);
    let mut acc: std::collections::BTreeMap<(u32, u32, u32), ([u64; 3], u64)> =
        std::collections::BTreeMap::new();
    for p in cloud.iter() {
        let u = to_unit.apply(p.position);
        let q = |v: f64| -> u32 { ((v * n).floor().max(0.0) as u32).min((1 << grid_bits) - 1) };
        let key = (q(u.x), q(u.y), q(u.z));
        let e = acc.entry(key).or_insert(([0; 3], 0));
        e.0[0] += u64::from(p.color.r);
        e.0[1] += u64::from(p.color.g);
        e.0[2] += u64::from(p.color.b);
        e.1 += 1;
    }
    acc.into_iter()
        .map(|((x, y, z), (sum, cnt))| {
            let c = cnt as f64;
            Point::new(
                Vec3::new(f64::from(x), f64::from(y), f64::from(z)),
                Color::new(
                    (sum[0] as f64 / c).round() as u8,
                    (sum[1] as f64 / c).round() as u8,
                    (sum[2] as f64 / c).round() as u8,
                ),
            )
        })
        .collect()
}

/// An animated sequence of synthetic body frames (30 fps walking gait),
/// mirroring the 8i dynamic sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrameSequence {
    subject: SubjectProfile,
    frames: usize,
    target_points: usize,
    seed: u64,
    stride_seconds: f64,
}

impl FrameSequence {
    /// Frame rate of the original captures.
    pub const FPS: f64 = 30.0;

    /// Creates a sequence description for `frames` frames of `subject`.
    pub fn new(subject: SubjectProfile, frames: usize) -> Self {
        FrameSequence {
            subject,
            frames,
            target_points: subject.reference_point_count(),
            seed: 0,
            stride_seconds: 1.2,
        }
    }

    /// Sets the per-frame point budget.
    #[must_use]
    pub fn with_target_points(mut self, n: usize) -> Self {
        self.target_points = n;
        self
    }

    /// Sets the base RNG seed; frame `i` uses `seed + i`.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// `true` when the sequence has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }

    /// The subject being animated.
    pub fn subject(&self) -> SubjectProfile {
        self.subject
    }

    /// Generates frame `index` (panics when out of range).
    pub fn frame(&self, index: usize) -> PointCloud {
        assert!(index < self.frames, "frame {index} out of range");
        let t = index as f64 / Self::FPS;
        let phase = std::f64::consts::TAU * t / self.stride_seconds;
        SynthBodyConfig::new(self.subject)
            .with_target_points(self.target_points)
            .with_seed(self.seed.wrapping_add(index as u64))
            .with_pose(Pose::walking(phase))
            .generate()
    }

    /// Iterates over all frames, generating them lazily.
    pub fn iter_frames(&self) -> impl Iterator<Item = PointCloud> + '_ {
        (0..self.frames).map(|i| self.frame(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(subject: SubjectProfile) -> PointCloud {
        SynthBodyConfig::new(subject)
            .with_target_points(5_000)
            .with_seed(42)
            .generate()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small(SubjectProfile::Loot);
        let b = small(SubjectProfile::Loot);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(1000)
            .with_seed(1)
            .generate();
        let b = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(1000)
            .with_seed(2)
            .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn point_budget_approximately_met() {
        for subject in SubjectProfile::ALL {
            let c = small(subject);
            let n = c.len() as f64;
            assert!(
                (n - 5000.0).abs() < 500.0,
                "{}: got {n} points for target 5000",
                subject.name()
            );
        }
    }

    #[test]
    fn body_has_human_proportions() {
        let c = small(SubjectProfile::Soldier);
        let aabb = c.aabb().unwrap();
        let size = aabb.size();
        // Height (y) should be the dominant dimension, around 1.8 m.
        assert!(size.y > 1.5 && size.y < 2.2, "height {}", size.y);
        assert!(size.x < size.y && size.z < size.y);
    }

    #[test]
    fn longdress_is_wider_than_redandblack() {
        let dress = small(SubjectProfile::Longdress).aabb().unwrap().size();
        let slim = small(SubjectProfile::RedAndBlack).aabb().unwrap().size();
        assert!(dress.x > slim.x, "skirt must widen the silhouette");
    }

    #[test]
    fn subjects_have_distinct_palettes() {
        let torso: Vec<Color> = SubjectProfile::ALL
            .iter()
            .map(|s| s.palette(BodyRegion::Torso))
            .collect();
        for i in 0..torso.len() {
            for j in (i + 1)..torso.len() {
                assert_ne!(torso[i], torso[j]);
            }
        }
    }

    #[test]
    fn voxelized_output_is_integer_grid() {
        let c = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(20_000)
            .generate_voxelized(6);
        assert!(!c.is_empty());
        for p in c.iter() {
            for v in [p.position.x, p.position.y, p.position.z] {
                assert!(v.fract() == 0.0, "coordinate {v} not integral");
                assert!((0.0..64.0).contains(&v));
            }
        }
    }

    #[test]
    fn voxelized_merges_duplicates() {
        // At a tiny grid the occupied count must be far below the sample count.
        let c = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(20_000)
            .generate_voxelized(4);
        assert!(c.len() < 4096, "at most 16^3 voxels, got {}", c.len());
        assert!(c.len() > 50);
    }

    #[test]
    fn occupancy_grows_with_grid_resolution() {
        let cfg = SynthBodyConfig::new(SubjectProfile::Soldier).with_target_points(30_000);
        let coarse = cfg.generate_voxelized(4).len();
        let mid = cfg.generate_voxelized(6).len();
        let fine = cfg.generate_voxelized(8).len();
        assert!(
            coarse < mid && mid < fine,
            "{coarse} < {mid} < {fine} violated"
        );
    }

    #[test]
    fn voxelize_empty_cloud() {
        assert!(voxelize_to_grid(&PointCloud::new(), 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "grid_bits")]
    fn voxelize_rejects_zero_bits() {
        let _ = voxelize_to_grid(&PointCloud::new(), 0);
    }

    #[test]
    fn sequence_frames_differ_but_are_reproducible() {
        let seq = FrameSequence::new(SubjectProfile::RedAndBlack, 3).with_target_points(2_000);
        let f0 = seq.frame(0);
        let f1 = seq.frame(1);
        assert_ne!(f0, f1, "animated frames must differ");
        assert_eq!(f0, seq.frame(0), "frames must be reproducible");
        assert_eq!(seq.iter_frames().count(), 3);
        assert_eq!(seq.len(), 3);
        assert!(!seq.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sequence_frame_out_of_range() {
        let seq = FrameSequence::new(SubjectProfile::Loot, 2);
        let _ = seq.frame(2);
    }
}
