//! The octree's codec columns, pinned by digest.
//!
//! Every encoded frame of two sets of trees is hashed with SHA-256: the
//! first frames of the `encoded_pipeline` benchmark's content (perfbench's
//! seed 5), built at every max depth from 1 to 10 in the cube the
//! benchmark's frames share and some in their own cubes, and seeded sparse
//! trees at depths 11 to 21. A build that changes one occupancy bit or one
//! rounded mean colour changes the digest. The digests were computed with
//! the earlier level-by-level build, so the one-scan build reproduces it
//! bit for bit over these inputs.
//!
//! A third digest pins `PreparedSequence::prepare` over the benchmark's
//! first frames: every tree's encoded frames and every byte profile, built
//! on all workers and under `arvis_par::serial_scope`. It was computed with
//! the serial `prepare` that built one frame after another.

use std::ops::RangeInclusive;

use arvis::core::hash::{to_hex, Sha256};
use arvis::core::pipeline::PreparedSequence;
use arvis::octree::attr::EncodedFrame;
use arvis::octree::{Octree, OctreeBuilder, OctreeConfig, OctreeError};
use arvis::pointcloud::aabb::Aabb;
use arvis::pointcloud::math::Vec3;
use arvis::pointcloud::point::Point;
use arvis::pointcloud::synth::{FrameSequence, SubjectProfile};
use arvis::pointcloud::PointCloud;

/// SplitMix64, the generator perfbench seeds its inputs with.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Hashes every encoded frame of `tree`, depths 1 to its max depth, each
/// stream prefixed with its length.
fn absorb(hash: &mut Sha256, tree: &Octree) {
    absorb_depths(hash, tree, 1..=tree.max_depth());
}

/// [`absorb`] over the encoded frames at `depths` only.
fn absorb_depths(hash: &mut Sha256, tree: &Octree, depths: RangeInclusive<u8>) {
    hash.update(&tree.point_count().to_le_bytes());
    for depth in depths {
        let frame = EncodedFrame::encode(tree, depth);
        for stream in [&frame.occupancy[..], &frame.attributes[..]] {
            hash.update(&(stream.len() as u64).to_le_bytes());
            hash.update(stream);
        }
    }
}

/// `perfbench::gen::frames` for seed 5: the 30 frames of the
/// `encoded_pipeline` benchmark.
fn benchmark_frames() -> Vec<PointCloud> {
    let seed = SplitMix64(5 ^ 0xF4A3_E000).next_u64();
    FrameSequence::new(SubjectProfile::Longdress, 30)
        .with_target_points(20_000)
        .with_seed(seed)
        .iter_frames()
        .collect()
}

#[test]
fn benchmark_frames_encode_to_the_pinned_digest() {
    // The first ten of the benchmark's 30 frames in the cube all 30 share,
    // as `PreparedSequence::prepare` builds them, and the first three also
    // in their own cubes.
    let frames = benchmark_frames();
    let cube = frames
        .iter()
        .filter_map(PointCloud::aabb)
        .reduce(|a, b| a.union(&b))
        .unwrap()
        .bounding_cube();
    let mut builder = OctreeBuilder::new();
    let mut hash = Sha256::new();
    for (i, frame) in frames[..10].iter().enumerate() {
        for max_depth in 1..=10 {
            let config = OctreeConfig::with_max_depth(max_depth);
            absorb(
                &mut hash,
                &builder.build(frame, &config.clone().in_cube(cube)).unwrap(),
            );
            if i < 3 {
                absorb(&mut hash, &builder.build(frame, &config).unwrap());
            }
        }
    }
    assert_eq!(
        to_hex(&hash.finalize()),
        "2df1d86ef242345e030d81e2deb2dca420b6a115f53e60048c3ff1f87f90283a"
    );
}

/// Frames of the benchmark's content that `prepare_is_pinned_on_any_worker_count`
/// prepares: enough that each of a few workers builds several of them.
const PREPARED_FRAMES: usize = 12;

/// Hashes the bits of `seq`'s shared cube, then every tree's encoded
/// frames at `seq.depths()` and the bits of its byte profile at those
/// depths.
fn prepared_digest(seq: &PreparedSequence) -> String {
    let mut hash = Sha256::new();
    for corner in [seq.cube().min(), seq.cube().max()] {
        for coordinate in [corner.x, corner.y, corner.z] {
            hash.update(&coordinate.to_bits().to_le_bytes());
        }
    }
    for i in 0..seq.len() as u64 {
        absorb_depths(&mut hash, seq.tree(i), seq.depths());
        let profile = seq.byte_profile(i);
        for depth in seq.depths() {
            hash.update(&profile.arrival(depth).to_bits().to_le_bytes());
            hash.update(&profile.quality(depth).to_bits().to_le_bytes());
        }
    }
    to_hex(&hash.finalize())
}

#[test]
fn prepare_is_pinned_on_any_worker_count() {
    // `PreparedSequence::prepare` over the first frames of the benchmark's
    // content at its depths: the shared cube, every tree and every byte
    // profile are the same by default and under `serial_scope`, and equal
    // the serial build's bit for bit (the digest was computed with a
    // `prepare` that built the frames one after another).
    let frames = &benchmark_frames()[..PREPARED_FRAMES];
    let prepare = || PreparedSequence::prepare(frames, 5..=10).unwrap();
    let pinned = "ea3454ac14ba5d44f8d78b3f0504df0c00ecbb65d499a7f7488c72b00231b7b7";
    assert_eq!(prepared_digest(&prepare()), pinned);
    assert_eq!(
        arvis_par::serial_scope(|| prepared_digest(&prepare())),
        pinned
    );

    // One empty frame in a late block fails the sequence on both paths,
    // although every frame before it builds.
    let mut frames = frames.to_vec();
    frames[PREPARED_FRAMES - 2] = PointCloud::new();
    let prepare = || PreparedSequence::prepare(&frames, 5..=10).unwrap_err();
    assert_eq!(prepare(), OctreeError::EmptyCloud);
    assert_eq!(arvis_par::serial_scope(prepare), OctreeError::EmptyCloud);
}

/// A seeded sparse cloud: clusters of points around a few centres, some
/// points repeated, in a box that is not a cube.
fn sparse_cloud(rng: &mut SplitMix64) -> PointCloud {
    let lo = Vec3::new(rng.unit() * 4.0 - 2.0, rng.unit() - 0.5, rng.unit() * 10.0);
    let span = Vec3::new(0.5 + rng.unit(), 0.5 + 2.0 * rng.unit(), 0.1 + rng.unit());
    let mut cloud = PointCloud::new();
    for _ in 0..1 + rng.below(6) {
        let centre = Vec3::new(rng.unit(), rng.unit(), rng.unit());
        // From a wide spread down to a few cells at depth 21.
        let radius = 0.5f64.powi(rng.below(22) as i32);
        for _ in 0..1 + rng.below(120) {
            let mut axis = |c: f64| (c + (rng.unit() - 0.5) * radius).clamp(0.0, 1.0);
            let unit = Vec3::new(axis(centre.x), axis(centre.y), axis(centre.z));
            let p = Vec3::new(
                lo.x + unit.x * span.x,
                lo.y + unit.y * span.y,
                lo.z + unit.z * span.z,
            );
            // One or two points per position, each with its own colour.
            for _ in 0..1 + rng.below(8) / 7 {
                let [r, g, b, ..] = rng.next_u64().to_le_bytes();
                cloud.push(Point::xyz_rgb(p.x, p.y, p.z, r, g, b));
            }
        }
    }
    cloud
}

#[test]
fn sparse_deep_trees_encode_to_the_pinned_digest() {
    let mut rng = SplitMix64(0xDEE9_7EE5);
    let mut builder = OctreeBuilder::new();
    let mut hash = Sha256::new();
    // Four trees at each depth from 11 to 21: both word layouts of the
    // build, in the cloud's own cube and in a larger fixed one.
    for case in 0..44u8 {
        let max_depth = 11 + case % 11;
        let cloud = sparse_cloud(&mut rng);
        let mut config = OctreeConfig::with_max_depth(max_depth);
        if case % 2 == 1 {
            let own = cloud.aabb().unwrap();
            config = config.in_cube(Aabb::new(own.min() - Vec3::splat(0.25), own.max()));
        }
        absorb(&mut hash, &builder.build(&cloud, &config).unwrap());
    }
    assert_eq!(
        to_hex(&hash.finalize()),
        "b4020e9e14a4365246078839605b31e8e49f1aa7be9ba3b06c940c6ea6497cbd"
    );
}

#[test]
fn build_errors_are_pinned() {
    let point = |x: f64| Point::xyz_rgb(x, 0.5, 0.5, 1, 2, 3);
    let mut builder = OctreeBuilder::new();
    let deep = OctreeConfig::with_max_depth(22);
    assert_eq!(
        builder.build(&PointCloud::new(), &deep).unwrap_err(),
        OctreeError::EmptyCloud
    );
    let cloud: PointCloud = (0..20_000)
        .map(|i| point(f64::from(i) / 20_000.0))
        .collect();
    assert_eq!(
        builder.build(&cloud, &deep).unwrap_err(),
        OctreeError::DepthTooLarge { requested: 22 }
    );
    // The lowest offending index, also past the first few thousand points.
    let unit = Aabb::new(Vec3::ZERO, Vec3::ONE);
    for outside in [[3, 7], [9_000, 19_999], [12_345, 12_346]] {
        let cloud: PointCloud = (0..20_000)
            .map(|i| match i {
                _ if i == outside[0] => point(-0.25),
                _ if i == outside[1] => point(1.5),
                _ => point(f64::from(i as u32) / 20_000.0),
            })
            .collect();
        let config = OctreeConfig::with_max_depth(10).in_cube(unit);
        assert_eq!(
            builder.build(&cloud, &config).unwrap_err(),
            OctreeError::PointOutsideCube { index: outside[0] },
            "{outside:?}"
        );
        // Depth is checked before the cube.
        assert_eq!(
            builder
                .build(&cloud, &deep.clone().in_cube(unit))
                .unwrap_err(),
            OctreeError::DepthTooLarge { requested: 22 }
        );
    }
    // A failed build leaves the builder reusable.
    let tree = builder
        .build(&cloud, &OctreeConfig::with_max_depth(10))
        .unwrap();
    assert_eq!(
        tree,
        Octree::build(&cloud, &OctreeConfig::with_max_depth(10)).unwrap()
    );
}
