//! Cross-crate consistency: the same frame measured through different paths
//! (voxel grid, octree, occupancy codec, PLY round-trip) must agree.

use arvis::core::controller::ProposedDpp;
use arvis::core::experiment::v_for_knee;
use arvis::core::pipeline::{run_encoded_pipeline, PreparedSequence};
use arvis::octree::attr::{frames_equivalent, EncodedFrame, FrameCheck};
use arvis::octree::occupancy::{decode_occupancy, encode_occupancy, DecodeError};
use arvis::octree::{LodMode, Octree, OctreeConfig};
use arvis::pointcloud::ply::{read_ply, write_ply, Encoding};
use arvis::pointcloud::synth::{voxelize_to_grid, FrameSequence, SubjectProfile, SynthBodyConfig};
use arvis::pointcloud::voxel::VoxelGrid;
use arvis::pointcloud::{Aabb, Point, PointCloud, Vec3};
use arvis::quality::profile::DepthProfile;

fn frame() -> arvis::pointcloud::PointCloud {
    SynthBodyConfig::new(SubjectProfile::Soldier)
        .with_target_points(20_000)
        .with_seed(5)
        .generate()
}

#[test]
fn octree_occupancy_equals_voxel_grid_occupancy() {
    // Counting occupied cells with the octree and with the flat voxel grid
    // must agree level by level (they quantize over the same bounding cube).
    let cloud = frame();
    let cube = cloud.aabb().unwrap().bounding_cube();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(6).in_cube(cube)).unwrap();
    for depth in 1..=6u8 {
        let grid = VoxelGrid::from_cloud_in_cube(&cloud, &cube, 1 << depth).unwrap();
        assert_eq!(
            tree.occupied_at_depth(depth),
            grid.occupied(),
            "depth {depth}: octree and voxel grid disagree"
        );
    }
}

#[test]
fn occupancy_codec_reconstructs_lod_geometry() {
    let cloud = frame();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(5)).unwrap();
    let stream = encode_occupancy(&tree, 5);
    let decoded = decode_occupancy(stream, tree.cube()).unwrap();
    let lod = tree.extract_lod(5, LodMode::VoxelCenters);
    assert_eq!(decoded.len(), lod.cloud.len());
    // Every decoded center must be (numerically) one of the LoD centers.
    let kd = arvis::pointcloud::kdtree::KdTree::build(lod.cloud.positions());
    for p in decoded.positions() {
        let (_, d2) = kd.nearest(p).unwrap();
        assert!(d2 < 1e-18, "decoded voxel center off by {}", d2.sqrt());
    }
}

#[test]
fn encoded_frame_decodes_to_the_lod_in_order_bitwise() {
    // The codec contract the pipeline's lossless check relies on: a decoded
    // frame is its LoD extraction, point for point and bit for bit. The trees
    // cover one frame's own bounding cube and the shared cubes
    // `PreparedSequence::prepare` builds over seeded multi-frame sequences.
    // The edges of most of those shared cubes differ in their last bits, so
    // only a decoder that starts from the tree's own root cell (instead of
    // cubing that cell again) reproduces the LoD's centers.
    let cloud = frame();
    let cube = cloud.aabb().unwrap().bounding_cube();
    let mut trees =
        vec![Octree::build(&cloud, &OctreeConfig::with_max_depth(8).in_cube(cube)).unwrap()];
    for (subject, seed) in [
        (SubjectProfile::Loot, 2),
        (SubjectProfile::Loot, 3),
        (SubjectProfile::Soldier, 5),
        (SubjectProfile::Longdress, 1),
        (SubjectProfile::RedAndBlack, 1),
    ] {
        let frames: Vec<PointCloud> = FrameSequence::new(subject, 3)
            .with_target_points(3_000)
            .with_seed(seed)
            .iter_frames()
            .collect();
        let sequence = PreparedSequence::prepare(&frames, 2..=8).unwrap();
        trees.extend((0..sequence.len() as u64).map(|i| sequence.tree(i).clone()));
    }
    for (t, tree) in trees.iter().enumerate() {
        for depth in 1..=8u8 {
            let decoded = EncodedFrame::encode(tree, depth)
                .decode(tree.cube())
                .unwrap();
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            assert_eq!(decoded.len(), lod.len(), "tree {t}, depth {depth}");
            for (k, (got, want)) in decoded.iter().zip(lod.iter()).enumerate() {
                assert_eq!(got.color, want.color, "tree {t}, depth {depth}, point {k}");
                for axis in 0..3 {
                    assert_eq!(
                        got.position[axis].to_bits(),
                        want.position[axis].to_bits(),
                        "tree {t}, depth {depth}, point {k}"
                    );
                }
            }
            assert!(frames_equivalent(&decoded, &lod), "tree {t}, depth {depth}");
        }
    }
}

#[test]
fn frame_check_in_reused_buffers_answers_as_fresh_clouds_do() {
    // The slot's lossless check keeps its walk buffers and both clouds
    // from one frame to the next. Each answer must be the one a fresh
    // decode, LoD extraction and comparison give.
    let fresh = |frame: &EncodedFrame, tree: &Octree, depth: u8| -> Result<bool, DecodeError> {
        let decoded = frame.decode(tree.cube())?;
        let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
        Ok(frames_equivalent(&decoded, &lod))
    };
    let frames: Vec<PointCloud> = FrameSequence::new(SubjectProfile::Loot, 3)
        .with_target_points(5_000)
        .with_seed(17)
        .iter_frames()
        .collect();
    let sequence = PreparedSequence::prepare(&frames, 1..=10).unwrap();
    let mut check = FrameCheck::default();
    for slot in 0..sequence.len() as u64 {
        let tree = sequence.tree(slot);
        // Every depth, in an order that shrinks the frames as often as it
        // grows them: a depth-10 frame followed by a depth-5 one leaves a
        // stale tail in every buffer.
        for depth in [10, 5, 9, 1, 6, 2, 8, 3, 7, 4] {
            let what = format!("frame {slot}, depth {depth}");
            let frame = EncodedFrame::encode(tree, depth);
            assert_eq!(check.lossless(&frame, tree, depth), Ok(true), "{what}");
            assert_eq!(fresh(&frame, tree, depth), Ok(true), "{what}");

            // One flipped attribute byte.
            let mut attributes = frame.attributes.to_vec();
            let middle = 1 + (attributes.len() - 1) / 2;
            attributes[middle] ^= 0x5a;
            let flipped = EncodedFrame {
                attributes: attributes.into(),
                ..frame.clone()
            };
            assert_eq!(check.lossless(&flipped, tree, depth), Ok(false), "{what}");
            assert_eq!(fresh(&flipped, tree, depth), Ok(false), "{what}");

            // A truncated occupancy stream, then the frame again.
            let cut = EncodedFrame {
                occupancy: frame.occupancy.slice(0..frame.occupancy.len() - 1),
                ..frame.clone()
            };
            let error = cut.decode(tree.cube()).unwrap_err();
            assert_eq!(error, DecodeError::Truncated, "{what}");
            assert_eq!(check.lossless(&cut, tree, depth), Err(error), "{what}");
            assert_eq!(check.lossless(&frame, tree, depth), Ok(true), "{what}");
        }
    }
}

#[test]
fn frame_check_compares_sorted_when_only_the_order_differs() {
    // Two voxels in a cube of side 1e-9, whose centres both quantize to the
    // origin, with their colours swapped in the attribute stream: the
    // decoded points differ from the LoD's in order only, so the in-order
    // comparison fails and the sorted one must answer.
    let cube = Aabb::new(Vec3::ZERO, Vec3::splat(1e-9));
    let cloud: PointCloud = [
        Point::xyz_rgb(0.25e-9, 0.25e-9, 0.25e-9, 10, 20, 30),
        Point::xyz_rgb(0.75e-9, 0.75e-9, 0.75e-9, 200, 100, 50),
    ]
    .into_iter()
    .collect();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(1).in_cube(cube)).unwrap();
    let frame = EncodedFrame::encode(&tree, 1);
    assert_eq!(frame.attributes.to_vec(), [1, 10, 20, 30, 200, 100, 50]);
    let fresh = |frame: &EncodedFrame| -> Result<bool, DecodeError> {
        let lod = tree.extract_lod(1, LodMode::VoxelCenters).cloud;
        Ok(frames_equivalent(&frame.decode(tree.cube())?, &lod))
    };
    let with_attributes = |rgb: [u8; 6]| EncodedFrame {
        attributes: [&[1][..], &rgb].concat().into(),
        ..frame.clone()
    };

    let swapped = with_attributes([200, 100, 50, 10, 20, 30]);
    let decoded = swapped.decode(tree.cube()).unwrap();
    let lod = tree.extract_lod(1, LodMode::VoxelCenters).cloud;
    assert_ne!(decoded.points()[0], lod.points()[0], "the order differs");
    let mut check = FrameCheck::default();
    assert_eq!(check.lossless(&swapped, &tree, 1), Ok(true));
    assert_eq!(fresh(&swapped), Ok(true));

    // A colour that is in neither point: not lossless on either path.
    let recoloured = with_attributes([200, 100, 50, 10, 20, 31]);
    assert_eq!(check.lossless(&recoloured, &tree, 1), Ok(false));
    assert_eq!(fresh(&recoloured), Ok(false));
    assert_eq!(check.lossless(&frame, &tree, 1), Ok(true));
}

#[test]
fn encoded_pipeline_reports_the_same_on_one_worker_and_on_all() {
    // The verify pass checks fixed blocks of slots on the workers; the
    // report must be the serial loop's, on slot counts that are not
    // multiples of a block and with every kind of verification stride, and
    // the bytes it queued those of the frames it chose, verified or not.
    let frames: Vec<PointCloud> = FrameSequence::new(SubjectProfile::Longdress, 4)
        .with_target_points(2_000)
        .with_seed(3)
        .iter_frames()
        .collect();
    let sequence = PreparedSequence::prepare(&frames, 2..=7).unwrap();
    let profile = sequence.byte_profile(0);
    let rate = (profile.arrival(6) * profile.arrival(7)).sqrt();
    let v = v_for_knee(profile, rate, 20.0).unwrap();
    let run = |slots: u64, verify_every: u64| {
        run_encoded_pipeline(
            &sequence,
            &mut ProposedDpp::new(v),
            rate,
            slots,
            verify_every,
        )
    };
    for slots in [1u64, 7, 61, 121] {
        for verify_every in [0u64, 1, 4] {
            let what = format!("{slots} slots, verifying every {verify_every}");
            let all = run(slots, verify_every);
            let one = arvis_par::serial_scope(|| run(slots, verify_every));
            assert_eq!(format!("{all:?}"), format!("{one:?}"), "{what}");
            let verified = if verify_every == 0 {
                0
            } else {
                slots.div_ceil(verify_every)
            };
            assert_eq!(all.frames_verified as u64, verified, "{what}");
            assert!(all.all_decodes_lossless, "{what}");
            // The control pass queues each frame's size without encoding
            // it; the sizes are those of the frames the slots would send.
            let encoded: usize = (0..slots)
                .zip(all.depth.values())
                .map(|(slot, &depth)| {
                    EncodedFrame::encode(sequence.tree(slot), depth as u8).byte_size()
                })
                .sum();
            assert_eq!(all.bytes_encoded, encoded as u64, "{what}");
        }
    }
}

#[test]
fn profile_matches_octree_direct_measurement() {
    let cloud = frame();
    let profile = DepthProfile::measure(&cloud, 3..=6).unwrap();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(6)).unwrap();
    for d in 3..=6u8 {
        assert_eq!(profile.arrival(d), tree.occupied_at_depth(d) as f64);
    }
}

#[test]
fn ply_roundtrip_preserves_profile() {
    // Writing a frame to the 8i PLY format and reading it back must not
    // change the scheduler-visible statistics.
    let voxelized = voxelize_to_grid(&frame(), 8);
    let mut bytes = Vec::new();
    write_ply(&mut bytes, &voxelized, Encoding::BinaryLittleEndian).unwrap();
    let reread = read_ply(&bytes[..]).unwrap();

    let before = DepthProfile::measure(&voxelized, 3..=6).unwrap();
    let after = DepthProfile::measure(&reread, 3..=6).unwrap();
    for d in 3..=6u8 {
        assert_eq!(
            before.arrival(d),
            after.arrival(d),
            "arrival changed at {d}"
        );
        assert!((before.quality(d) - after.quality(d)).abs() < 1e-12);
    }
}

#[test]
fn voxelized_export_bounds_and_dedup() {
    let v = voxelize_to_grid(&frame(), 10);
    // All coordinates integral in [0, 1024).
    for p in v.iter() {
        for c in [p.position.x, p.position.y, p.position.z] {
            assert_eq!(c.fract(), 0.0);
            assert!((0.0..1024.0).contains(&c));
        }
    }
    // No duplicate voxels.
    let mut keys: Vec<(i64, i64, i64)> = v
        .positions()
        .map(|p| (p.x as i64, p.y as i64, p.z as i64))
        .collect();
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n);
}
