//! Test oracles, and the differential tests that pin the codec and the LoD
//! to them.
//!
//! No oracle reads a tree. The levels of a cloud come from an independent
//! voxelizer, [`VoxelGrid::from_cloud_in_cube`] at `2^d` cells per axis for
//! depth `d`: Morton order from [`VoxelKey::morton`], mean colours from
//! [`VoxelCell::mean_color`] (the float quotient, rounded) and centres from
//! an [`Aabb::octants`] descent along each code. From those levels come an
//! occupancy encoder (each byte gathered from the codes one level down), an
//! attribute encoder and the LoD. The frontier decoder builds all eight
//! octants of every cell from the stream alone; it is kept as it was,
//! including its acceptance of bytes after the declared depth.
//!
//! [`VoxelKey::morton`]: arvis_pointcloud::voxel::VoxelKey::morton
//! [`VoxelCell::mean_color`]: arvis_pointcloud::voxel::VoxelCell::mean_color

use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::color::Color;
use arvis_pointcloud::math::Vec3;
use arvis_pointcloud::point::Point;
use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
use arvis_pointcloud::voxel::VoxelGrid;
use bytes::{Buf, Bytes};

use crate::attr::{
    decode_attributes, encode_attributes, frames_equivalent, same_in_order, same_when_sorted,
    EncodedFrame,
};
use crate::lod::LodMode;
use crate::occupancy::{decode_occupancy, encode_occupancy, DecodeError};
use crate::tree::{Octree, OctreeConfig};

/// The depth-`depth` voxels of `cloud` in `cube`: each one's Morton code,
/// ascending, with its mean colour.
fn grid_level(cloud: &PointCloud, cube: &Aabb, depth: u8) -> Vec<(u64, Color)> {
    let grid = VoxelGrid::from_cloud_in_cube(cloud, cube, 1 << depth).unwrap();
    let mut level: Vec<(u64, Color)> = grid
        .cells()
        .iter()
        .map(|(key, cell)| (key.morton(u32::from(depth)), cell.mean_color()))
        .collect();
    level.sort_unstable_by_key(|&(code, _)| code);
    level
}

/// The occupancy bytes of every voxel above `depth`, level by level in
/// Morton order: each voxel's byte sets the octant of each of its
/// children, gathered from the codes one level down.
pub(crate) fn occupancy_from_grids(cloud: &PointCloud, cube: &Aabb, depth: u8) -> Vec<u8> {
    let mut bytes = Vec::new();
    for d in 1..=depth {
        let mut parent = None;
        for (code, _) in grid_level(cloud, cube, d) {
            if parent != Some(code >> 3) {
                parent = Some(code >> 3);
                bytes.push(0);
            }
            *bytes.last_mut().unwrap() |= 1 << (code & 7);
        }
    }
    bytes
}

/// The occupancy stream of `cloud` in `cube` down to `depth`.
fn encode_occupancy_grids(cloud: &PointCloud, cube: &Aabb, depth: u8) -> Bytes {
    let mut stream = vec![depth];
    stream.extend(occupancy_from_grids(cloud, cube, depth));
    Bytes::from(stream)
}

/// The attribute stream of `cloud`'s depth-`depth` voxels in `cube`.
fn encode_attributes_grid(cloud: &PointCloud, cube: &Aabb, depth: u8) -> Bytes {
    let mut stream = vec![depth];
    for (_, c) in grid_level(cloud, cube, depth) {
        stream.extend([c.r, c.g, c.b]);
    }
    Bytes::from(stream)
}

/// The depth-`depth` LoD of `cloud` in `cube`: each voxel's centre, found
/// by descending `cube`'s octants along its code, with its mean colour, in
/// Morton order.
fn lod_from_grid(cloud: &PointCloud, cube: &Aabb, depth: u8) -> PointCloud {
    grid_level(cloud, cube, depth)
        .into_iter()
        .map(|(code, color)| {
            let mut cell = *cube;
            for level in (0..depth).rev() {
                cell = cell.octants()[((code >> (3 * level)) & 7) as usize];
            }
            Point::new(cell.center(), color)
        })
        .collect()
}

/// Frontier decoder: one cube per expected byte, all eight octants built.
pub(crate) fn decode_occupancy_frontier(
    mut stream: Bytes,
    cube: &Aabb,
) -> Result<PointCloud, DecodeError> {
    if stream.remaining() < 1 {
        return Err(DecodeError::BadHeader);
    }
    let depth = stream.get_u8();
    if depth == 0 {
        return Err(DecodeError::BadHeader);
    }
    let mut offset = 1usize;
    let mut frontier: Vec<Aabb> = vec![cube.bounding_cube()];
    for _level in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for cell in &frontier {
            if stream.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let byte = stream.get_u8();
            if byte == 0 {
                return Err(DecodeError::EmptyNodeByte { offset });
            }
            offset += 1;
            let octants = cell.octants();
            for (o, octant_cube) in octants.iter().enumerate() {
                if byte & (1 << o) != 0 {
                    next.push(*octant_cube);
                }
            }
        }
        frontier = next;
    }
    Ok(frontier
        .into_iter()
        .map(|c| Point::from_position(c.center()))
        .collect())
}

/// Frame decoder: geometry, then colors, then a zip of the two.
fn decode_frame_frontier(frame: &EncodedFrame, cube: &Aabb) -> Result<PointCloud, DecodeError> {
    let geometry = decode_occupancy_frontier(frame.occupancy.clone(), cube)?;
    let (depth, colors) = decode_attributes(frame.attributes.clone())?;
    if depth != frame.depth || colors.len() != geometry.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(geometry
        .positions()
        .zip(colors)
        .map(|(p, c)| Point::new(p, c))
        .collect())
}

const MAX_DEPTH: u8 = 9;

/// Seeded synthetic bodies in one shared cube, the bounding cube of their
/// union, as `PreparedSequence::prepare` builds it, each with its tree. The
/// cube's corners are not round numbers, so midpoint sums round, and only
/// the same subdivision reproduces a voxel center bit for bit.
fn trees() -> Vec<(PointCloud, Octree)> {
    let frames: Vec<PointCloud> = [
        (SubjectProfile::Loot, 3),
        (SubjectProfile::Soldier, 5),
        (SubjectProfile::Longdress, 7),
        (SubjectProfile::RedAndBlack, 11),
    ]
    .into_iter()
    .map(|(subject, seed)| {
        SynthBodyConfig::new(subject)
            .with_target_points(4_000)
            .with_seed(seed)
            .generate()
    })
    .collect();
    let cube = frames
        .iter()
        .filter_map(PointCloud::aabb)
        .reduce(|a, b| a.union(&b))
        .unwrap()
        .bounding_cube();
    let config = OctreeConfig::with_max_depth(MAX_DEPTH).in_cube(cube);
    frames
        .into_iter()
        .map(|f| {
            let tree = Octree::build(&f, &config).unwrap();
            (f, tree)
        })
        .collect()
}

/// A seeded body built over its own bounding cube, the default when no
/// shared cube is given: the build takes the cloud's box, not a supplied
/// one, and skips the containment check.
fn own_cube_tree() -> (PointCloud, Octree) {
    let cloud = SynthBodyConfig::new(SubjectProfile::Soldier)
        .with_target_points(4_000)
        .with_seed(41)
        .generate();
    let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(MAX_DEPTH)).unwrap();
    (cloud, tree)
}

/// Two sparse trees at the deepest supported depth over one shared box far
/// from the origin: a handful of far-apart points, two of them 1e-5 apart
/// so that their paths split only a few levels above the leaves, and the
/// second tree drops two points and adds one. With so few voxels per level,
/// every level deeper than a few has its centers bisected below the tables.
fn sparse_deep_trees() -> [(PointCloud, Octree); 2] {
    let points = [
        Vec3::new(1000.25, -40.5, 7.125),
        Vec3::new(1003.9, -37.01, 9.3),
        Vec3::new(1001.7, -38.2, 8.0),
        Vec3::new(1001.70001, -38.20001, 8.00001),
        Vec3::new(1000.0, -41.0, 7.0),
        Vec3::new(1004.0, -36.5, 9.9),
        Vec3::new(1002.2, -39.9, 8.8),
    ];
    let cloud = |keep: &dyn Fn(usize) -> bool| -> PointCloud {
        points
            .iter()
            .enumerate()
            .filter(|&(i, _)| keep(i))
            .map(|(i, p)| Point::new(*p, Color::new(i as u8 * 30, 7, 200)))
            .collect()
    };
    let frames = [cloud(&|i| i < 6), cloud(&|i| i != 1 && i != 3)];
    let cube = frames
        .iter()
        .filter_map(PointCloud::aabb)
        .reduce(|a, b| a.union(&b))
        .unwrap();
    let config = OctreeConfig::with_max_depth(crate::MAX_SUPPORTED_DEPTH).in_cube(cube);
    frames.map(|f| {
        let tree = Octree::build(&f, &config).unwrap();
        (f, tree)
    })
}

/// The bit patterns of a point, for bitwise comparison.
fn bits(p: &Point) -> (u64, u64, u64, [u8; 3]) {
    (
        p.position.x.to_bits(),
        p.position.y.to_bits(),
        p.position.z.to_bits(),
        [p.color.r, p.color.g, p.color.b],
    )
}

fn in_order(c: &PointCloud) -> Vec<(u64, u64, u64, [u8; 3])> {
    c.iter().map(bits).collect()
}

#[test]
fn encoded_streams_match_the_voxel_grids() {
    let all = trees().into_iter().chain(sparse_deep_trees());
    for (cloud, tree) in all.chain([own_cube_tree()]) {
        let cube = tree.cube();
        for depth in 1..=tree.max_depth() {
            assert_eq!(
                encode_occupancy(&tree, depth),
                encode_occupancy_grids(&cloud, cube, depth),
                "occupancy at depth {depth}"
            );
        }
        for depth in 0..=tree.max_depth() {
            assert_eq!(
                encode_attributes(&tree, depth),
                encode_attributes_grid(&cloud, cube, depth),
                "attributes at depth {depth}"
            );
        }
    }
}

#[test]
fn lod_is_the_voxel_grid_in_order() {
    let all = trees().into_iter().chain(sparse_deep_trees());
    for (cloud, tree) in all.chain([own_cube_tree()]) {
        for depth in 0..=tree.max_depth() {
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            let grid = lod_from_grid(&cloud, tree.cube(), depth);
            assert_eq!(in_order(&lod), in_order(&grid), "depth {depth}");
        }
    }
}

#[test]
fn decoded_frames_match_the_frontier_decoder_bitwise() {
    for (_, tree) in trees() {
        // The tree's cube, and a box the decoders must first make cubic.
        let c = tree.cube();
        let stretched = Aabb::new(c.min(), c.max() + Vec3::new(0.1, 0.0, 0.03));
        for cube in [c, &stretched] {
            for depth in 1..=MAX_DEPTH {
                let frame = EncodedFrame::encode(&tree, depth);
                let geometry = decode_occupancy(frame.occupancy.clone(), cube).unwrap();
                let reference = decode_occupancy_frontier(frame.occupancy.clone(), cube).unwrap();
                assert_eq!(in_order(&geometry), in_order(&reference), "depth {depth}");
                let decoded = frame.decode(cube).unwrap();
                let reference = decode_frame_frontier(&frame, cube).unwrap();
                assert_eq!(in_order(&decoded), in_order(&reference), "depth {depth}");
            }
        }
    }
}

#[test]
fn decode_then_verify_takes_the_linear_path() {
    for (_, tree) in trees() {
        for depth in 1..=MAX_DEPTH {
            let decoded = EncodedFrame::encode(&tree, depth)
                .decode(tree.cube())
                .unwrap();
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            assert_eq!(in_order(&decoded), in_order(&lod), "depth {depth}");
            assert!(
                same_in_order(decoded.points(), lod.points()),
                "depth {depth}"
            );
        }
    }
}

#[test]
fn malformed_streams_give_the_reference_errors() {
    let tree = &trees()[0].1;
    for depth in 1..=5u8 {
        let frame = EncodedFrame::encode(tree, depth);
        let occupancy = frame.occupancy.to_vec();
        let mut mutants: Vec<Vec<u8>> = (0..occupancy.len())
            .map(|k| occupancy[..k].to_vec())
            .collect();
        for i in 0..occupancy.len() {
            let mut zeroed = occupancy.clone();
            zeroed[i] = 0;
            mutants.push(zeroed);
        }
        for mutant in mutants {
            let stream = Bytes::from(mutant);
            let got = decode_occupancy(stream.clone(), tree.cube()).unwrap_err();
            let want = decode_occupancy_frontier(stream.clone(), tree.cube()).unwrap_err();
            assert_eq!(got, want, "occupancy of {} bytes", stream.len());
            let frame = EncodedFrame {
                occupancy: stream,
                ..frame.clone()
            };
            assert_eq!(
                frame.decode(tree.cube()).unwrap_err(),
                decode_frame_frontier(&frame, tree.cube()).unwrap_err()
            );
        }
        // Attribute truncations, and attributes of another depth.
        let attributes = frame.attributes.to_vec();
        let mut mutants: Vec<Vec<u8>> = (0..attributes.len())
            .map(|k| attributes[..k].to_vec())
            .collect();
        mutants.push(encode_attributes(tree, depth + 1).to_vec());
        let mut relabelled = attributes.clone();
        relabelled[0] = depth + 1;
        mutants.push(relabelled);
        for mutant in mutants {
            let frame = EncodedFrame {
                attributes: Bytes::from(mutant),
                ..frame.clone()
            };
            assert_eq!(
                frame.decode(tree.cube()).unwrap_err(),
                decode_frame_frontier(&frame, tree.cube()).unwrap_err(),
                "attributes of {} bytes",
                frame.attributes.len()
            );
        }
    }
}

#[test]
fn verify_paths_agree() {
    for (_, tree) in trees() {
        for depth in [3u8, 6, MAX_DEPTH] {
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            let points = lod.points();
            let n = points.len();
            // The same points, rotated by one place and reversed.
            let mut permuted = points.to_vec();
            permuted.rotate_left(1);
            permuted.reverse();
            // One coordinate moved by 1e-5 (ten quanta), one color channel
            // changed, and one coordinate nudged well inside its quantum.
            let mut moved = points.to_vec();
            moved[n / 2].position.y += 1e-5;
            let mut recolored = points.to_vec();
            recolored[n / 3].color.g ^= 1;
            let mut nudged = points.to_vec();
            nudged[n / 4].position.z += 1e-12;
            // (cloud, equivalent, in the same order)
            let cases = [
                (PointCloud::from_points(points.to_vec()), true, true),
                (PointCloud::from_points(permuted), true, false),
                (PointCloud::from_points(moved), false, true),
                (PointCloud::from_points(recolored), false, true),
                (PointCloud::from_points(nudged), true, true),
            ];
            for (i, (other, equivalent, ordered)) in cases.iter().enumerate() {
                let (fast, sorted) = (
                    same_in_order(lod.points(), other.points()),
                    same_when_sorted(lod.points(), other.points()),
                );
                assert_eq!(sorted, *equivalent, "case {i} at depth {depth}");
                assert_eq!(fast, *equivalent && *ordered, "case {i} at depth {depth}");
                assert_eq!(frames_equivalent(&lod, other), sorted, "case {i}");
            }
        }
    }
}

#[test]
fn sparse_deep_trees_decode_like_the_frontier_decoder() {
    for (_, tree) in sparse_deep_trees() {
        let c = tree.cube();
        let stretched = Aabb::new(c.min(), c.max() + Vec3::new(0.1, 0.0, 0.03));
        for cube in [c, &stretched] {
            for depth in 1..=crate::MAX_SUPPORTED_DEPTH {
                let frame = EncodedFrame::encode(&tree, depth);
                let geometry = decode_occupancy(frame.occupancy.clone(), cube).unwrap();
                let reference = decode_occupancy_frontier(frame.occupancy.clone(), cube).unwrap();
                assert_eq!(in_order(&geometry), in_order(&reference), "depth {depth}");
                let decoded = frame.decode(cube).unwrap();
                let reference = decode_frame_frontier(&frame, cube).unwrap();
                assert_eq!(in_order(&decoded), in_order(&reference), "depth {depth}");
            }
        }
    }
}
