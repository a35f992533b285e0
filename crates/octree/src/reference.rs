//! Test oracles: the walks the codec and the LoD ran before they read the
//! arena in stream order, and the differential tests that pin the linear
//! walks to them.
//!
//! The references go through [`NodeView`]: a frontier BFS encoder, a
//! frontier decoder that builds all eight octants of every cell, and a DFS
//! LoD extractor, with mean colors rounded from a float quotient. They are
//! kept as they were, including the decoder's acceptance of bytes after the
//! declared depth.

use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::color::Color;
use arvis_pointcloud::math::Vec3;
use arvis_pointcloud::point::Point;
use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::attr::{
    decode_attributes, encode_attributes, frames_equivalent, same_in_order, same_when_sorted,
    EncodedFrame,
};
use crate::lod::LodMode;
use crate::occupancy::{decode_occupancy, encode_occupancy, DecodeError};
use crate::tree::{NodeId, NodeView, Octree, OctreeConfig};

/// Breadth-first occupancy encoder over a frontier of node ids.
fn encode_occupancy_bfs(tree: &Octree, depth: u8) -> Bytes {
    let mut out = BytesMut::with_capacity(1 + tree.node_count());
    out.put_u8(depth);
    let mut frontier: Vec<NodeId> = vec![NodeId::ROOT];
    for _level in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for id in &frontier {
            let view = tree.node(*id);
            out.put_u8(view.occupancy_byte());
            for child in view.children() {
                next.push(child.id());
            }
        }
        frontier = next;
    }
    out.freeze()
}

/// A node's mean color as the views computed it: each channel's float
/// quotient, rounded.
fn mean_color_float(tree: &Octree, id: NodeId) -> Color {
    let n = tree.node(id).count() as f64;
    let c = tree.arena.color_sum(id.index());
    Color::new(
        (c[0] as f64 / n).round() as u8,
        (c[1] as f64 / n).round() as u8,
        (c[2] as f64 / n).round() as u8,
    )
}

/// Attribute encoder through node views.
fn encode_attributes_views(tree: &Octree, depth: u8) -> Bytes {
    let mut out = BytesMut::with_capacity(1 + 3 * tree.occupied_at_depth(depth));
    out.put_u8(depth);
    for id in tree.nodes_at_depth(depth) {
        let c = mean_color_float(tree, id);
        out.put_u8(c.r);
        out.put_u8(c.g);
        out.put_u8(c.b);
    }
    out.freeze()
}

/// Frontier decoder: one cube per expected byte, all eight octants built.
fn decode_occupancy_frontier(mut stream: Bytes, cube: &Aabb) -> Result<PointCloud, DecodeError> {
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

/// Depth-first LoD extraction over a stack of (node, cube, depth).
fn extract_lod_dfs(tree: &Octree, depth: u8, mode: LodMode) -> PointCloud {
    let mut cloud = PointCloud::with_capacity(tree.occupied_at_depth(depth));
    let mut stack: Vec<(NodeId, Aabb, u8)> = vec![(NodeId::ROOT, *tree.cube(), 0)];
    while let Some((id, cube, d)) = stack.pop() {
        let view = tree.node(id);
        if d == depth {
            let position = match mode {
                LodMode::VoxelCenters => cube.center(),
                LodMode::MeanPositions => view.mean_position(),
            };
            cloud.push(Point::new(position, mean_color_float(tree, id)));
            continue;
        }
        let octants = cube.octants();
        for o in 0..8 {
            if let Some(child) = view.child(o) {
                stack.push((child.id(), octants[o], d + 1));
            }
        }
    }
    cloud
}

const MAX_DEPTH: u8 = 9;

/// Seeded synthetic bodies in one shared cube, the bounding cube of their
/// union, as `PreparedSequence::prepare` builds it. Its corners are not
/// round numbers, so midpoint sums round, and only the same subdivision
/// reproduces a voxel center bit for bit.
fn trees() -> Vec<Octree> {
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
        .iter()
        .map(|f| Octree::build(f, &config).unwrap())
        .collect()
}

/// The bit patterns of a point, for bitwise comparison and sorting.
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

fn as_multiset(c: &PointCloud) -> Vec<(u64, u64, u64, [u8; 3])> {
    let mut v = in_order(c);
    v.sort_unstable();
    v
}

#[test]
fn encoded_streams_match_the_view_walks() {
    for tree in trees() {
        for depth in 1..=MAX_DEPTH {
            assert_eq!(
                encode_occupancy(&tree, depth),
                encode_occupancy_bfs(&tree, depth),
                "occupancy at depth {depth}"
            );
        }
        for depth in 0..=MAX_DEPTH {
            assert_eq!(
                encode_attributes(&tree, depth),
                encode_attributes_views(&tree, depth),
                "attributes at depth {depth}"
            );
        }
    }
}

#[test]
fn decoded_frames_match_the_frontier_decoder_bitwise() {
    for tree in trees() {
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
fn lod_is_the_dfs_multiset_in_arena_order() {
    for tree in trees() {
        let visits: Vec<_> = tree.bfs().collect();
        for depth in 0..=MAX_DEPTH {
            for mode in [LodMode::VoxelCenters, LodMode::MeanPositions] {
                let lod = tree.extract_lod(depth, mode).cloud;
                let dfs = extract_lod_dfs(&tree, depth, mode);
                assert_eq!(
                    as_multiset(&lod),
                    as_multiset(&dfs),
                    "{mode:?} at depth {depth}"
                );
                // Point k is node k of `nodes_at_depth`, whose cube the
                // breadth-first traversal derives independently.
                let nodes: Vec<NodeView<'_>> =
                    tree.nodes_at_depth(depth).map(|id| tree.node(id)).collect();
                let cubes: Vec<Aabb> = visits
                    .iter()
                    .filter(|v| v.node.depth() == depth)
                    .map(|v| v.cube)
                    .collect();
                let expected: PointCloud = nodes
                    .iter()
                    .zip(&cubes)
                    .map(|(node, cube)| {
                        let position = match mode {
                            LodMode::VoxelCenters => cube.center(),
                            LodMode::MeanPositions => node.mean_position(),
                        };
                        Point::new(position, node.mean_color())
                    })
                    .collect();
                assert_eq!(
                    in_order(&lod),
                    in_order(&expected),
                    "{mode:?} at depth {depth}"
                );
            }
        }
    }
}

#[test]
fn decode_then_verify_takes_the_linear_path() {
    for tree in trees() {
        for depth in 1..=MAX_DEPTH {
            let decoded = EncodedFrame::encode(&tree, depth)
                .decode(tree.cube())
                .unwrap();
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            assert_eq!(in_order(&decoded), in_order(&lod), "depth {depth}");
            assert!(same_in_order(&decoded, &lod), "depth {depth}");
        }
    }
}

#[test]
fn malformed_streams_give_the_reference_errors() {
    let tree = &trees()[0];
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
    for tree in trees() {
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
                let (fast, sorted) = (same_in_order(&lod, other), same_when_sorted(&lod, other));
                assert_eq!(sorted, *equivalent, "case {i} at depth {depth}");
                assert_eq!(fast, *equivalent && *ordered, "case {i} at depth {depth}");
                assert_eq!(frames_equivalent(&lod, other), sorted, "case {i}");
            }
        }
    }
}

/// Voxel codes by the recursive walk `diff_at_depth` ran before it shared
/// the breadth-first walk: a DFS over node views, accumulating octant bits.
fn voxel_codes_dfs(tree: &Octree, depth: u8) -> Vec<u64> {
    fn walk(tree: &Octree, id: NodeId, d: u8, target: u8, prefix: u64, out: &mut Vec<u64>) {
        if d == target {
            out.push(prefix);
            return;
        }
        let view = tree.node(id);
        for o in 0..8usize {
            if let Some(child) = view.child(o) {
                walk(
                    tree,
                    child.id(),
                    d + 1,
                    target,
                    (prefix << 3) | o as u64,
                    out,
                );
            }
        }
    }
    let mut out = Vec::with_capacity(tree.occupied_at_depth(depth));
    walk(tree, NodeId::ROOT, 0, depth, 0, &mut out);
    out
}

/// Two sparse trees at the deepest supported depth over one shared box far
/// from the origin: a handful of far-apart points, two of them 1e-5 apart
/// so that their paths split only a few levels above the leaves, and the
/// second tree drops two points and adds one. With so few voxels per level,
/// every level deeper than a few has its centers bisected below the tables.
fn sparse_deep_trees() -> [Octree; 2] {
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
    frames.map(|f| Octree::build(&f, &config).unwrap())
}

#[test]
fn sparse_deep_trees_decode_like_the_frontier_decoder() {
    for tree in sparse_deep_trees() {
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

#[test]
fn sparse_deep_trees_lod_is_the_dfs_multiset_in_arena_order() {
    for tree in sparse_deep_trees() {
        let visits: Vec<_> = tree.bfs().collect();
        for depth in 0..=crate::MAX_SUPPORTED_DEPTH {
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            let dfs = extract_lod_dfs(&tree, depth, LodMode::VoxelCenters);
            assert_eq!(as_multiset(&lod), as_multiset(&dfs), "depth {depth}");
            let expected: PointCloud = visits
                .iter()
                .filter(|v| v.node.depth() == depth)
                .map(|v| Point::new(v.cube.center(), v.node.mean_color()))
                .collect();
            assert_eq!(in_order(&lod), in_order(&expected), "depth {depth}");
        }
    }
}

#[test]
fn diff_codes_match_the_recursive_walk() {
    use std::collections::BTreeSet;

    let dense = trees();
    let sparse = sparse_deep_trees();
    let pairs = dense
        .windows(2)
        .map(|w| (&w[0], &w[1]))
        .chain([(&sparse[0], &sparse[1])]);
    for (a, b) in pairs {
        for depth in 0..=a.max_depth() {
            let (codes_a, codes_b) = (voxel_codes_dfs(a, depth), voxel_codes_dfs(b, depth));
            let mut walked = Vec::new();
            a.walk_voxels(depth, |code| walked.push(code));
            assert_eq!(walked, codes_a, "depth {depth}");
            let (set_a, set_b): (BTreeSet<u64>, BTreeSet<u64>) =
                (codes_a.into_iter().collect(), codes_b.into_iter().collect());
            let diff = crate::diff::diff_at_depth(a, b, depth);
            let added: Vec<u64> = set_b.difference(&set_a).copied().collect();
            let removed: Vec<u64> = set_a.difference(&set_b).copied().collect();
            assert_eq!(diff.added, added, "depth {depth}");
            assert_eq!(diff.removed, removed, "depth {depth}");
            assert_eq!(diff.unchanged, set_a.intersection(&set_b).count());
        }
    }
}
