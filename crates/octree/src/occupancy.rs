//! Breadth-first occupancy-byte serialization.
//!
//! An octree's *structure* (which voxels are occupied at each level) can be
//! encoded as one byte per internal node, in breadth-first order — the format
//! used by point-cloud geometry codecs (e.g. MPEG G-PCC) and a natural unit
//! for "AR stream bytes ready to be visualized" in the paper's queue model.

use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::math::Vec3;
use arvis_pointcloud::point::Point;
use bytes::Bytes;

use crate::tree::Octree;

/// Errors from decoding an occupancy stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The stream ended before all announced levels were decoded.
    Truncated,
    /// A node byte was zero, which would encode an occupied node with no
    /// occupied children — invalid in a tree built from points.
    EmptyNodeByte {
        /// Byte offset of the offending byte.
        offset: usize,
    },
    /// The header is malformed.
    BadHeader,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "occupancy stream truncated"),
            DecodeError::EmptyNodeByte { offset } => {
                write!(f, "zero occupancy byte at offset {offset}")
            }
            DecodeError::BadHeader => write!(f, "malformed occupancy header"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes the tree structure down to `depth` as an occupancy byte
/// stream.
///
/// Layout: `[depth: u8][root byte][level-1 bytes...]...[level-(depth-1) bytes]`
/// where each level's bytes appear in the same order as the parent bits of
/// the previous level. A tree serialized to `depth` reconstructs the voxel
/// set of every level `0..=depth`.
///
/// That order is the arena's own (breadth-first, each level in Morton
/// order), so the stream is the occupancy bytes of arena rows
/// `0..level_start(depth)`, read in one linear pass.
///
/// # Panics
///
/// Panics when `depth` is 0 or exceeds the tree's max depth.
pub fn encode_occupancy(tree: &Octree, depth: u8) -> Bytes {
    assert!(depth >= 1, "occupancy encoding needs depth >= 1");
    assert!(depth <= tree.max_depth(), "depth exceeds max depth");
    let internal = tree.level_rows(depth).start;
    let mut out = Vec::with_capacity(1 + internal);
    out.push(depth);
    out.extend((0..internal).map(|row| tree.arena.occupancy_byte(row)));
    Bytes::from(out)
}

/// Decodes an occupancy stream into the voxel-center cloud of its deepest
/// level, over the given bounding cube.
///
/// The colors of the result are black (occupancy streams carry geometry
/// only).
///
/// # Errors
///
/// [`DecodeError::BadHeader`] for an empty stream or a zero depth,
/// [`DecodeError::EmptyNodeByte`] at the first zero node byte, and
/// [`DecodeError::Truncated`] when the stream ends before the declared
/// depth or carries bytes after it (as [`ProgressiveDecoder::push`]
/// rejects them).
pub fn decode_occupancy(stream: Bytes, cube: &Aabb) -> Result<PointCloud, DecodeError> {
    let mut cloud = PointCloud::new();
    decode_stream(&stream, cube, |center| {
        cloud.push(Point::from_position(center));
    })?;
    Ok(cloud)
}

/// Decodes a whole occupancy stream over `cube`, calling `emit` with every
/// voxel center of the declared depth in stream order. The errors are those
/// of [`decode_occupancy`].
pub(crate) fn decode_stream(
    stream: &[u8],
    cube: &Aabb,
    emit: impl FnMut(Vec3),
) -> Result<(), DecodeError> {
    let (&depth, nodes) = stream.split_first().ok_or(DecodeError::BadHeader)?;
    if depth == 0 {
        return Err(DecodeError::BadHeader);
    }
    let node_byte = |i: usize| match nodes.get(i) {
        None => Err(DecodeError::Truncated),
        Some(0) => Err(DecodeError::EmptyNodeByte { offset: 1 + i }),
        Some(&byte) => Ok(byte),
    };
    if walk_levels(cube.bounding_cube(), depth, node_byte, emit)? != nodes.len() {
        // Bytes after the declared depth.
        return Err(DecodeError::Truncated);
    }
    Ok(())
}

/// The breadth-first occupancy walk shared by the decoder and
/// [`Octree::extract_lod`]: subdivides `root` through `levels` levels, where
/// `node_byte(i)` is the `i`-th occupancy byte in stream order (arena row
/// `i` of a tree), and calls `emit` with the center of every depth-`levels`
/// cell, in stream order. Cells are split with the arithmetic of
/// [`Aabb::octants`], but only the occupied octants are built, and the
/// deepest level's cells are never stored. Returns the number of bytes read;
/// stops at the first error `node_byte` returns.
pub(crate) fn walk_levels<E>(
    root: Aabb,
    levels: u8,
    mut node_byte: impl FnMut(usize) -> Result<u8, E>,
    mut emit: impl FnMut(Vec3),
) -> Result<usize, E> {
    if levels == 0 {
        emit(root.center());
        return Ok(0);
    }
    let mut read = 0usize;
    let mut cells = vec![root];
    let mut next = Vec::new();
    for level in 1..=levels {
        let last = level == levels;
        for cell in &cells {
            let mut bits = node_byte(read)?;
            read += 1;
            while bits != 0 {
                let child = cell.octant(bits.trailing_zeros() as usize);
                bits &= bits - 1;
                if last {
                    emit(child.center());
                } else {
                    next.push(child);
                }
            }
        }
        std::mem::swap(&mut cells, &mut next);
        next.clear();
    }
    Ok(read)
}

/// The encoded size in bytes of the tree structure down to `depth`
/// (header included), without materializing the stream.
pub fn encoded_size(tree: &Octree, depth: u8) -> usize {
    assert!(depth >= 1 && depth <= tree.max_depth());
    // One byte per node at depths 0..depth: the arena rows above `depth`.
    1 + tree.level_rows(depth).start
}

/// Incremental occupancy decoding: consume the stream as bytes arrive and
/// surface a coarse-to-fine preview after every completed level.
///
/// An AR client behind a slow link does not wait for the whole frame — the
/// breadth-first layout means each completed level is already a renderable
/// LoD. Feed arbitrary chunks with [`ProgressiveDecoder::push`]; whenever a
/// level completes, [`ProgressiveDecoder::preview`] returns the current
/// voxel-center cloud.
#[derive(Debug, Clone)]
pub struct ProgressiveDecoder {
    /// Cubes whose occupancy bytes are expected next (current level).
    frontier: Vec<Aabb>,
    /// Cubes decoded for the next level so far.
    next: Vec<Aabb>,
    /// Index into `frontier` of the next byte's parent.
    cursor: usize,
    declared_depth: Option<u8>,
    completed_levels: u8,
    offset: usize,
}

impl ProgressiveDecoder {
    /// Starts a decoder over the frame's bounding cube.
    pub fn new(cube: &Aabb) -> ProgressiveDecoder {
        ProgressiveDecoder {
            frontier: vec![cube.bounding_cube()],
            next: Vec::new(),
            cursor: 0,
            declared_depth: None,
            completed_levels: 0,
            offset: 0,
        }
    }

    /// Number of fully decoded levels so far.
    pub fn completed_levels(&self) -> u8 {
        self.completed_levels
    }

    /// `true` when the declared depth has been fully decoded.
    pub fn is_complete(&self) -> bool {
        self.declared_depth
            .is_some_and(|d| self.completed_levels >= d)
    }

    /// Consumes a chunk of stream bytes. Returns how many levels *completed*
    /// during this push.
    ///
    /// # Errors
    ///
    /// Rejects zero occupancy bytes, a zero declared depth, and bytes past
    /// the declared end of the stream.
    pub fn push(&mut self, chunk: &[u8]) -> Result<u8, DecodeError> {
        let mut completed = 0u8;
        for &byte in chunk {
            if self.declared_depth.is_none() {
                if byte == 0 {
                    return Err(DecodeError::BadHeader);
                }
                self.declared_depth = Some(byte);
                self.offset = 1;
                continue;
            }
            if self.is_complete() {
                // Trailing garbage after the declared depth.
                return Err(DecodeError::Truncated);
            }
            if byte == 0 {
                return Err(DecodeError::EmptyNodeByte {
                    offset: self.offset,
                });
            }
            let cell = self.frontier[self.cursor];
            let octants = cell.octants();
            for (o, octant_cube) in octants.iter().enumerate() {
                if byte & (1 << o) != 0 {
                    self.next.push(*octant_cube);
                }
            }
            self.cursor += 1;
            self.offset += 1;
            if self.cursor == self.frontier.len() {
                self.frontier = std::mem::take(&mut self.next);
                self.cursor = 0;
                self.completed_levels += 1;
                completed += 1;
            }
        }
        Ok(completed)
    }

    /// The current coarse preview: one voxel-center point per cell of the
    /// deepest *completed* level.
    pub fn preview(&self) -> PointCloud {
        if self.cursor == 0 {
            // Frontier is exactly the last completed level.
            self.frontier
                .iter()
                .map(|c| Point::from_position(c.center()))
                .collect()
        } else {
            // Mid-level: the completed part of this level lives in `next`,
            // the rest still at the previous level's granularity.
            self.next
                .iter()
                .chain(&self.frontier[self.cursor..])
                .map(|c| Point::from_position(c.center()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lod::LodMode;
    use crate::tree::OctreeConfig;
    use arvis_pointcloud::math::Vec3;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn body_tree(depth: u8) -> Octree {
        let cloud = SynthBodyConfig::new(SubjectProfile::Loot)
            .with_target_points(5_000)
            .with_seed(11)
            .generate();
        Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap()
    }

    #[test]
    fn roundtrip_reconstructs_voxel_centers() {
        let tree = body_tree(5);
        let stream = encode_occupancy(&tree, 5);
        let decoded = decode_occupancy(stream, tree.cube()).unwrap();
        let expected = tree.extract_lod(5, LodMode::VoxelCenters);
        assert_eq!(decoded.len(), expected.cloud.len());
        // Same voxel centers as sets (order may differ).
        let mut a: Vec<(i64, i64, i64)> = decoded
            .positions()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64, (p.z * 1e6) as i64))
            .collect();
        let mut b: Vec<(i64, i64, i64)> = expected
            .cloud
            .positions()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64, (p.z * 1e6) as i64))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn encoded_size_matches_stream_length() {
        let tree = body_tree(6);
        for d in 1..=6u8 {
            let stream = encode_occupancy(&tree, d);
            assert_eq!(stream.len(), encoded_size(&tree, d), "depth {d}");
        }
    }

    #[test]
    fn deeper_encodings_are_larger() {
        let tree = body_tree(6);
        let mut prev = 0usize;
        for d in 1..=6u8 {
            let size = encoded_size(&tree, d);
            assert!(size > prev, "size must grow with depth");
            prev = size;
        }
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let tree = body_tree(4);
        let stream = encode_occupancy(&tree, 4);
        let cut = stream.slice(0..stream.len() - 1);
        assert_eq!(
            decode_occupancy(cut, tree.cube()).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn empty_stream_is_rejected() {
        assert_eq!(
            decode_occupancy(Bytes::new(), &Aabb::cube(Vec3::ZERO, 1.0)).unwrap_err(),
            DecodeError::BadHeader
        );
    }

    #[test]
    fn zero_depth_header_is_rejected() {
        let stream = Bytes::from_static(&[0u8]);
        assert_eq!(
            decode_occupancy(stream, &Aabb::cube(Vec3::ZERO, 1.0)).unwrap_err(),
            DecodeError::BadHeader
        );
    }

    #[test]
    fn zero_byte_is_rejected() {
        // depth 1, root byte 0 -> invalid.
        let stream = Bytes::from_static(&[1u8, 0u8]);
        assert!(matches!(
            decode_occupancy(stream, &Aabb::cube(Vec3::ZERO, 1.0)).unwrap_err(),
            DecodeError::EmptyNodeByte { offset: 1 }
        ));
    }

    #[test]
    #[should_panic(expected = "depth >= 1")]
    fn encode_depth_zero_panics() {
        let tree = body_tree(3);
        let _ = encode_occupancy(&tree, 0);
    }

    #[test]
    fn progressive_matches_batch_decode() {
        let tree = body_tree(5);
        let stream = encode_occupancy(&tree, 5);
        let mut dec = ProgressiveDecoder::new(tree.cube());
        // Feed in awkward 7-byte chunks.
        for chunk in stream.chunks(7) {
            dec.push(chunk).unwrap();
        }
        assert!(dec.is_complete());
        assert_eq!(dec.completed_levels(), 5);
        let progressive = dec.preview();
        let batch = decode_occupancy(stream, tree.cube()).unwrap();
        assert_eq!(progressive.len(), batch.len());
    }

    #[test]
    fn batch_accepts_exactly_what_progressive_completes() {
        let tree = body_tree(4);
        let stream = encode_occupancy(&tree, 4).to_vec();
        // Every truncation, the stream itself, and every one-byte extension.
        let mut candidates: Vec<Vec<u8>> =
            (0..=stream.len()).map(|k| stream[..k].to_vec()).collect();
        for extra in 0..=u8::MAX {
            let mut longer = stream.clone();
            longer.push(extra);
            candidates.push(longer);
        }
        for bytes in candidates {
            let mut dec = ProgressiveDecoder::new(tree.cube());
            let completes = dec.push(&bytes).is_ok() && dec.is_complete();
            match decode_occupancy(Bytes::from(bytes.clone()), tree.cube()) {
                Ok(cloud) => {
                    assert!(completes, "batch accepted {} bytes", bytes.len());
                    assert_eq!(cloud, dec.preview());
                }
                Err(e) => {
                    assert!(!completes, "batch rejected {} bytes", bytes.len());
                    let want = if bytes.is_empty() {
                        DecodeError::BadHeader
                    } else {
                        DecodeError::Truncated
                    };
                    assert_eq!(e, want, "{} bytes", bytes.len());
                }
            }
        }
    }

    #[test]
    fn progressive_previews_refine_monotonically() {
        let tree = body_tree(5);
        let stream = encode_occupancy(&tree, 5);
        let mut dec = ProgressiveDecoder::new(tree.cube());
        let mut sizes = vec![dec.preview().len()];
        for chunk in stream.chunks(16) {
            dec.push(chunk).unwrap();
            sizes.push(dec.preview().len());
        }
        // Preview size is non-decreasing as bytes arrive (each byte expands
        // one cell into >= 1 children).
        for w in sizes.windows(2) {
            assert!(w[1] >= w[0], "preview shrank: {sizes:?}");
        }
        // The level-complete counts match the tree occupancies.
        assert_eq!(*sizes.last().unwrap(), tree.occupied_at_depth(5));
    }

    #[test]
    fn progressive_mid_level_preview_counts() {
        let tree = body_tree(3);
        let stream = encode_occupancy(&tree, 3);
        let mut dec = ProgressiveDecoder::new(tree.cube());
        // Header + root byte: level 1 complete.
        dec.push(&stream[..2]).unwrap();
        assert_eq!(dec.completed_levels(), 1);
        assert_eq!(dec.preview().len(), tree.occupied_at_depth(1));
        assert!(!dec.is_complete());
        // Rest of the stream.
        dec.push(&stream[2..]).unwrap();
        assert!(dec.is_complete());
    }

    #[test]
    fn progressive_rejects_bad_streams() {
        let tree = body_tree(3);
        // Zero depth header.
        let mut dec = ProgressiveDecoder::new(tree.cube());
        assert_eq!(dec.push(&[0u8]).unwrap_err(), DecodeError::BadHeader);
        // Zero occupancy byte.
        let mut dec = ProgressiveDecoder::new(tree.cube());
        assert!(matches!(
            dec.push(&[3u8, 0u8]).unwrap_err(),
            DecodeError::EmptyNodeByte { offset: 1 }
        ));
        // Trailing bytes after completion.
        let stream = encode_occupancy(&tree, 3);
        let mut dec = ProgressiveDecoder::new(tree.cube());
        dec.push(&stream).unwrap();
        assert_eq!(dec.push(&[0xff]).unwrap_err(), DecodeError::Truncated);
    }
}
