//! Breadth-first occupancy-byte serialization.
//!
//! An octree's *structure* (which voxels are occupied at each level) can be
//! encoded as one byte per internal node, in breadth-first order — the format
//! used by point-cloud geometry codecs (e.g. MPEG G-PCC) and a natural unit
//! for "AR stream bytes ready to be visualized" in the paper's queue model.

use std::ops::Range;

use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::color::Color;
use arvis_pointcloud::math::Vec3;
use arvis_pointcloud::point::Point;
use bytes::Bytes;

use crate::tree::{Octree, MAX_SUPPORTED_DEPTH};

/// Errors from decoding an occupancy stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The stream ended before all announced levels were decoded, or
    /// carries bytes after them; for a whole frame, also an attribute
    /// stream whose depth or voxel count disagrees with the occupancy.
    Truncated,
    /// A node byte was zero, which would encode an occupied node with no
    /// occupied children — invalid in a tree built from points.
    EmptyNodeByte {
        /// Byte offset of the offending byte.
        offset: usize,
    },
    /// The header is malformed: the stream is empty, or an occupancy stream
    /// declares a depth of 0 or above [`MAX_SUPPORTED_DEPTH`], which no
    /// octree reaches.
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
/// That order is the tree's own node order (breadth-first, each level in
/// Morton order), so the stream is a copy of the tree's occupancy column
/// over the nodes above `depth`.
///
/// # Panics
///
/// Panics when `depth` is 0 or exceeds the tree's max depth.
pub fn encode_occupancy(tree: &Octree, depth: u8) -> Bytes {
    assert!(depth >= 1, "occupancy encoding needs depth >= 1");
    assert!(depth <= tree.max_depth(), "depth exceeds max depth");
    let bytes = tree.occupancy_above(depth);
    let mut out = Vec::with_capacity(1 + bytes.len());
    out.push(depth);
    out.extend_from_slice(bytes);
    Bytes::from(out)
}

/// Decodes an occupancy stream into the voxel-center cloud of its deepest
/// level, over the given bounding cube.
///
/// The colors of the result are black (occupancy streams carry geometry
/// only). The walk subdivides `cube.bounding_cube()`, which for a tree's
/// own [`Octree::cube`] is that cube itself, so the stream of
/// `encode_occupancy(tree, d)` decodes over `tree.cube()` to the positions
/// of `tree.extract_lod(d, LodMode::VoxelCenters)`, bit for bit and in
/// order.
///
/// # Errors
///
/// [`DecodeError::BadHeader`] for an empty stream or a declared depth of 0
/// or above [`MAX_SUPPORTED_DEPTH`], [`DecodeError::EmptyNodeByte`] at the
/// first zero node byte, and [`DecodeError::Truncated`] when the stream
/// ends before the declared depth or carries bytes after it.
pub fn decode_occupancy(stream: Bytes, cube: &Aabb) -> Result<PointCloud, DecodeError> {
    Ok(decode_stream(&stream, cube, &mut CellWalk::default())?
        .map(|centre| Point::new(centre, Color::BLACK))
        .collect())
}

/// Decodes a whole occupancy stream over `cube`: the voxel centres of the
/// declared depth, in stream order, yielded one at a time. The errors are
/// those of [`decode_occupancy`].
///
/// The stream is walked by [`CellWalk::walk`], the walk
/// [`Octree::extract_lod`] runs over the tree's own column, and the centres
/// come from [`CellWalk::centres`], so they and the [`VoxelCentres`] tables
/// are sized by the voxel count the walk has read and checked, never by a
/// length the stream declares.
pub(crate) fn decode_stream<'w>(
    stream: &[u8],
    cube: &Aabb,
    walk: &'w mut CellWalk,
) -> Result<impl ExactSizeIterator<Item = Vec3> + 'w, DecodeError> {
    let (&depth, nodes) = stream.split_first().ok_or(DecodeError::BadHeader)?;
    if depth == 0 || depth > MAX_SUPPORTED_DEPTH {
        return Err(DecodeError::BadHeader);
    }
    let read = walk.walk(depth, |range| level_bytes(nodes, range))?;
    if read != nodes.len() {
        // Bytes after the declared depth.
        return Err(DecodeError::Truncated);
    }
    Ok(walk.centres(&cube.bounding_cube(), depth))
}

/// The node bytes `range` of a stream, or the error of the first one
/// missing or zero: the stream is read in order, so a zero byte before the
/// end wins.
fn level_bytes(nodes: &[u8], range: Range<usize>) -> Result<&[u8], DecodeError> {
    let bytes = &nodes[range.start.min(nodes.len())..range.end.min(nodes.len())];
    // `contains` scans with `memchr`; the byte-by-byte `position` runs
    // only on a stream that has a zero byte.
    if bytes.contains(&0) {
        if let Some(k) = bytes.iter().position(|&b| b == 0) {
            return Err(DecodeError::EmptyNodeByte {
                offset: 1 + range.start + k,
            });
        }
    }
    if bytes.len() < range.len() {
        return Err(DecodeError::Truncated);
    }
    Ok(bytes)
}

/// Bits per axis in a packed cell: one per level, down to
/// [`MAX_SUPPORTED_DEPTH`].
const LANE: u32 = 21;

/// The axis indices of a packed cell, `x | y << 21 | z << 42` (see
/// [`CellWalk`]).
#[inline]
fn lanes(cell: u64) -> [usize; 3] {
    let mask = (1 << LANE) - 1;
    [cell & mask, (cell >> LANE) & mask, cell >> (2 * LANE)].map(|i| i as usize)
}

/// Per occupancy byte, its number of occupied octants: one load, where
/// `count_ones` is a multiply-and-shift sequence on targets without a
/// `popcnt` instruction, such as baseline x86-64.
static COUNTS: [u8; 256] = {
    let mut counts = [0; 256];
    let mut byte = 0;
    while byte < 256 {
        counts[byte] = (byte as u8).count_ones() as u8;
        byte += 1;
    }
    counts
};

/// Per occupancy byte, its occupied octants in ascending order, each
/// spread onto the lanes of a packed cell (octant bit 0 is the x bit, 1 the
/// y bit, 2 the z bit, as [`Aabb::octants`] numbers them). Entries past the
/// byte's popcount are padding that the walk overwrites.
static CHILDREN: [[u64; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let (mut octant, mut k) = (0, 0);
        while octant < 8 {
            if byte >> octant & 1 == 1 {
                let o = octant as u64;
                table[byte][k] = (o & 1) | (o >> 1 & 1) << LANE | (o >> 2 & 1) << (2 * LANE);
                k += 1;
            }
            octant += 1;
        }
        byte += 1;
    }
    table
};

/// The breadth-first occupancy walk shared by the decoder and
/// [`Octree::extract_lod`], with its two cell buffers, which a caller that
/// walks many streams keeps from one walk to the next.
///
/// A cell is carried packed, its axis indices at that level as
/// `x | y << 21 | z << 42`, so a child is its parent shifted up one bit in
/// every lane, with the octant's bits in the low bit of each; at most
/// [`MAX_SUPPORTED_DEPTH`] levels keep every lane within its 21 bits.
#[derive(Debug, Default)]
pub(crate) struct CellWalk {
    cells: Vec<u64>,
    next: Vec<u64>,
    /// The tables of the last [`CellWalk::centres`], held here for the
    /// centres it yields to borrow: a walk over tables moved into the
    /// iterator ran 2–3% slower.
    tables: VoxelCentres,
}

impl CellWalk {
    /// Expands the root through `levels` levels, where `level_bytes(range)`
    /// is the occupancy bytes `range` in stream order (the bytes of nodes
    /// `range` of a tree), one level at a time.
    ///
    /// Returns the number of bytes read, with the depth-`levels` cells in
    /// stream order (the order of the attribute stream and of a tree's
    /// nodes) in [`CellWalk::cells`], or the first error `level_bytes`
    /// returns. Each level is sized by the popcounts of the bytes already
    /// read and checked, never by a length the input declares.
    pub(crate) fn walk<'a, E>(
        &mut self,
        levels: u8,
        mut level_bytes: impl FnMut(Range<usize>) -> Result<&'a [u8], E>,
    ) -> Result<usize, E> {
        debug_assert!(levels <= MAX_SUPPORTED_DEPTH, "a lane holds 21 levels");
        let mut read = 0usize;
        self.cells.clear();
        self.cells.push(0);
        for _ in 0..levels {
            let bytes = level_bytes(read..read + self.cells.len())?;
            read += self.cells.len();
            expand(&self.cells, bytes, &mut self.next);
            std::mem::swap(&mut self.cells, &mut self.next);
        }
        Ok(read)
    }

    /// The centres, in `cube`'s subdivision at `depth`, of the cells the
    /// last successful [`CellWalk::walk`] reached, in their order. The
    /// [`VoxelCentres`] tables are sized by the cell count.
    pub(crate) fn centres(
        &mut self,
        cube: &Aabb,
        depth: u8,
    ) -> impl ExactSizeIterator<Item = Vec3> + '_ {
        self.tables = VoxelCentres::new(cube, depth, self.cells.len());
        let tables = &self.tables;
        self.cells.iter().map(move |&cell| tables.at(cell))
    }
}

/// Writes into `next` the occupied children of `cells`, whose occupancy
/// bytes are `bytes`: each cell's children in octant order, cell after
/// cell.
///
/// No branch depends on a byte's bits. Every cell writes all eight entries
/// of its byte's [`CHILDREN`] row and the write position then advances by
/// the byte's popcount, so the next cell overwrites the padding; the level
/// is sized from the bytes' popcounts plus eight entries of slack.
fn expand(cells: &[u64], bytes: &[u8], next: &mut Vec<u64>) {
    let count = |byte: u8| usize::from(COUNTS[usize::from(byte)]);
    let children = bytes.iter().map(|&byte| count(byte)).sum::<usize>();
    next.clear();
    next.resize(children + 8, 0);
    let mut at = 0;
    for (&cell, &byte) in cells.iter().zip(bytes) {
        let parent = cell << 1;
        let row = &CHILDREN[usize::from(byte)];
        let out = &mut next[at..at + 8];
        for (slot, &octant) in out.iter_mut().zip(row) {
            *slot = parent | octant;
        }
        at += count(byte);
    }
    next.truncate(children);
}

/// The centres of one level's voxels in a cube's subdivision, by packed
/// cell (see [`CellWalk`]), bit for bit as [`Aabb::octants`] subdivides:
/// a cell splits at `(min + max) * 0.5` on each axis, and its centre is
/// that midpoint.
///
/// Each axis splits independently, so along one axis the boundaries of the
/// level-`h` cells form a table of `2^h + 1` values, each new one the
/// midpoint of its two neighbours one level up; every cell's extent is read
/// from it exactly. The table stops at `h = min(depth, ⌊log2(4·cells)⌋)`
/// for a level of `cells` voxels, at most four entries per voxel, so it
/// grows with the output and never with `2^depth`. A centre bisects its
/// table interval along the bits of its axis index below `h`, then once
/// more for the midpoint: the same arithmetic, in the same order, so
/// `cells` sets the cost and never a centre.
#[derive(Debug, Default)]
pub(crate) struct VoxelCentres {
    /// Per axis, the level-`h` cell boundaries.
    bounds: [Vec<f64>; 3],
    /// `depth - h`: the levels each centre bisects below the tables.
    below: u32,
}

impl VoxelCentres {
    /// The tables for a level of `cells` voxels at `depth` in `cube`.
    pub(crate) fn new(cube: &Aabb, depth: u8, cells: usize) -> VoxelCentres {
        let h = u32::from(depth).min(cells.saturating_mul(4).max(1).ilog2());
        let (min, max) = (cube.min(), cube.max());
        VoxelCentres {
            bounds: std::array::from_fn(|a| boundaries(min[a], max[a], h)),
            below: u32::from(depth) - h,
        }
    }

    /// The centre of the packed cell `cell`.
    pub(crate) fn at(&self, cell: u64) -> Vec3 {
        let [x, y, z] = lanes(cell);
        Vec3::new(self.bisect(0, x), self.bisect(1, y), self.bisect(2, z))
    }

    fn bisect(&self, axis: usize, cell: usize) -> f64 {
        let b = &self.bounds[axis];
        let i = cell >> self.below;
        let (mut lo, mut hi) = (b[i], b[i + 1]);
        for bit in (0..self.below).rev() {
            let mid = (lo + hi) * 0.5;
            if (cell >> bit) & 1 == 1 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) * 0.5
    }
}

/// The `2^levels + 1` cell boundaries of `levels` halvings of `[min, max]`.
fn boundaries(min: f64, max: f64, levels: u32) -> Vec<f64> {
    let n = 1usize << levels;
    let mut b = vec![min; n + 1];
    b[n] = max;
    let mut step = n;
    while step > 1 {
        let half = step / 2;
        for lo in (0..n).step_by(step) {
            b[lo + half] = (b[lo] + b[lo + step]) * 0.5;
        }
        step = half;
    }
    b
}

/// The encoded size in bytes of the tree structure down to `depth`
/// (header included), without materializing the stream.
pub fn encoded_size(tree: &Octree, depth: u8) -> usize {
    assert!(depth >= 1 && depth <= tree.max_depth());
    1 + tree.occupancy_above(depth).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lod::LodMode;
    use crate::reference::decode_occupancy_frontier;
    use crate::tree::OctreeConfig;
    use arvis_pointcloud::morton;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    /// The packed cell of the voxel with Morton code `code`.
    fn packed(code: u64) -> u64 {
        let (x, y, z) = morton::decode(code);
        x | y << LANE | z << (2 * LANE)
    }

    /// The bit patterns of every position of a cloud, in order.
    fn position_bits(c: &PointCloud) -> Vec<[u64; 3]> {
        c.positions()
            .map(|p| p.to_array().map(f64::to_bits))
            .collect()
    }

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
    fn batch_accepts_only_the_stream_itself() {
        let tree = body_tree(4);
        let stream = encode_occupancy(&tree, 4).to_vec();
        // Every truncation, the stream itself, every one-byte extension, and
        // the stream under every header byte.
        let mut candidates: Vec<Vec<u8>> =
            (0..=stream.len()).map(|k| stream[..k].to_vec()).collect();
        for extra in 0..=u8::MAX {
            let mut longer = stream.clone();
            longer.push(extra);
            candidates.push(longer);
            let mut relabelled = stream.clone();
            relabelled[0] = extra;
            candidates.push(relabelled);
        }
        for bytes in candidates {
            let what = format!("{} bytes, header {:?}", bytes.len(), bytes.first());
            match decode_occupancy(Bytes::from(bytes.clone()), tree.cube()) {
                Ok(cloud) => {
                    assert_eq!(bytes, stream, "batch accepted {what}");
                    let frontier = decode_occupancy_frontier(Bytes::from(bytes), tree.cube());
                    assert_eq!(cloud, frontier.unwrap());
                }
                Err(e) => {
                    assert_ne!(bytes, stream, "batch rejected the stream");
                    let want = match bytes.first() {
                        None | Some(0) => DecodeError::BadHeader,
                        Some(&d) if d > MAX_SUPPORTED_DEPTH => DecodeError::BadHeader,
                        Some(_) => DecodeError::Truncated,
                    };
                    assert_eq!(e, want, "{what}");
                }
            }
        }
    }

    #[test]
    fn voxel_centres_are_the_octant_descent_bitwise() {
        // SplitMix64: a seeded stream of boxes, depths, counts and codes.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
        for case in 0..400 {
            // Boxes across the origin, beside it and far from it; cubic or
            // stretched.
            let offset = [0.0, 1.0, 1e3][case % 3];
            let mut corner = || {
                let [x, y, z] = [next(), next(), next()].map(unit);
                Vec3::new(x - 0.5 + offset, y - 0.5, z * 3.0 - 1.0 - offset)
            };
            let cube = Aabb::new(corner(), corner());
            let depth = (next() % 22) as u8;
            // From one voxel to a few thousand: the tables stop at every
            // level from 0 to `depth`.
            let cells = 1usize << (next() % 12);
            let centres = VoxelCentres::new(&cube, depth, cells);
            for _ in 0..20 {
                let code = next().checked_shr(64 - 3 * u32::from(depth)).unwrap_or(0);
                let mut cell = cube;
                for level in (0..depth).rev() {
                    cell = cell.octants()[((code >> (3 * level)) & 7) as usize];
                }
                assert_eq!(
                    centres.at(packed(code)).to_array().map(f64::to_bits),
                    cell.center().to_array().map(f64::to_bits),
                    "{cube:?} at depth {depth}, code {code:o}"
                );
            }
        }
    }

    #[test]
    fn one_point_decodes_at_the_deepest_supported_depth() {
        let mut cloud = PointCloud::new();
        cloud.push(Point::xyz_rgb(0.3, -1.7, 2.9, 1, 2, 3));
        let cube = Aabb::new(Vec3::new(-4.1, -3.3, 0.7), Vec3::new(5.0, 1.2, 3.3));
        let depth = MAX_SUPPORTED_DEPTH;
        let tree =
            Octree::build(&cloud, &OctreeConfig::with_max_depth(depth).in_cube(cube)).unwrap();
        let stream = encode_occupancy(&tree, depth);
        assert_eq!(stream.len(), 1 + usize::from(depth), "one byte per level");
        let bits = |c: &PointCloud| -> Vec<[u64; 3]> {
            c.positions()
                .map(|p| p.to_array().map(f64::to_bits))
                .collect()
        };
        let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
        assert!(lod.points()[0].position.distance(Vec3::new(0.3, -1.7, 2.9)) < 1e-5);
        let batch = decode_occupancy(stream.clone(), tree.cube()).unwrap();
        assert_eq!(bits(&batch), bits(&lod));
        let frontier = decode_occupancy_frontier(stream.clone(), tree.cube()).unwrap();
        assert_eq!(bits(&frontier), bits(&lod));

        // One level deeper than any octree, where a cell's code would no
        // longer fit in 63 bits.
        let mut deeper = stream.to_vec();
        deeper[0] = depth + 1;
        deeper.push(1);
        assert_eq!(
            decode_occupancy(Bytes::from(deeper), tree.cube()).unwrap_err(),
            DecodeError::BadHeader
        );
    }

    #[test]
    fn deep_streams_size_their_tables_by_the_checked_voxels() {
        let cube = Aabb::cube(Vec3::new(3.0, -1.0, 0.5), 2.0);
        let depth = MAX_SUPPORTED_DEPTH;
        // Walks a stream as the decoder does, returning its error or the
        // voxel count it sizes the cloud and the tables by.
        let leaves_of = |stream: &[u8]| {
            let mut walk = CellWalk::default();
            walk.walk(stream[0], |range| level_bytes(&stream[1..], range))
                .map(|_| walk.centres(&cube, stream[0]).len())
        };

        // A zero first node byte followed by 512 KiB: the error comes
        // before anything is sized.
        let mut zero_root = vec![depth, 0];
        zero_root.resize(2 + (512 << 10), 0xff);
        assert_eq!(
            leaves_of(&zero_root),
            Err(DecodeError::EmptyNodeByte { offset: 1 })
        );
        assert_eq!(
            decode_occupancy(Bytes::from(zero_root), &cube).unwrap_err(),
            DecodeError::EmptyNodeByte { offset: 1 }
        );

        // A one-voxel chain with 2^19 colours: the tables are sized by the
        // one voxel the walk checked, so they stop at level 2 (not at 21,
        // as 2^19 voxels would have them) and each centre bisects the 19
        // levels below.
        let mut chain = vec![depth];
        chain.resize(1 + usize::from(depth), 1);
        assert_eq!(leaves_of(&chain), Ok(1));
        // A zero byte in the last level is found before sizing too.
        let mut last_zero = chain.clone();
        last_zero[usize::from(depth)] = 0;
        assert_eq!(
            leaves_of(&last_zero),
            Err(DecodeError::EmptyNodeByte {
                offset: usize::from(depth)
            })
        );
        let centres = VoxelCentres::new(&cube.bounding_cube(), depth, 1);
        assert_eq!(centres.bounds.map(|b| b.len()), [5; 3]);
        assert_eq!(centres.below, u32::from(depth) - 2);
        let mut attributes = vec![depth];
        attributes.resize(1 + (3 << 19), 9);
        let frame = crate::attr::EncodedFrame {
            occupancy: Bytes::from(chain),
            attributes: Bytes::from(attributes),
            depth,
        };
        assert_eq!(frame.decode(&cube).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn every_occupancy_byte_decodes_to_its_octants_in_order() {
        // A box that is not a cube: the decoder subdivides its bounding
        // cube.
        let bbox = Aabb::new(Vec3::new(-1.3, 0.2, 7.0), Vec3::new(0.9, 0.45, 8.1));
        let cube = bbox.bounding_cube();
        let centre_bits = |cell: &Aabb| cell.center().to_array().map(f64::to_bits);
        for byte in 1..=u8::MAX {
            let octants: Vec<usize> = (0..8).filter(|o| byte >> o & 1 == 1).collect();
            assert_eq!(octants.len(), byte.count_ones() as usize);

            // Depth 1: the root's byte.
            let one = decode_occupancy(Bytes::from(vec![1, byte]), &bbox).unwrap();
            let want: Vec<[u64; 3]> = octants
                .iter()
                .map(|&o| centre_bits(&cube.octants()[o]))
                .collect();
            assert_eq!(position_bits(&one), want, "byte {byte:#010b} at depth 1");

            // Depth 2: a root that marks all eight octants, each carrying
            // the byte.
            let mut stream = vec![2, u8::MAX];
            stream.extend([byte; 8]);
            let two = decode_occupancy(Bytes::from(stream), &bbox).unwrap();
            let want: Vec<[u64; 3]> = cube
                .octants()
                .iter()
                .flat_map(|parent| {
                    let children = parent.octants();
                    octants.iter().map(move |&o| centre_bits(&children[o]))
                })
                .collect();
            assert_eq!(position_bits(&two), want, "byte {byte:#010b} at depth 2");
        }
    }

    #[test]
    fn lanes_at_their_top_bit_decode_like_the_lod_and_the_frontier() {
        let cube = Aabb::new(Vec3::new(-2.7, 0.4, 11.0), Vec3::new(3.1, 4.9, 12.5)).bounding_cube();
        let (lo, hi) = (cube.min(), cube.max());
        // The min and max corners, and on each axis' max face the corner
        // whose other axes are at their min: every lane reaches index
        // 2^depth - 1 beside lanes at 0.
        let corners = [
            lo,
            hi,
            Vec3::new(hi.x, lo.y, lo.z),
            Vec3::new(lo.x, hi.y, lo.z),
            Vec3::new(lo.x, lo.y, hi.z),
        ];
        let cloud: PointCloud = corners
            .iter()
            .enumerate()
            .map(|(i, &p)| Point::new(p, Color::new(50 * i as u8, 3, 250)))
            .collect();
        for depth in [20, MAX_SUPPORTED_DEPTH] {
            let config = OctreeConfig::with_max_depth(depth).in_cube(cube);
            let tree = Octree::build(&cloud, &config).unwrap();
            assert_eq!(tree.cube(), &cube);
            let stream = encode_occupancy(&tree, depth);
            let decoded = decode_occupancy(stream.clone(), tree.cube()).unwrap();
            let frame = crate::attr::EncodedFrame::encode(&tree, depth);
            let lod = tree.extract_lod(depth, LodMode::VoxelCenters).cloud;
            let frontier = decode_occupancy_frontier(stream, tree.cube()).unwrap();
            assert_eq!(
                position_bits(&decoded),
                position_bits(&lod),
                "depth {depth}"
            );
            assert_eq!(
                position_bits(&frontier),
                position_bits(&lod),
                "depth {depth}"
            );
            let framed = frame.decode(tree.cube()).unwrap();
            assert_eq!(position_bits(&framed), position_bits(&lod), "depth {depth}");
            assert!(framed
                .iter()
                .zip(lod.iter())
                .all(|(a, b)| a.color == b.color));

            // Each corner's voxel is its octant descent, in Morton order.
            let top = (1u64 << depth) - 1;
            let mut want: Vec<(u64, [u64; 3])> = corners
                .iter()
                .map(|&p| {
                    let (mut cell, mut index) = (cube, [0u64; 3]);
                    for _ in 0..depth {
                        let o = cell.octant_index(p);
                        index = std::array::from_fn(|a| index[a] << 1 | (o >> a & 1) as u64);
                        cell = cell.octants()[o];
                    }
                    let max_face = std::array::from_fn(|a| if p[a] == hi[a] { top } else { 0 });
                    assert_eq!(index, max_face, "depth {depth}, {p:?}");
                    let code = morton::encode(index[0], index[1], index[2]);
                    (code, cell.center().to_array().map(f64::to_bits))
                })
                .collect();
            want.sort_unstable();
            let want: Vec<[u64; 3]> = want.into_iter().map(|(_, centre)| centre).collect();
            assert_eq!(position_bits(&lod), want, "depth {depth}");
        }
    }
}
