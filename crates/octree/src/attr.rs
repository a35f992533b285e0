//! Attribute (color) coding: together with [`crate::occupancy`], a complete
//! byte-stream codec for an LoD frame — the "AR streams that are ready to be
//! visualized" of the paper's queue, measured in actual bytes.
//!
//! Layout: `[depth: u8][r g b]*` with one RGB triple per occupied depth-`d`
//! voxel, in the same breadth-first (Morton) order the occupancy stream
//! enumerates voxels, so `(occupancy, attributes)` reconstructs the exact
//! LoD cloud.

use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::color::Color;
use arvis_pointcloud::point::Point;
use bytes::Bytes;

use crate::occupancy::{decode_stream, CellWalk, DecodeError};
use crate::tree::Octree;

/// Serializes the mean colors of all depth-`depth` voxels, breadth-first.
///
/// The tree keeps its mean colours in this byte order, so the stream is a
/// copy of the level's colour bytes after the header.
///
/// # Panics
///
/// Panics when `depth` exceeds the tree's max depth.
pub fn encode_attributes(tree: &Octree, depth: u8) -> Bytes {
    assert!(depth <= tree.max_depth(), "depth exceeds max depth");
    let rgb = tree.colors_at(depth);
    let mut out = Vec::with_capacity(1 + rgb.len());
    out.push(depth);
    out.extend_from_slice(rgb);
    Bytes::from(out)
}

/// Decodes an attribute stream into colors.
///
/// # Errors
///
/// [`DecodeError::BadHeader`] for an empty stream,
/// [`DecodeError::Truncated`] when the byte count is not a multiple of 3.
pub fn decode_attributes(stream: Bytes) -> Result<(u8, Vec<Color>), DecodeError> {
    let (depth, rgb) = split_attributes(&stream)?;
    Ok((depth, rgb.chunks_exact(3).map(rgb_color).collect()))
}

/// An attribute stream's depth and its RGB bytes, with the checks of
/// [`decode_attributes`].
fn split_attributes(stream: &[u8]) -> Result<(u8, &[u8]), DecodeError> {
    let (&depth, rgb) = stream.split_first().ok_or(DecodeError::BadHeader)?;
    if !rgb.len().is_multiple_of(3) {
        return Err(DecodeError::Truncated);
    }
    Ok((depth, rgb))
}

pub(crate) fn rgb_color(c: &[u8]) -> Color {
    Color::new(c[0], c[1], c[2])
}

/// A complete encoded LoD frame: geometry (occupancy) plus attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// Breadth-first occupancy stream (see [`crate::occupancy`]).
    pub occupancy: Bytes,
    /// Per-voxel colors in the matching order.
    pub attributes: Bytes,
    /// LoD depth.
    pub depth: u8,
}

impl EncodedFrame {
    /// Encodes the depth-`depth` LoD of a tree.
    ///
    /// # Panics
    ///
    /// Panics when `depth` is 0 or exceeds the tree's max depth.
    pub fn encode(tree: &Octree, depth: u8) -> EncodedFrame {
        EncodedFrame {
            occupancy: crate::occupancy::encode_occupancy(tree, depth),
            attributes: encode_attributes(tree, depth),
            depth,
        }
    }

    /// Total size in bytes — a physically meaningful work unit for the
    /// scheduler's queue (instead of points).
    pub fn byte_size(&self) -> usize {
        self.occupancy.len() + self.attributes.len()
    }

    /// Reconstructs the LoD cloud (voxel centers + colors) over `cube`, in
    /// stream order: the order of [`Octree::extract_lod`].
    ///
    /// Centers come from subdividing `cube.bounding_cube()`. A tree's own
    /// [`Octree::cube`] is that cube itself, so for every tree `t` and
    /// depth `d`, `EncodedFrame::encode(t, d).decode(t.cube())` equals
    /// `t.extract_lod(d, LodMode::VoxelCenters).cloud` bit for bit and in
    /// order, and [`frames_equivalent`] answers on its linear path.
    ///
    /// # Errors
    ///
    /// Propagates occupancy/attribute decode failures, occupancy first (see
    /// [`crate::occupancy::decode_occupancy`]); [`DecodeError::Truncated`]
    /// when the two streams disagree on the voxel count or depth.
    pub fn decode(&self, cube: &arvis_pointcloud::Aabb) -> Result<PointCloud, DecodeError> {
        Ok(self.points(cube, &mut CellWalk::default())?.collect())
    }

    /// The points of [`EncodedFrame::decode`], yielded one at a time from
    /// a walk with `walk`'s buffers once both streams have been checked.
    fn points<'a>(
        &'a self,
        cube: &arvis_pointcloud::Aabb,
        walk: &'a mut CellWalk,
    ) -> Result<impl ExactSizeIterator<Item = Point> + 'a, DecodeError> {
        // Attribute errors are reported after the occupancy stream's own.
        let centres = decode_stream(&self.occupancy, cube, walk)?;
        let (depth, rgb) = split_attributes(&self.attributes)?;
        if depth != self.depth || centres.len() != rgb.len() / 3 {
            return Err(DecodeError::Truncated);
        }
        Ok(centres
            .zip(rgb.chunks_exact(3))
            .map(|(centre, rgb)| Point::new(centre, rgb_color(rgb))))
    }
}

/// The pipeline's lossless check, with the buffers of two occupancy walks
/// kept from one check to the next: one walks the frame's stream, the other
/// the tree's column. It holds no cloud. The decoded points and the LoD's
/// are compared pair by pair as the two walks' cells map to them, and only
/// a frame whose points differ from the LoD's in order has the rest of both
/// clouds collected and compared sorted. The walks' cell buffers grow on
/// the first checks and then only when a frame outgrows the ones before
/// it, so the slots of a long run reuse one pair of walks.
#[derive(Debug, Default)]
pub struct FrameCheck {
    decoded: CellWalk,
    lod: CellWalk,
}

impl FrameCheck {
    /// Whether `frame` decodes over `tree.cube()` to the depth-`depth` LoD
    /// of `tree`: the answer of
    /// `frames_equivalent(&frame.decode(tree.cube())?, &tree.extract_lod(depth, LodMode::VoxelCenters).cloud)`,
    /// without building either cloud. The frame is decoded and checked
    /// before the LoD is walked, so its errors come first.
    ///
    /// # Errors
    ///
    /// The error of [`EncodedFrame::decode`], when `frame` does not decode.
    ///
    /// # Panics
    ///
    /// Panics when `depth` exceeds the tree's max depth.
    pub fn lossless(
        &mut self,
        frame: &EncodedFrame,
        tree: &Octree,
        depth: u8,
    ) -> Result<bool, DecodeError> {
        let decoded = frame.points(tree.cube(), &mut self.decoded)?;
        let lod = tree.lod_points(depth, &mut self.lod);
        Ok(equivalent(decoded, lod))
    }
}

impl Octree {
    /// Convenience: encoded byte size of the depth-`depth` LoD frame —
    /// `a(d)` in bytes rather than points.
    ///
    /// # Panics
    ///
    /// Panics when `depth` is 0 or exceeds the max depth.
    pub fn encoded_frame_size(&self, depth: u8) -> usize {
        crate::occupancy::encoded_size(self, depth) + 1 + 3 * self.occupied_at_depth(depth)
    }
}

/// The pipeline's lossless check: `true` when `a` and `b` hold the same
/// multiset of (position, color) pairs once every coordinate is quantized to
/// `round(x·1e6)`.
///
/// `core::pipeline` runs it on every verified slot, through
/// [`FrameCheck`], comparing [`EncodedFrame::decode`] with
/// [`Octree::extract_lod`]. Those two share an order, so the check first
/// compares the clouds element by element, in O(n); only when a pair
/// differs does it sort that pair and the rest of both quantized clouds
/// and compare them, in O(n log n). The answer does not depend on which
/// path gives it.
pub fn frames_equivalent(a: &PointCloud, b: &PointCloud) -> bool {
    equivalent(a.iter().copied(), b.iter().copied())
}

/// [`frames_equivalent`] over two point sequences as they are yielded.
///
/// The pairs before the first that differs quantize equally, so the two
/// multisets are equal exactly when the rest of each sequence, from that
/// pair on, quantize to equal multisets: only the rest is collected and
/// sorted.
fn equivalent(
    a: impl ExactSizeIterator<Item = Point>,
    b: impl ExactSizeIterator<Item = Point>,
) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut pairs = a.zip(b);
    let Some(first) = pairs.find(|(p, q)| !same_point(p, q)) else {
        return true;
    };
    let (a, b): (Vec<Point>, Vec<Point>) = std::iter::once(first).chain(pairs).unzip();
    same_when_sorted(&a, &b)
}

/// A point's position quantized to 1e-6, with its color.
type Quantized = (i64, i64, i64, Color);

fn quantize(p: &Point) -> Quantized {
    (
        (p.position.x * 1e6).round() as i64,
        (p.position.y * 1e6).round() as i64,
        (p.position.z * 1e6).round() as i64,
        p.color,
    )
}

/// Whether two points quantize equally (bitwise-equal points do).
fn same_point(p: &Point, q: &Point) -> bool {
    p == q || quantize(p) == quantize(q)
}

/// The linear path of [`frames_equivalent`]: equal clouds of equal length,
/// point by point.
#[cfg(test)]
pub(crate) fn same_in_order(a: &[Point], b: &[Point]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| same_point(p, q))
}

/// The sorting path of [`frames_equivalent`].
pub(crate) fn same_when_sorted(a: &[Point], b: &[Point]) -> bool {
    let sorted = |c: &[Point]| -> Vec<Quantized> {
        let mut v: Vec<Quantized> = c.iter().map(quantize).collect();
        v.sort_unstable();
        v
    };
    sorted(a) == sorted(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lod::LodMode;
    use crate::tree::OctreeConfig;
    use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};

    fn tree(depth: u8) -> Octree {
        let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
            .with_target_points(6_000)
            .with_seed(13)
            .generate();
        Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap()
    }

    #[test]
    fn attributes_roundtrip() {
        let t = tree(5);
        let stream = encode_attributes(&t, 4);
        let (depth, colors) = decode_attributes(stream).unwrap();
        assert_eq!(depth, 4);
        assert_eq!(colors.len(), t.occupied_at_depth(4));
    }

    #[test]
    fn full_frame_roundtrip_reconstructs_lod() {
        let t = tree(5);
        for d in [2u8, 4, 5] {
            let frame = EncodedFrame::encode(&t, d);
            let decoded = frame.decode(t.cube()).unwrap();
            let lod = t.extract_lod(d, LodMode::VoxelCenters);
            assert!(
                frames_equivalent(&decoded, &lod.cloud),
                "decoded frame differs from LoD at depth {d}"
            );
        }
    }

    #[test]
    fn byte_size_matches_streams_and_helper() {
        let t = tree(6);
        for d in [1u8, 3, 6] {
            let frame = EncodedFrame::encode(&t, d);
            assert_eq!(
                frame.byte_size(),
                frame.occupancy.len() + frame.attributes.len()
            );
            assert_eq!(frame.byte_size(), t.encoded_frame_size(d));
        }
    }

    #[test]
    fn frame_sizes_grow_with_depth() {
        let t = tree(6);
        let mut last = 0usize;
        for d in 1..=6u8 {
            let size = t.encoded_frame_size(d);
            assert!(size > last, "frame size must grow with depth");
            last = size;
        }
    }

    #[test]
    fn mismatched_streams_rejected() {
        let t = tree(4);
        let mut frame = EncodedFrame::encode(&t, 4);
        // Attributes from a different depth.
        frame.attributes = encode_attributes(&t, 3);
        assert!(frame.decode(t.cube()).is_err());
    }

    #[test]
    fn truncated_attribute_stream_rejected() {
        let t = tree(4);
        let stream = encode_attributes(&t, 3);
        let cut = stream.slice(0..stream.len() - 1);
        assert!(matches!(
            decode_attributes(cut),
            Err(DecodeError::Truncated)
        ));
        assert!(matches!(
            decode_attributes(Bytes::new()),
            Err(DecodeError::BadHeader)
        ));
    }
}
