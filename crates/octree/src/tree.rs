//! Octree construction, and the octree as its codec columns.
//!
//! Construction is one scan of sorted Morton codes (see [`OctreeBuilder`]):
//! each point is coded into one flat word with its colour, the words are
//! radix-sorted by code, and every node of every level follows from the
//! octant digits adjacent codes share (Karras, "Maximizing Parallelism in
//! the Construction of BVHs, Octrees, and k-d Trees", HPG 2012). One pass
//! over the sorted words counts each level's nodes, and one more writes
//! every node's occupancy byte and mean colour, in O(n) for the points and
//! O(1) per node.
//!
//! An [`Octree`] keeps only what the codec and the LoD read: each node's
//! occupancy byte and its mean colour, 4 bytes per node. Nodes are numbered
//! breadth-first with every level in Morton order, which is the order of
//! the occupancy and attribute streams, so each column is the body of its
//! stream: encoding copies a slice, and the LoD walk reads one byte per
//! node above its depth. The point counts and colour sums the means are
//! rounded from exist only while their node is open in the scan.

use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::morton;
use arvis_pointcloud::point::Point;

/// Maximum supported octree depth. Ten matches the 1024³ grid of the 8i
/// scans; 21 is the Morton-code limit of the voxel substrate.
pub const MAX_SUPPORTED_DEPTH: u8 = 21;

/// Errors from octree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OctreeError {
    /// Cannot build an octree over an empty cloud.
    EmptyCloud,
    /// Requested depth exceeds [`MAX_SUPPORTED_DEPTH`].
    DepthTooLarge {
        /// The depth that was requested.
        requested: u8,
    },
    /// The supplied bounding cube does not contain every input point.
    PointOutsideCube {
        /// Index of the first offending point.
        index: usize,
    },
}

impl std::fmt::Display for OctreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OctreeError::EmptyCloud => write!(f, "cannot build an octree over an empty cloud"),
            OctreeError::DepthTooLarge { requested } => write!(
                f,
                "requested depth {requested} exceeds the supported maximum {MAX_SUPPORTED_DEPTH}"
            ),
            OctreeError::PointOutsideCube { index } => {
                write!(f, "point {index} lies outside the supplied bounding cube")
            }
        }
    }
}

impl std::error::Error for OctreeError {}

/// Construction parameters for [`Octree::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct OctreeConfig {
    /// Maximum subdivision depth; leaves live at exactly this depth.
    pub max_depth: u8,
    /// Bounding cube to build over. `None` (the default) uses the cloud's
    /// own bounding cube, matching Open3D's behaviour. Supplying a fixed cube
    /// keeps voxel boundaries stable across the frames of a sequence. Either
    /// way the tree subdivides the box's [`Aabb::bounding_cube`], which is
    /// the box itself when it already is a cube up to the rounding of its
    /// corners.
    pub cube: Option<Aabb>,
}

impl OctreeConfig {
    /// Config with the given maximum depth over the cloud's own cube.
    pub fn with_max_depth(max_depth: u8) -> Self {
        OctreeConfig {
            max_depth,
            cube: None,
        }
    }

    /// Sets a fixed bounding cube.
    #[must_use]
    pub fn in_cube(mut self, cube: Aabb) -> Self {
        self.cube = Some(cube);
        self
    }
}

impl Default for OctreeConfig {
    fn default() -> Self {
        OctreeConfig::with_max_depth(10)
    }
}

/// A sparse octree over a point cloud, kept as its codec columns.
///
/// Nodes are numbered breadth-first: levels are contiguous, and nodes
/// within a level are in Morton order. Per node the tree keeps its
/// occupancy byte (bit `o` set when octant `o` is occupied; leaves have
/// none) and the mean colour of its points, rounded once at build time, so
/// any depth can be encoded or rendered without revisiting the input
/// points.
#[derive(Debug, Clone, PartialEq)]
pub struct Octree {
    cube: Aabb,
    /// `level_starts[d] .. level_starts[d + 1]` are the depth-`d` nodes.
    /// Has `max_depth + 2` entries.
    level_starts: Vec<u32>,
    /// One occupancy byte per internal node, in node order: the body of the
    /// occupancy stream.
    occupancy: Vec<u8>,
    /// `r g b` per node, in node order: each level's bytes are the body of
    /// its attribute stream.
    colors: Vec<u8>,
    point_count: u64,
}

impl Octree {
    /// Builds an octree from a cloud.
    ///
    /// # Errors
    ///
    /// - [`OctreeError::EmptyCloud`] for an empty input;
    /// - [`OctreeError::DepthTooLarge`] when `config.max_depth` exceeds
    ///   [`MAX_SUPPORTED_DEPTH`];
    /// - [`OctreeError::PointOutsideCube`] when a fixed cube was supplied and
    ///   a point lies outside it.
    ///
    /// # Panics
    ///
    /// Panics when the cloud holds more than `u32::MAX` points (nodes and
    /// points are addressed with 32-bit indices).
    pub fn build(cloud: &PointCloud, config: &OctreeConfig) -> Result<Octree, OctreeError> {
        OctreeBuilder::new().build(cloud, config)
    }

    /// The bounding cube the tree subdivides: the tree's root cell.
    ///
    /// It is a fixed point of [`Aabb::bounding_cube`], so a decoder handed
    /// this cube subdivides it as is and reproduces the tree's voxel
    /// centers bit for bit.
    pub fn cube(&self) -> &Aabb {
        &self.cube
    }

    /// The maximum (leaf) depth.
    pub fn max_depth(&self) -> u8 {
        (self.level_starts.len() - 2) as u8
    }

    /// Number of input points.
    pub fn point_count(&self) -> u64 {
        self.point_count
    }

    /// Total number of nodes in the tree (all levels).
    pub fn node_count(&self) -> usize {
        self.colors.len() / 3
    }

    /// Number of occupied voxels (nodes) at `depth`.
    ///
    /// This is the arrival size `a(d)` of the paper: the number of points the
    /// renderer must draw when the frame is visualized at octree depth `d`.
    ///
    /// # Panics
    ///
    /// Panics when `depth > max_depth`.
    pub fn occupied_at_depth(&self, depth: u8) -> usize {
        assert!(
            depth <= self.max_depth(),
            "depth {depth} exceeds max depth {}",
            self.max_depth()
        );
        self.level_rows(depth).len()
    }

    /// The numbers of the depth-`depth` nodes. Node `i` owns occupancy
    /// byte `i` of the stream (after the header), and the nodes of the LoD
    /// depth own its attribute triples, in order.
    fn level_rows(&self, depth: u8) -> std::ops::Range<usize> {
        let d = usize::from(depth);
        self.level_starts[d] as usize..self.level_starts[d + 1] as usize
    }

    /// The occupancy bytes of every node above `depth`, in node order.
    pub(crate) fn occupancy_above(&self, depth: u8) -> &[u8] {
        &self.occupancy[..self.level_rows(depth).start]
    }

    /// The mean colours of the depth-`depth` nodes, `r g b` per node.
    pub(crate) fn colors_at(&self, depth: u8) -> &[u8] {
        let rows = self.level_rows(depth);
        &self.colors[3 * rows.start..3 * rows.end]
    }

    /// Edge length of a voxel at `depth`.
    pub fn voxel_size_at_depth(&self, depth: u8) -> f64 {
        self.cube.max_extent() / (1u64 << depth) as f64
    }
}

/// One sort word: a point's Morton code at the tree's max depth beside its
/// colour `r | g << 8 | b << 16`. Codes of up to 40 bits (depth ≤ 13, the
/// paper's whole `R = 5..=10` range included) share one packed word with
/// the colour, so the sort and the scans move 8 bytes per point; deeper
/// codes ride in a `(code, rgb)` pair. A word carries no point index: the
/// build reads nothing of a point but its position and colour, and a
/// node's colour sums do not depend on the order of its points.
trait CodeRgb: morton::SortItem {
    /// Bit offset of the code within [`morton::SortItem::key`].
    const CODE_SHIFT: u32;

    fn pack(code: u64, rgb: u32) -> Self;
    fn code(self) -> u64;
    fn rgb(self) -> u32;
}

/// Packed `code << 24 | rgb` (codes up to 40 bits).
impl CodeRgb for u64 {
    const CODE_SHIFT: u32 = 24;

    #[inline]
    fn pack(code: u64, rgb: u32) -> u64 {
        (code << 24) | u64::from(rgb)
    }

    #[inline]
    fn code(self) -> u64 {
        self >> 24
    }

    #[inline]
    fn rgb(self) -> u32 {
        self as u32 & 0xff_ffff
    }
}

/// Wide `(code, rgb)` pair (codes up to 63 bits).
impl CodeRgb for (u64, u32) {
    const CODE_SHIFT: u32 = 0;

    #[inline]
    fn pack(code: u64, rgb: u32) -> (u64, u32) {
        (code, rgb)
    }

    #[inline]
    fn code(self) -> u64 {
        self.0
    }

    #[inline]
    fn rgb(self) -> u32 {
        self.1
    }
}

/// A point count and colour channel sums. The build keeps them running
/// over the sorted words; a node's sums are the running sums where it
/// closes less those where it opened, and the tree keeps only its rounded
/// mean.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSums {
    count: u64,
    color: [u64; 3],
}

impl NodeSums {
    /// Adds one point of colour `r | g << 8 | b << 16`.
    #[inline]
    fn add(&mut self, rgb: u32) {
        self.count += 1;
        self.color[0] += u64::from(rgb & 0xff);
        self.color[1] += u64::from((rgb >> 8) & 0xff);
        self.color[2] += u64::from(rgb >> 16);
    }

    /// The sums added since the running sums were `then`.
    #[inline]
    fn since(self, then: NodeSums) -> NodeSums {
        NodeSums {
            count: self.count - then.count,
            color: std::array::from_fn(|c| self.color[c] - then.color[c]),
        }
    }

    /// The mean colour, each channel rounded half up: `⌊(2s + n) / 2n⌋` for
    /// channel sum `s` over `n` points, in integers; for one point that is
    /// its own colour. This is exactly `(s as f64 / n as f64).round()`: the float
    /// quotient is within 2⁻⁴⁵ of `s/n`, and `s/n` is either a half-integer
    /// (which the quotient represents exactly) or at least `1/2n` from one,
    /// so both round to the same side whenever `n < 2⁴⁴` (a tree holds at
    /// most 2³² points).
    fn mean_color(&self) -> [u8; 3] {
        let n = self.count;
        self.color.map(|s| ((2 * s + n) / (2 * n)) as u8)
    }
}

/// Levels a tree can have: depths `0..=MAX_SUPPORTED_DEPTH`.
const LEVELS: usize = MAX_SUPPORTED_DEPTH as usize + 1;

/// Reusable octree construction.
///
/// Holds the sort words and the radix sort's ping-pong buffer, so a
/// streaming pipeline that builds one octree per frame pays those
/// allocations once, not per frame. A pipeline that builds frames on
/// several workers keeps one builder per worker (`core::pipeline`'s
/// `PreparedSequence::prepare` lends them out from a list of spares), so
/// each worker pays them once. [`Octree::build`] is a convenience wrapper
/// creating a fresh builder per call.
///
/// # Pipeline
///
/// The build runs serially, in four passes; after the sort every node of
/// every level is a run of adjacent words, so one scan finds them all.
///
/// 1. **Morton coding**: each point's voxel index at `max_depth` is
///    interleaved into a code, packed with the point's colour.
/// 2. **Radix sort by code** (stable, with reused buffers).
/// 3. **Counting**: two adjacent sorted codes that share their first `k`
///    octant digits, `k` read off the leading zeros of their XOR, are in
///    one node down to depth `k` and in different nodes below it. A
///    histogram of `k` over the pairs gives every level's node count, and
///    from them the level starts.
/// 4. **Fill**: one scan keeps the current node of every level, numbered
///    in the order nodes open, which is Morton order within each level,
///    and keeps the point count and colour sums running over the words. A
///    point opens a node at every depth below the digits it shares with
///    the previous point and sets its octant bit in the parent's occupancy
///    byte. A new node below the digits the next point shares holds this
///    point alone and takes its colour at once; any other stays open until
///    a point shares fewer digits than its depth, and then rounds its mean
///    colour from the running sums less those where it opened.
///
/// That is O(n) work for the points and O(1) per node, with no per-node
/// scratch: only the current nodes' numbers and starting sums are kept.
#[derive(Debug, Default)]
pub struct OctreeBuilder {
    packed: Vec<u64>,
    packed_scratch: Vec<u64>,
    wide: Vec<(u64, u32)>,
    wide_scratch: Vec<(u64, u32)>,
}

impl OctreeBuilder {
    /// A builder with empty scratch buffers.
    pub fn new() -> OctreeBuilder {
        OctreeBuilder::default()
    }

    /// Builds an octree, reusing this builder's scratch allocations.
    ///
    /// # Errors
    ///
    /// Same contract as [`Octree::build`].
    ///
    /// # Panics
    ///
    /// Panics when the cloud holds more than `u32::MAX` points (nodes and
    /// points are addressed with 32-bit indices).
    pub fn build(
        &mut self,
        cloud: &PointCloud,
        config: &OctreeConfig,
    ) -> Result<Octree, OctreeError> {
        if cloud.is_empty() {
            return Err(OctreeError::EmptyCloud);
        }
        if config.max_depth > MAX_SUPPORTED_DEPTH {
            return Err(OctreeError::DepthTooLarge {
                requested: config.max_depth,
            });
        }
        let points = cloud.points();
        assert!(
            points.len() <= u32::MAX as usize,
            "octree build supports at most 2^32 points per frame"
        );
        let cube = match config.cube {
            Some(c) => {
                let c = c.bounding_cube();
                if let Some(index) = points.iter().position(|p| !c.contains(p.position)) {
                    return Err(OctreeError::PointOutsideCube { index });
                }
                c
            }
            None => cloud
                .aabb()
                .expect("non-empty cloud has an aabb")
                .bounding_cube(),
        };
        let depth = config.max_depth;
        Ok(if 3 * u32::from(depth) + 24 <= 64 {
            build_scan(
                &mut self.packed,
                &mut self.packed_scratch,
                points,
                cube,
                depth,
            )
        } else {
            build_scan(&mut self.wide, &mut self.wide_scratch, points, cube, depth)
        })
    }
}

/// Passes 1–4 of the build (see [`OctreeBuilder`]), generic over the sort
/// word.
fn build_scan<E: CodeRgb>(
    words: &mut Vec<E>,
    sort_scratch: &mut Vec<E>,
    points: &[Point],
    cube: Aabb,
    max_depth: u8,
) -> Octree {
    // Pass 1: Morton-code every point at max depth with the quantizer of
    // `VoxelGrid::key_of`, so octree voxel assignment is bit-identical to
    // the brute-force voxelizer over the same cube.
    let cells = 1u64 << max_depth; // cells per axis
    let min = cube.min();
    let scale = morton::grid_scale(cube.max_extent(), cells);
    words.clear();
    words.extend(points.iter().map(|p| {
        let (q, c) = (p.position, p.color);
        let code = morton::encode(
            morton::grid_cell(q.x, min.x, scale, cells),
            morton::grid_cell(q.y, min.y, scale, cells),
            morton::grid_cell(q.z, min.z, scale, cells),
        );
        E::pack(code, u32::from_le_bytes([c.r, c.g, c.b, 0]))
    }));

    // Pass 2: sort by code.
    morton::radix_sort(words, sort_scratch, E::CODE_SHIFT, 3 * u32::from(max_depth));
    let words = &words[..];

    // The octant digits two codes share: the leading zeros of their XOR,
    // less the 64 - 3·max_depth above every code, in whole digits (and
    // `max_depth` for equal codes, whose XOR has 64).
    let d_max = usize::from(max_depth);
    let shared = |a: E, b: E| ((a.code() ^ b.code()).leading_zeros() as usize + 3 * d_max - 64) / 3;

    // Pass 3: level `d` has one node more than the adjacent pairs that
    // share fewer than `d` digits.
    let mut pairs_sharing = [0usize; LEVELS];
    for pair in words.windows(2) {
        pairs_sharing[shared(pair[0], pair[1])] += 1;
    }
    let mut level_starts = Vec::with_capacity(d_max + 2);
    let (mut start, mut width) = (0usize, 1usize);
    for shared_digits in &pairs_sharing[..=d_max] {
        // Nodes are numbered with u32, so the node total must fit u32 even
        // though the count accumulates in usize.
        level_starts.push(u32::try_from(start).expect("node count exceeds u32 limit"));
        start += width;
        width += shared_digits;
    }
    level_starts.push(u32::try_from(start).expect("node count exceeds u32 limit"));

    // Pass 4: the fill, with the current node's number at every level.
    // Below the root it starts one before the level's first node, which the
    // first point opens.
    let mut occupancy = vec![0u8; level_starts[d_max] as usize];
    let mut colors = vec![[0u8; 3]; start];
    let mut node = [0usize; LEVELS];
    for (number, &first) in node.iter_mut().zip(&level_starts[..=d_max]).skip(1) {
        *number = first as usize - 1;
    }
    let mut opened_at = [NodeSums::default(); LEVELS];
    let mut running = NodeSums::default();
    let octant_bit = |code: u64, depth: usize| 1u8 << ((code >> (3 * (d_max - depth))) & 7);
    // The digits the previous point shares with the one before it, and this
    // point with the previous one; none past either end.
    let (mut before, mut k) = (0, 0);
    for (i, &word) in words.iter().enumerate() {
        let after = words.get(i + 1).map_or(0, |&next| shared(word, next));
        // Close the nodes that held the last two points but not this one.
        for depth in k + 1..=before {
            colors[node[depth]] = running.since(opened_at[depth]).mean_color();
        }
        // Open a node at every depth below k, marked in its parent's byte.
        // Down to the depth the next point shares, it stays open; below
        // that it holds this point alone and takes its colour now.
        let (code, rgb) = (word.code(), word.rgb());
        for depth in k + 1..=d_max {
            node[depth] += 1;
            occupancy[node[depth - 1]] |= octant_bit(code, depth);
            if depth <= after {
                opened_at[depth] = running;
            } else {
                let [r, g, b, _] = rgb.to_le_bytes();
                colors[node[depth]] = [r, g, b];
            }
        }
        running.add(rgb);
        (before, k) = (k, after);
    }
    // Nothing follows the last point: close what is open, the root included.
    for depth in 0..=before {
        colors[node[depth]] = running.since(opened_at[depth]).mean_color();
    }

    Octree {
        cube,
        level_starts,
        occupancy,
        colors: colors.into_flattened(),
        point_count: words.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lod::LodMode;
    use arvis_par as par;
    use arvis_pointcloud::color::Color;
    use arvis_pointcloud::math::Vec3;

    fn unit_cloud() -> PointCloud {
        // Points at the eight corners (inset) of the unit cube, plus center.
        let mut c = PointCloud::new();
        for i in 0..8u32 {
            let p = Vec3::new(
                if i & 1 == 0 { 0.01 } else { 0.99 },
                if i & 2 == 0 { 0.01 } else { 0.99 },
                if i & 4 == 0 { 0.01 } else { 0.99 },
            );
            c.push(Point::xyz_rgb(p.x, p.y, p.z, (i * 30) as u8, 0, 0));
        }
        c.push(Point::xyz_rgb(0.5, 0.5, 0.5, 255, 255, 255));
        c
    }

    /// The colours of the depth-`depth` LoD, in node order.
    fn lod_colors(tree: &Octree, depth: u8) -> Vec<Color> {
        let lod = tree.extract_lod(depth, LodMode::VoxelCenters);
        lod.cloud.iter().map(|p| p.color).collect()
    }

    #[test]
    fn build_rejects_empty_cloud() {
        assert_eq!(
            Octree::build(&PointCloud::new(), &OctreeConfig::default()).unwrap_err(),
            OctreeError::EmptyCloud
        );
    }

    #[test]
    fn build_rejects_excessive_depth() {
        assert!(matches!(
            Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(22)),
            Err(OctreeError::DepthTooLarge { requested: 22 })
        ));
    }

    #[test]
    fn build_rejects_points_outside_fixed_cube() {
        let cube = Aabb::new(Vec3::ZERO, Vec3::splat(0.5));
        let err = Octree::build(
            &unit_cloud(),
            &OctreeConfig::with_max_depth(3).in_cube(cube),
        )
        .unwrap_err();
        assert!(matches!(err, OctreeError::PointOutsideCube { .. }));
    }

    #[test]
    fn root_aggregates_everything() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(4)).unwrap();
        assert_eq!(tree.occupied_at_depth(0), 1);
        assert_eq!(tree.point_count(), 9);
        // Red sums to 30·(0 + … + 7) + 255 = 1095 over 9 points; green and
        // blue to 255.
        assert_eq!(lod_colors(&tree, 0), [Color::new(122, 28, 28)]);
    }

    #[test]
    fn corner_points_occupy_eight_level1_voxels() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(3)).unwrap();
        assert_eq!(tree.occupied_at_depth(1), 8);
    }

    #[test]
    fn occupancy_is_monotone_in_depth() {
        let cloud = arvis_pointcloud::synth::SynthBodyConfig::new(
            arvis_pointcloud::synth::SubjectProfile::Soldier,
        )
        .with_target_points(10_000)
        .generate();
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(8)).unwrap();
        for d in 0..8 {
            assert!(
                tree.occupied_at_depth(d) <= tree.occupied_at_depth(d + 1),
                "occupancy decreased from depth {d}"
            );
        }
        // ...and bounded by the point count.
        assert!(tree.occupied_at_depth(8) as u64 <= tree.point_count());
    }

    #[test]
    fn occupancy_byte_reflects_children() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(2)).unwrap();
        assert_eq!(tree.occupancy_above(1), [0xff], "all 8 octants occupied");
        assert_eq!(tree.occupied_at_depth(1), 8);
    }

    #[test]
    fn single_point_chain() {
        let mut c = PointCloud::new();
        c.push(Point::xyz_rgb(0.1, 0.1, 0.1, 5, 6, 7));
        // Octree over a degenerate (single-point) cube: still works, every
        // level has exactly one node.
        let tree = Octree::build(
            &c,
            &OctreeConfig::with_max_depth(5).in_cube(Aabb::cube(Vec3::splat(0.1), 1.0)),
        )
        .unwrap();
        for d in 0..=5 {
            assert_eq!(tree.occupied_at_depth(d), 1, "depth {d}");
            assert_eq!(lod_colors(&tree, d), [Color::new(5, 6, 7)], "depth {d}");
        }
        assert_eq!(tree.node_count(), 6);
    }

    #[test]
    fn depth_zero_tree() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(0)).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!(tree.occupancy_above(0).is_empty(), "the root is a leaf");
        assert_eq!(tree.occupied_at_depth(0), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds max depth")]
    fn occupied_beyond_max_depth_panics() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(2)).unwrap();
        let _ = tree.occupied_at_depth(3);
    }

    #[test]
    fn voxel_size_halves_per_level() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(4)).unwrap();
        let s0 = tree.voxel_size_at_depth(0);
        for d in 1..=4u8 {
            let expected = s0 / (1u64 << d) as f64;
            assert!((tree.voxel_size_at_depth(d) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_color_of_root() {
        let mut c = PointCloud::new();
        c.push(Point::xyz_rgb(0.1, 0.1, 0.1, 0, 0, 0));
        c.push(Point::xyz_rgb(0.9, 0.9, 0.9, 200, 100, 50));
        let tree = Octree::build(&c, &OctreeConfig::with_max_depth(1)).unwrap();
        assert_eq!(lod_colors(&tree, 0), [Color::new(100, 50, 25)]);
    }

    #[test]
    fn mean_color_rounds_like_the_float_quotient() {
        let float = |s: u64, n: u64| (s as f64 / n as f64).round() as u8;
        let check = |s: u64, n: u64| {
            let sums = NodeSums {
                count: n,
                color: [s, s / 2, s / 3],
            };
            let want = [float(s, n), float(s / 2, n), float(s / 3, n)];
            assert_eq!(sums.mean_color(), want, "sum {s} over {n} points");
        };
        // Every sum for small counts, and the sums around every
        // half-integer mean for large ones.
        for n in 1..=64u64 {
            for s in 0..=255 * n {
                check(s, n);
            }
        }
        for n in [1_000u64, 65_535, 1 << 20, u64::from(u32::MAX)] {
            for k in 0..=255u64 {
                for s in (k * n + n / 2).saturating_sub(2)..=k * n + n / 2 + 2 {
                    check(s.min(255 * n), n);
                }
            }
        }
    }

    #[test]
    fn fixed_cube_keeps_voxels_stable_across_frames() {
        // The same point must land in the same level-1 octant regardless of
        // other points, when a fixed cube is used.
        let cube = Aabb::new(Vec3::ZERO, Vec3::ONE);
        let mut f1 = PointCloud::new();
        f1.push(Point::from_position(Vec3::splat(0.9)));
        let mut f2 = PointCloud::new();
        f2.push(Point::from_position(Vec3::splat(0.9)));
        f2.push(Point::from_position(Vec3::splat(0.05)));
        let cfg = OctreeConfig::with_max_depth(1).in_cube(cube);
        let t1 = Octree::build(&f1, &cfg).unwrap();
        let t2 = Octree::build(&f2, &cfg).unwrap();
        let (byte1, byte2) = (t1.occupancy_above(1)[0], t2.occupancy_above(1)[0]);
        assert_eq!(byte1 & 0b1000_0000, byte2 & 0b1000_0000);
    }

    #[test]
    fn builder_reuse_matches_fresh_builds() {
        let mut builder = OctreeBuilder::new();
        let clouds = [unit_cloud(), {
            let mut c = unit_cloud();
            c.push(Point::xyz_rgb(0.25, 0.75, 0.5, 1, 2, 3));
            c
        }];
        for cloud in &clouds {
            for depth in [0u8, 1, 3, 6] {
                let cfg = OctreeConfig::with_max_depth(depth);
                let reused = builder.build(cloud, &cfg).unwrap();
                let fresh = Octree::build(cloud, &cfg).unwrap();
                assert_eq!(reused, fresh, "depth {depth}");
            }
        }
    }

    #[test]
    fn occupancy_column_matches_the_voxel_grids() {
        let cloud = arvis_pointcloud::synth::SynthBodyConfig::new(
            arvis_pointcloud::synth::SubjectProfile::Soldier,
        )
        .with_target_points(30_000)
        .with_seed(9)
        .generate();
        // Depth 12 packs each 36-bit code beside its colour in one word;
        // depth 14 sorts `(code, rgb)` pairs.
        for depth in [12, 14] {
            let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(depth)).unwrap();
            let grids = crate::reference::occupancy_from_grids(&cloud, tree.cube(), depth);
            assert_eq!(tree.occupancy_above(depth), grids, "depth {depth}");
        }
    }

    #[test]
    fn serial_and_parallel_builds_are_bit_identical() {
        let cloud = arvis_pointcloud::synth::SynthBodyConfig::new(
            arvis_pointcloud::synth::SubjectProfile::Longdress,
        )
        .with_target_points(30_000)
        .with_seed(5)
        .generate();
        let cfg = OctreeConfig::with_max_depth(9);
        let parallel = Octree::build(&cloud, &cfg).unwrap();
        let serial = par::serial_scope(|| Octree::build(&cloud, &cfg).unwrap());
        assert_eq!(parallel, serial);
    }
}
