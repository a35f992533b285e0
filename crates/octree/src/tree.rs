//! Octree construction, and the octree as its codec columns.
//!
//! Construction is a flat Morton pipeline (see [`OctreeBuilder`]): points
//! are Morton-coded into flat scratch buffers (a packed `code | index`
//! word per point — no `(u64, &Point)` pointer tuples), radix-sorted by
//! code, and the whole level hierarchy is then derived from prefix
//! boundaries of the sorted codes — one O(n) aggregation pass over the
//! points for the leaf level and one O(nodes) pass per internal level,
//! instead of re-scanning the point range of every node at every depth.
//!
//! An [`Octree`] keeps only what the codec and the LoD read: each node's
//! occupancy byte and its mean colour, 4 bytes per node. Nodes are numbered
//! breadth-first with every level in Morton order, which is the order of
//! the occupancy and attribute streams, so each column is the body of its
//! stream: encoding copies a slice, and the LoD walk reads one byte per
//! node above its depth. The point counts and colour sums the means are
//! rounded from stay in the builder as scratch for the next frame.

use arvis_par as par;
use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::math::Vec3;
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

/// Chunk size for the point- and node-parallel phases, and the node
/// threshold under which the split-recursive aggregation stops forking.
/// Fixed constants (never derived from the worker count), so every phase
/// splits its work the same way in serial and parallel builds.
const POINT_CHUNK: usize = 1 << 13;
const NODE_CHUNK: usize = 1 << 9;
const NODE_SPLIT_THRESHOLD: usize = 1 << 11;

/// One sorted-pipeline element: a Morton code bundled with the index of the
/// point it came from. Two representations exist so the common shallow
/// trees (`3·depth ≤ 30` bits, i.e. the paper's whole `R = 5..=10` range)
/// ride in one packed word — half the sort and scan traffic — while deep
/// trees fall back to a two-word pair.
trait CodeIdx: morton::SortItem + PartialEq {
    /// Bit offset of the code within [`morton::SortItem::key`].
    const CODE_SHIFT: u32;

    fn pack(code: u64, idx: u32) -> Self;
    fn code(self) -> u64;
    fn idx(self) -> u32;
}

/// Packed `code << 32 | index` (codes up to 30 bits).
impl CodeIdx for u64 {
    const CODE_SHIFT: u32 = 32;

    #[inline]
    fn pack(code: u64, idx: u32) -> u64 {
        (code << 32) | u64::from(idx)
    }

    #[inline]
    fn code(self) -> u64 {
        self >> 32
    }

    #[inline]
    fn idx(self) -> u32 {
        self as u32
    }
}

/// Wide `(code, index)` pair (codes up to 63 bits).
impl CodeIdx for (u64, u32) {
    const CODE_SHIFT: u32 = 0;

    #[inline]
    fn pack(code: u64, idx: u32) -> (u64, u32) {
        (code, idx)
    }

    #[inline]
    fn code(self) -> u64 {
        self.0
    }

    #[inline]
    fn idx(self) -> u32 {
        self.1
    }
}

/// A node's point count and colour channel sums: build scratch, of which
/// the tree keeps only the rounded mean.
#[derive(Debug, Clone, Copy, Default)]
struct NodeSums {
    count: u64,
    color: [u64; 3],
}

impl NodeSums {
    /// The mean colour, each channel rounded half up: `⌊(2s + n) / 2n⌋` for
    /// channel sum `s` over `n` points, in integers. This is exactly
    /// `(s as f64 / n as f64).round()`: the float quotient is within
    /// 2⁻⁴⁵ of `s/n`, and `s/n` is either a half-integer (which the quotient
    /// represents exactly) or at least `1/2n` from one, so both round to the
    /// same side whenever `n < 2⁴⁴` (a tree holds at most 2³² points).
    fn mean_color(&self) -> [u8; 3] {
        let n = self.count;
        self.color.map(|s| ((2 * s + n) / (2 * n)) as u8)
    }
}

/// Reusable octree construction pipeline.
///
/// Holds the flat scratch buffers (packed/wide code-index words, radix
/// ping-pong buffers, per-level boundary and octant lists, per-node sums)
/// so a streaming pipeline that builds one octree per frame pays the
/// allocations once, not per slot. [`Octree::build`] is a convenience
/// wrapper creating a fresh builder per call.
///
/// # Pipeline
///
/// 1. **Morton coding** (parallel): each point's voxel index at `max_depth`
///    is interleaved and packed with its input index.
/// 2. **Radix sort by code** (parallel histograms, stable scatter): after
///    this, every node of every level is a contiguous range of points, and
///    the nodes of level `d` are exactly the distinct `3d`-bit prefixes.
/// 3. **Boundary derivation**: leaf-range starts are the positions where
///    the sorted code changes; each shallower level's starts are the subset
///    where the shorter prefix changes — O(total nodes) overall. Each
///    node's octant bits are extracted here, so aggregation never revisits
///    the code array.
/// 4. **Aggregation** (parallel over nodes): each leaf counts its point
///    range and sums its colours, reading every input point exactly once
///    through its sorted code-index word; every internal node then adds up
///    its children's sums and sets their octants in its occupancy byte —
///    O(n + total nodes) work instead of the seed algorithm's O(n·depth)
///    re-scan. Last, every node's mean colour is rounded into the tree; the
///    sums stay behind in the builder.
#[derive(Debug, Default)]
pub struct OctreeBuilder {
    packed: Vec<u64>,
    packed_scratch: Vec<u64>,
    wide: Vec<(u64, u32)>,
    wide_scratch: Vec<(u64, u32)>,
    levels: Levels,
}

/// The builder's scratch that does not depend on the code representation.
#[derive(Debug, Default)]
struct Levels {
    /// `bounds[d]` = start index (into the sorted order) of every depth-`d`
    /// node, ascending. Entry 0 is always 0.
    bounds: Vec<Vec<u32>>,
    /// `octants[d][i]` = octant of node `i` within its parent.
    octants: Vec<Vec<u8>>,
    first_child: Vec<u32>,
    /// Per node, in node order.
    sums: Vec<NodeSums>,
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
                // Parallel containment check; the reported index is the
                // global minimum, matching the serial scan.
                let bad = par::map_chunks(points, POINT_CHUNK, |ci, chunk| {
                    chunk
                        .iter()
                        .position(|p| !c.contains(p.position))
                        .map(|j| ci * POINT_CHUNK + j)
                })
                .into_iter()
                .flatten()
                .next();
                if let Some(index) = bad {
                    return Err(OctreeError::PointOutsideCube { index });
                }
                c
            }
            None => cloud
                .aabb()
                .expect("non-empty cloud has an aabb")
                .bounding_cube(),
        };
        Ok(if 3 * u32::from(config.max_depth) <= 30 {
            build_pipeline(
                &mut self.packed,
                &mut self.packed_scratch,
                &mut self.levels,
                points,
                cube,
                config.max_depth,
            )
        } else {
            build_pipeline(
                &mut self.wide,
                &mut self.wide_scratch,
                &mut self.levels,
                points,
                cube,
                config.max_depth,
            )
        })
    }
}

/// Phases 1–4 of the build (see [`OctreeBuilder`]), generic over the
/// code-index representation.
fn build_pipeline<E: CodeIdx>(
    items: &mut Vec<E>,
    sort_scratch: &mut Vec<E>,
    levels: &mut Levels,
    points: &[Point],
    cube: Aabb,
    max_depth: u8,
) -> Octree {
    let n = points.len();
    let Levels {
        bounds,
        octants,
        first_child,
        sums,
    } = levels;

    // Phase 1: Morton-code every point at max depth (parallel), with the
    // quantizer of `VoxelGrid::key_of`, so octree voxel assignment is
    // bit-identical to the brute-force voxelizer over the same cube.
    let cells = 1u64 << max_depth; // cells per axis
    let min = cube.min();
    let scale = morton::grid_scale(cube.max_extent(), cells);
    let code_of = |p: Vec3| -> u64 {
        morton::encode(
            morton::grid_cell(p.x, min.x, scale, cells),
            morton::grid_cell(p.y, min.y, scale, cells),
            morton::grid_cell(p.z, min.z, scale, cells),
        )
    };
    items.clear();
    items.resize(n, E::default());
    par::for_each_chunk_mut(items, POINT_CHUNK, |ci, out| {
        let base = ci * POINT_CHUNK;
        for (j, slot) in out.iter_mut().enumerate() {
            let i = base + j;
            *slot = E::pack(code_of(points[i].position), i as u32);
        }
    });

    // Phase 2: stable radix sort by code.
    morton::radix_sort(items, sort_scratch, E::CODE_SHIFT, 3 * u32::from(max_depth));
    let items = &items[..];

    // Phase 3: node boundaries and octants per level, deepest first. A
    // depth-d node starts wherever the 3d-bit prefix of the sorted codes
    // changes, so level d's starts are a subset of level d+1's.
    let d_max = usize::from(max_depth);
    bounds.resize_with(d_max + 1, Vec::new);
    octants.resize_with(d_max + 1, Vec::new);
    for b in bounds.iter_mut() {
        b.clear();
    }
    for o in octants.iter_mut() {
        o.clear();
    }
    {
        let leaf_parts: Vec<(Vec<u32>, Vec<u8>)> =
            par::map_chunks(items, POINT_CHUNK, |ci, chunk| {
                let base = ci * POINT_CHUNK;
                let mut starts = Vec::new();
                let mut octs = Vec::new();
                for (j, item) in chunk.iter().enumerate() {
                    let i = base + j;
                    let code = item.code();
                    if i == 0 || items[i - 1].code() != code {
                        starts.push(i as u32);
                        octs.push((code & 7) as u8);
                    }
                }
                (starts, octs)
            });
        for (mut s, mut o) in leaf_parts {
            bounds[d_max].append(&mut s);
            octants[d_max].append(&mut o);
        }
    }
    for d in (0..d_max).rev() {
        let shift = 3 * (d_max - d) as u32;
        let (shallow, deep) = bounds.split_at_mut(d + 1);
        let (dst, src) = (&mut shallow[d], &deep[0]);
        let dst_octs = &mut octants[d];
        let mut prev_prefix = u64::MAX;
        for &start in src.iter() {
            let prefix = items[start as usize].code() >> shift;
            if prefix != prev_prefix {
                dst.push(start);
                dst_octs.push((prefix & 7) as u8);
                prev_prefix = prefix;
            }
        }
    }

    // Phase 4: number the nodes level by level, then aggregate bottom-up.
    let mut level_starts = Vec::with_capacity(d_max + 2);
    let mut total = 0usize;
    for b in bounds.iter() {
        // Nodes are numbered with u32, so the node total must fit u32 even
        // though the count accumulates in usize.
        level_starts.push(u32::try_from(total).expect("node count exceeds u32 limit"));
        total += b.len();
    }
    level_starts.push(u32::try_from(total).expect("node count exceeds u32 limit"));
    sums.clear();
    sums.resize(total, NodeSums::default());

    // Leaf level: one pass over the sorted order, reading each input point
    // exactly once through its code-index word (parallel over fixed node
    // chunks).
    {
        let leaf_bounds = &bounds[d_max];
        let leaf_base = level_starts[d_max] as usize;
        par::for_each_chunk_mut(&mut sums[leaf_base..], NODE_CHUNK, |ci, chunk| {
            let base = ci * NODE_CHUNK;
            for (k, node) in chunk.iter_mut().enumerate() {
                let ni = base + k;
                let lo = leaf_bounds[ni] as usize;
                let hi = leaf_bounds.get(ni + 1).map_or(n, |&b| b as usize);
                let mut color = [0u64; 3];
                for item in &items[lo..hi] {
                    let c = points[item.idx() as usize].color;
                    color[0] += u64::from(c.r);
                    color[1] += u64::from(c.g);
                    color[2] += u64::from(c.b);
                }
                *node = NodeSums {
                    count: (hi - lo) as u64,
                    color,
                };
            }
        });
    }

    // Internal levels: each parent adds up its children's sums, which come
    // from the level below, and sets their octants, recorded during
    // boundary derivation, in its occupancy byte.
    let mut occupancy = vec![0u8; level_starts[d_max] as usize];
    for d in (0..d_max).rev() {
        let parent_bounds = &bounds[d];
        let child_bounds = &bounds[d + 1];
        // first_child[i] = index (into child_bounds) of parent i's first
        // child. Parents' starts are a subset of children's, so one merged
        // scan suffices.
        first_child.clear();
        first_child.reserve(parent_bounds.len() + 1);
        let mut j = 0u32;
        for &pstart in parent_bounds {
            while child_bounds[j as usize] != pstart {
                j += 1;
            }
            first_child.push(j);
            j += 1;
        }
        first_child.push(child_bounds.len() as u32);

        let parent_base = level_starts[d] as usize;
        let child_base = level_starts[d + 1] as usize;
        // Split the sums at the child level: parents write theirs, the
        // children's are read-only.
        let (parent_sums, child_sums) = sums.split_at_mut(child_base);
        aggregate_level(
            &mut parent_sums[parent_base..],
            &mut occupancy[parent_base..child_base],
            0,
            &child_sums[..child_bounds.len()],
            &octants[d + 1],
            first_child,
            par::workers(),
        );
    }

    let sums = &sums[..];
    let mut colors = vec![0u8; 3 * total];
    par::for_each_chunk_mut(&mut colors, 3 * NODE_CHUNK, |ci, chunk| {
        for (rgb, node) in chunk.chunks_exact_mut(3).zip(&sums[ci * NODE_CHUNK..]) {
            rgb.copy_from_slice(&node.mean_color());
        }
    });

    Octree {
        cube,
        level_starts,
        occupancy,
        colors,
        point_count: n as u64,
    }
}

/// Aggregates one internal level: every parent adds up its children's
/// sums and sets their octants in its occupancy byte. Split-recursive so
/// the sum and occupancy columns advance in lockstep without interior
/// mutability; the midpoint decomposition is data-sized, so results are
/// identical for any worker count. `forks` bounds the live-thread fan-out
/// at ~`workers()` (halved per split) without affecting the decomposition.
fn aggregate_level(
    sums: &mut [NodeSums],
    occupancy: &mut [u8],
    node_base: usize,
    child_sums: &[NodeSums],
    child_octants: &[u8],
    first_child: &[u32],
    forks: usize,
) {
    let len = sums.len();
    if len > NODE_SPLIT_THRESHOLD && forks > 1 {
        let mid = len / 2;
        let (s_l, s_r) = sums.split_at_mut(mid);
        let (o_l, o_r) = occupancy.split_at_mut(mid);
        par::join(
            || {
                let forks = forks / 2;
                aggregate_level(
                    s_l,
                    o_l,
                    node_base,
                    child_sums,
                    child_octants,
                    first_child,
                    forks,
                )
            },
            || {
                let (base, forks) = (node_base + mid, forks - forks / 2);
                aggregate_level(
                    s_r,
                    o_r,
                    base,
                    child_sums,
                    child_octants,
                    first_child,
                    forks,
                )
            },
        );
        return;
    }
    for (k, (node, byte)) in sums.iter_mut().zip(occupancy).enumerate() {
        let pi = node_base + k;
        let mut agg = NodeSums::default();
        let mut bits = 0u8;
        for c in first_child[pi] as usize..first_child[pi + 1] as usize {
            let child = &child_sums[c];
            bits |= 1 << child_octants[c];
            agg.count += child.count;
            agg.color[0] += child.color[0];
            agg.color[1] += child.color[1];
            agg.color[2] += child.color[2];
        }
        *node = agg;
        *byte = bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lod::LodMode;
    use arvis_pointcloud::color::Color;

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
        // Deep enough that aggregation splits its levels across workers.
        let cfg = OctreeConfig::with_max_depth(12);
        for tree in [
            Octree::build(&cloud, &cfg).unwrap(),
            par::serial_scope(|| Octree::build(&cloud, &cfg).unwrap()),
        ] {
            let grids = crate::reference::occupancy_from_grids(&cloud, tree.cube(), 12);
            assert_eq!(tree.occupancy_above(12), grids);
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
