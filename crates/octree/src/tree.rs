//! Core octree structure and construction.
//!
//! Construction is a flat Morton pipeline (see [`OctreeBuilder`]): points
//! are Morton-coded into flat scratch buffers (a packed `code | index`
//! word per point — no `(u64, &Point)` pointer tuples), radix-sorted by
//! code, and the whole level hierarchy is then derived from prefix
//! boundaries of the sorted codes — one O(n) aggregation pass over the
//! points for the leaf level and one O(nodes) pass per internal level,
//! instead of re-scanning the point range of every node at every depth.
//!
//! Node storage splits hot from cold ([`NodeArena`]): the mostly-empty
//! child-link table is a structure-of-arrays `Vec<u32>` the allocator hands
//! out as untouched zero pages (sentinel 0 = unoccupied), the numeric
//! payload (count, position sum, color sums) is one 56-byte row per node —
//! a single cache line — written exactly once during the bottom-up
//! aggregation, and a one-byte-per-node column holds each node's occupancy
//! byte. [`NodeView`] presents the classic node interface over all three,
//! so queries and traversal are unaffected by the layout. LoD extraction,
//! diffing and occupancy/attribute coding read the columns directly: the
//! arena is breadth-first with every level in Morton order, which is the
//! order of the streams.

use arvis_par as par;
use arvis_pointcloud::aabb::Aabb;
use arvis_pointcloud::cloud::PointCloud;
use arvis_pointcloud::color::Color;
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

/// Identifier of a node within its [`Octree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The root node's id.
    pub const ROOT: NodeId = NodeId(0);

    /// The arena index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The per-node numeric aggregates: one 56-byte row (a single cache line)
/// written exactly once during the bottom-up aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct NodePayload {
    count: u64,
    pos_sum: Vec3,
    color_sum: [u64; 3],
}

/// Hybrid node storage.
///
/// The child-link table is kept apart from the numeric payload: links are
/// mostly empty (stored as `arena_index + 1`, `0` = octant unoccupied), so
/// their vector comes straight from the allocator's zero pages and only the
/// occupied octants are ever written; the payload rows pack each node's
/// aggregates into one cache line for the bottom-up sweeps.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct NodeArena {
    /// `children[8*i + octant]` = child arena index **plus one**; 0 = none.
    children: Vec<u32>,
    /// `occupancy[i]` = node `i`'s occupancy byte (bit `o` set when octant
    /// `o` has a child; 0 for leaves), filled by the link phase from the
    /// octants it links. In arena order it is the occupancy stream itself:
    /// the walks and the encoder read one byte per node here instead of
    /// eight links.
    occupancy: Vec<u8>,
    payload: Vec<NodePayload>,
}

impl NodeArena {
    fn with_len(total: usize) -> NodeArena {
        NodeArena {
            children: vec![0; total * 8],
            occupancy: vec![0; total],
            payload: vec![NodePayload::default(); total],
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.payload.len()
    }

    pub(crate) fn child(&self, node: usize, octant: usize) -> Option<u32> {
        let c = self.children[node * 8 + octant];
        (c != 0).then(|| c - 1)
    }

    /// The occupancy column: one byte per node, in arena order.
    pub(crate) fn occupancy(&self) -> &[u8] {
        &self.occupancy
    }

    pub(crate) fn count(&self, node: usize) -> u64 {
        self.payload[node].count
    }

    pub(crate) fn color_sum(&self, node: usize) -> [u64; 3] {
        self.payload[node].color_sum
    }

    pub(crate) fn mean_position(&self, node: usize) -> Vec3 {
        self.payload[node].pos_sum / self.count(node) as f64
    }

    /// The mean color, each channel rounded half up: `⌊(2s + n) / 2n⌋` for
    /// channel sum `s` over `n` points, in integers. This is exactly
    /// `(s as f64 / n as f64).round()`: the float quotient is within
    /// 2⁻⁴⁵ of `s/n`, and `s/n` is either a half-integer (which the quotient
    /// represents exactly) or at least `1/2n` from one, so both round to the
    /// same side whenever `n < 2⁴⁴` (a tree holds at most 2³² points).
    pub(crate) fn mean_color(&self, node: usize) -> Color {
        let n = self.count(node);
        let c = self.color_sum(node);
        let mean = |s: u64| ((2 * s + n) / (2 * n)) as u8;
        Color::new(mean(c[0]), mean(c[1]), mean(c[2]))
    }
}

/// A sparse octree over a point cloud.
///
/// Every internal node aggregates the number of contained points, their
/// position sum and color sums, so any depth can be rendered without
/// revisiting the input points. Nodes live in a hybrid arena
/// (`NodeArena`, private) in breadth-first order: levels are contiguous,
/// nodes within a level are in Morton order.
#[derive(Debug, Clone, PartialEq)]
pub struct Octree {
    pub(crate) arena: NodeArena,
    /// First arena index of each level: `level_starts[d] .. level_starts[d+1]`
    /// are the depth-`d` nodes. Has `max_depth + 2` entries.
    pub(crate) level_starts: Vec<u32>,
    cube: Aabb,
    max_depth: u8,
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
    /// Panics when the cloud holds more than `u32::MAX` points (the arena
    /// addresses points and nodes with 32-bit indices).
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
        self.max_depth
    }

    /// Number of input points.
    pub fn point_count(&self) -> u64 {
        self.point_count
    }

    /// Total number of nodes in the tree (all levels).
    pub fn node_count(&self) -> usize {
        self.arena.len()
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
            depth <= self.max_depth,
            "depth {depth} exceeds max depth {}",
            self.max_depth
        );
        let d = depth as usize;
        (self.level_starts[d + 1] - self.level_starts[d]) as usize
    }

    /// A view of one node.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeView<'_> {
        assert!(id.index() < self.arena.len(), "node id out of range");
        NodeView {
            tree: self,
            id,
            depth: self.depth_of(id),
        }
    }

    pub(crate) fn depth_of(&self, id: NodeId) -> u8 {
        let idx = id.0;
        // level_starts is sorted; find the level containing idx.
        match self.level_starts.binary_search(&idx) {
            Ok(level) => {
                // idx is the first node of `level`... but trailing empty
                // levels share the same start; pick the first matching level.
                let mut l = level;
                while l > 0 && self.level_starts[l - 1] == idx {
                    l -= 1;
                }
                l as u8
            }
            Err(insertion) => (insertion - 1) as u8,
        }
    }

    /// Ids of all nodes at `depth`, in Morton (breadth-first) order.
    pub fn nodes_at_depth(&self, depth: u8) -> impl Iterator<Item = NodeId> + '_ {
        assert!(depth <= self.max_depth, "depth out of range");
        self.level_rows(depth).map(|row| NodeId(row as u32))
    }

    /// Arena rows of the depth-`depth` nodes. The arena is breadth-first
    /// with every level in Morton order, which is the order of the occupancy
    /// and attribute streams: row `i` is occupancy byte `i` (after the
    /// header), and the rows of the LoD depth are its attribute triples.
    pub(crate) fn level_rows(&self, depth: u8) -> std::ops::Range<usize> {
        let d = usize::from(depth);
        self.level_starts[d] as usize..self.level_starts[d + 1] as usize
    }

    /// Edge length of a voxel at `depth`.
    pub fn voxel_size_at_depth(&self, depth: u8) -> f64 {
        self.cube.max_extent() / (1u64 << depth) as f64
    }
}

/// Chunk size for the point- and node-parallel phases, and the node
/// threshold under which the split-recursive linking phase stops forking.
/// Fixed constants (never derived from the worker count) so every phase
/// observes an identical work decomposition — and therefore produces
/// bit-identical floating-point sums — in serial and parallel builds.
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

/// Reusable octree construction pipeline.
///
/// Holds the flat scratch buffers (packed/wide code-index words, radix
/// ping-pong buffers, per-level boundary and octant lists) so a streaming
/// pipeline that builds one octree per frame pays the allocations once, not
/// per slot. [`Octree::build`] is a convenience wrapper creating a fresh
/// builder per call.
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
///    node's octant bits are extracted here, so linking never revisits the
///    code array.
/// 4. **Aggregation** (parallel over nodes): each leaf sums its point
///    range, reading every input point exactly once through its sorted
///    code-index word; every internal node then sums its children's rows —
///    prefix-sum reuse that replaces the seed algorithm's O(n·depth)
///    re-scan with O(n + total nodes) work, writing each arena row exactly
///    once.
#[derive(Debug, Default)]
pub struct OctreeBuilder {
    packed: Vec<u64>,
    packed_scratch: Vec<u64>,
    wide: Vec<(u64, u32)>,
    wide_scratch: Vec<(u64, u32)>,
    /// `level_bounds[d]` = start index (into the sorted order) of every
    /// depth-`d` node, ascending. Entry 0 is always 0.
    level_bounds: Vec<Vec<u32>>,
    /// `level_octants[d][i]` = octant of node `i` within its parent.
    level_octants: Vec<Vec<u8>>,
    first_child: Vec<u32>,
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
    /// Panics when the cloud holds more than `u32::MAX` points (the arena
    /// addresses points and nodes with 32-bit indices).
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
        let max_depth = config.max_depth;

        // Shared quantizer with `VoxelGrid::key_of`, so octree voxel
        // assignment is bit-identical to the brute-force voxelizer over the
        // same cube.
        let cells = 1u64 << max_depth; // cells per axis
        let min = cube.min();
        let scale = morton::grid_scale(cube.max_extent(), cells);
        let code_of = move |p: Vec3| -> u64 {
            morton::encode(
                morton::grid_cell(p.x, min.x, scale, cells),
                morton::grid_cell(p.y, min.y, scale, cells),
                morton::grid_cell(p.z, min.z, scale, cells),
            )
        };

        let (arena, level_starts) = if 3 * u32::from(max_depth) <= 30 {
            build_pipeline::<u64, _>(
                &mut self.packed,
                &mut self.packed_scratch,
                &mut self.level_bounds,
                &mut self.level_octants,
                &mut self.first_child,
                points,
                code_of,
                max_depth,
            )
        } else {
            build_pipeline::<(u64, u32), _>(
                &mut self.wide,
                &mut self.wide_scratch,
                &mut self.level_bounds,
                &mut self.level_octants,
                &mut self.first_child,
                points,
                code_of,
                max_depth,
            )
        };

        Ok(Octree {
            arena,
            level_starts,
            cube,
            max_depth,
            point_count: points.len() as u64,
        })
    }
}

/// Phases 1–4 of the build (see [`OctreeBuilder`]), generic over the
/// code-index representation.
#[allow(clippy::too_many_arguments)]
fn build_pipeline<E: CodeIdx, F: Fn(Vec3) -> u64 + Sync>(
    items: &mut Vec<E>,
    sort_scratch: &mut Vec<E>,
    level_bounds: &mut Vec<Vec<u32>>,
    level_octants: &mut Vec<Vec<u8>>,
    first_child: &mut Vec<u32>,
    points: &[Point],
    code_of: F,
    max_depth: u8,
) -> (NodeArena, Vec<u32>) {
    let n = points.len();

    // Phase 1: Morton-code every point at max depth (parallel).
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
    level_bounds.resize_with(d_max + 1, Vec::new);
    level_octants.resize_with(d_max + 1, Vec::new);
    for b in level_bounds.iter_mut() {
        b.clear();
    }
    for o in level_octants.iter_mut() {
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
        let leaf = &mut level_bounds[d_max];
        let leaf_octs = &mut level_octants[d_max];
        for (mut s, mut o) in leaf_parts {
            leaf.append(&mut s);
            leaf_octs.append(&mut o);
        }
    }
    for d in (0..d_max).rev() {
        let shift = 3 * (d_max - d) as u32;
        let (shallow, deep) = level_bounds.split_at_mut(d + 1);
        let (dst, src) = (&mut shallow[d], &deep[0]);
        let dst_octs = &mut level_octants[d];
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

    // Phase 4: allocate the arena (children come from zero pages; payload
    // rows are written exactly once below) and aggregate bottom-up.
    let mut level_starts = Vec::with_capacity(d_max + 2);
    let mut total = 0usize;
    for b in level_bounds.iter() {
        // The arena addresses nodes with u32 links (stored +1), so the
        // node total must fit u32 even though the count accumulates in
        // usize.
        level_starts.push(u32::try_from(total).expect("node count exceeds u32 arena limit"));
        total += b.len();
    }
    level_starts.push(u32::try_from(total).expect("node count exceeds u32 arena limit"));
    let mut arena = NodeArena::with_len(total);

    // Leaf level: one pass over the sorted order, reading each input point
    // exactly once through its code-index word (parallel over fixed node
    // chunks; each node's range is summed serially, so sums do not depend
    // on the decomposition).
    {
        let bounds = &level_bounds[d_max];
        let leaf_base = level_starts[d_max] as usize;
        par::for_each_chunk_mut(&mut arena.payload[leaf_base..], NODE_CHUNK, |ci, chunk| {
            let base = ci * NODE_CHUNK;
            for (k, row) in chunk.iter_mut().enumerate() {
                let ni = base + k;
                let lo = bounds[ni] as usize;
                let hi = bounds.get(ni + 1).map_or(n, |&b| b as usize);
                let mut agg = NodePayload {
                    count: (hi - lo) as u64,
                    ..NodePayload::default()
                };
                for item in &items[lo..hi] {
                    let p = &points[item.idx() as usize];
                    agg.pos_sum += p.position;
                    agg.color_sum[0] += u64::from(p.color.r);
                    agg.color_sum[1] += u64::from(p.color.g);
                    agg.color_sum[2] += u64::from(p.color.b);
                }
                *row = agg;
            }
        });
    }

    // Internal levels: sums are reused from the level below (each parent
    // adds its children's rows), and child links come from the octants
    // recorded during boundary derivation.
    for d in (0..d_max).rev() {
        let parent_bounds = &level_bounds[d];
        let child_bounds = &level_bounds[d + 1];
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
        let child_count = child_bounds.len();
        // Split the arena at the child level boundary: parents mutate
        // their rows, links and occupancy bytes; children's rows are
        // read-only.
        let (parent_payload, child_payload) = arena.payload.split_at_mut(child_base);
        link_level_split(
            &mut parent_payload[parent_base..],
            &mut arena.children[parent_base * 8..child_base * 8],
            &mut arena.occupancy[parent_base..child_base],
            0,
            &child_payload[..child_count],
            &level_octants[d + 1],
            first_child,
            child_base as u32,
            par::workers(),
        );
    }

    (arena, level_starts)
}

/// Aggregates one internal level: every parent sums its children's payload
/// rows and records their links and its occupancy byte. Split-recursive so
/// the payload, link and occupancy columns advance in lockstep without
/// interior mutability; the midpoint decomposition is data-sized, so
/// results are identical for any worker count. `forks` bounds the
/// live-thread fan-out at ~`workers()` (halved per split) without affecting
/// the decomposition.
#[allow(clippy::too_many_arguments)]
fn link_level_split(
    payload: &mut [NodePayload],
    links: &mut [u32],
    occupancy: &mut [u8],
    node_base: usize,
    child_payload: &[NodePayload],
    child_octants: &[u8],
    first_child: &[u32],
    child_arena_base: u32,
    forks: usize,
) {
    let len = payload.len();
    if len > NODE_SPLIT_THRESHOLD && forks > 1 {
        let mid = len / 2;
        let (p_l, p_r) = payload.split_at_mut(mid);
        let (l_l, l_r) = links.split_at_mut(mid * 8);
        let (o_l, o_r) = occupancy.split_at_mut(mid);
        par::join(
            || {
                link_level_split(
                    p_l,
                    l_l,
                    o_l,
                    node_base,
                    child_payload,
                    child_octants,
                    first_child,
                    child_arena_base,
                    forks / 2,
                )
            },
            || {
                link_level_split(
                    p_r,
                    l_r,
                    o_r,
                    node_base + mid,
                    child_payload,
                    child_octants,
                    first_child,
                    child_arena_base,
                    forks - forks / 2,
                )
            },
        );
        return;
    }
    for k in 0..len {
        let pi = node_base + k;
        let mut agg = NodePayload::default();
        let mut byte = 0u8;
        for c in first_child[pi]..first_child[pi + 1] {
            let ci = c as usize;
            let child = &child_payload[ci];
            let octant = child_octants[ci];
            // Stored as arena index + 1 (0 = unoccupied).
            links[k * 8 + usize::from(octant)] = child_arena_base + c + 1;
            byte |= 1 << octant;
            agg.count += child.count;
            agg.pos_sum += child.pos_sum;
            agg.color_sum[0] += child.color_sum[0];
            agg.color_sum[1] += child.color_sum[1];
            agg.color_sum[2] += child.color_sum[2];
        }
        payload[k] = agg;
        occupancy[k] = byte;
    }
}

/// A borrowed view of one octree node with its derived geometry.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    tree: &'a Octree,
    id: NodeId,
    depth: u8,
}

impl<'a> NodeView<'a> {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Depth of the node (root = 0).
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of input points inside this node's voxel.
    pub fn count(&self) -> u64 {
        self.tree.arena.count(self.id.index())
    }

    /// Mean position of the contained points.
    pub fn mean_position(&self) -> Vec3 {
        self.tree.arena.mean_position(self.id.index())
    }

    /// Mean color of the contained points.
    pub fn mean_color(&self) -> Color {
        self.tree.arena.mean_color(self.id.index())
    }

    /// The child in `octant` (0..8, bit layout of
    /// [`arvis_pointcloud::Aabb::octants`]), if occupied.
    pub fn child(&self, octant: usize) -> Option<NodeView<'a>> {
        assert!(octant < 8, "octant must be in 0..8");
        self.tree
            .arena
            .child(self.id.index(), octant)
            .map(|c| NodeView {
                tree: self.tree,
                id: NodeId(c),
                depth: self.depth + 1,
            })
    }

    /// Iterates over the occupied children.
    pub fn children(&self) -> impl Iterator<Item = NodeView<'a>> + '_ {
        (0..8).filter_map(move |o| self.child(o))
    }

    /// `true` when the node has no children (it is a max-depth leaf).
    pub fn is_leaf(&self) -> bool {
        self.occupancy_byte() == 0
    }

    /// The bitmask of occupied children (bit `i` = octant `i`).
    pub fn occupancy_byte(&self) -> u8 {
        self.tree.arena.occupancy()[self.id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arvis_pointcloud::point::Point;

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
        let cloud = unit_cloud();
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(4)).unwrap();
        let root = tree.node(NodeId::ROOT);
        assert_eq!(root.count(), cloud.len() as u64);
        assert_eq!(root.depth(), 0);
        assert_eq!(tree.occupied_at_depth(0), 1);
        assert_eq!(tree.point_count(), 9);
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
    fn counts_sum_to_parent_at_every_level() {
        let cloud = unit_cloud();
        let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(4)).unwrap();
        for d in 0..4u8 {
            for id in tree.nodes_at_depth(d).collect::<Vec<_>>() {
                let v = tree.node(id);
                if !v.is_leaf() {
                    let child_sum: u64 = v.children().map(|c| c.count()).sum();
                    assert_eq!(child_sum, v.count(), "count mismatch at node {id:?}");
                }
            }
        }
    }

    #[test]
    fn depth_of_is_consistent() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(4)).unwrap();
        for d in 0..=4u8 {
            for id in tree.nodes_at_depth(d).collect::<Vec<_>>() {
                assert_eq!(tree.depth_of(id), d);
            }
        }
    }

    #[test]
    fn occupancy_byte_reflects_children() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(2)).unwrap();
        let root = tree.node(NodeId::ROOT);
        assert_eq!(root.occupancy_byte(), 0xff, "all 8 octants occupied");
        assert_eq!(root.children().count(), 8);
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
        }
        let leaf_id = tree.nodes_at_depth(5).next().unwrap();
        let leaf = tree.node(leaf_id);
        assert!(leaf.is_leaf());
        assert_eq!(leaf.mean_color(), Color::new(5, 6, 7));
        assert!(leaf.mean_position().distance(Vec3::splat(0.1)) < 1e-12);
    }

    #[test]
    fn depth_zero_tree() {
        let tree = Octree::build(&unit_cloud(), &OctreeConfig::with_max_depth(0)).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!(tree.node(NodeId::ROOT).is_leaf());
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
        assert_eq!(
            tree.node(NodeId::ROOT).mean_color(),
            Color::new(100, 50, 25)
        );
    }

    #[test]
    fn mean_color_rounds_like_the_float_quotient() {
        let float = |s: u64, n: u64| (s as f64 / n as f64).round() as u8;
        let mut arena = NodeArena::with_len(1);
        let mut check = |s: u64, n: u64| {
            arena.payload[0] = NodePayload {
                count: n,
                color_sum: [s, s / 2, s / 3],
                ..NodePayload::default()
            };
            let want = Color::new(float(s, n), float(s / 2, n), float(s / 3, n));
            assert_eq!(arena.mean_color(0), want, "sum {s} over {n} points");
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
        let byte1 = t1.node(NodeId::ROOT).occupancy_byte();
        let byte2 = t2.node(NodeId::ROOT).occupancy_byte();
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
    fn occupancy_column_matches_the_child_links() {
        let cloud = arvis_pointcloud::synth::SynthBodyConfig::new(
            arvis_pointcloud::synth::SubjectProfile::Soldier,
        )
        .with_target_points(30_000)
        .with_seed(9)
        .generate();
        // Deep enough that the link phase splits its levels across workers.
        let cfg = OctreeConfig::with_max_depth(12);
        for tree in [
            Octree::build(&cloud, &cfg).unwrap(),
            par::serial_scope(|| Octree::build(&cloud, &cfg).unwrap()),
        ] {
            let a = &tree.arena;
            for row in 0..a.len() {
                let from_links = (0..8)
                    .filter(|&o| a.child(row, o).is_some())
                    .fold(0u8, |byte, o| byte | (1 << o));
                assert_eq!(a.occupancy()[row], from_links, "row {row}");
            }
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
