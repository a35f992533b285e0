//! Octree substrate for the `arvis` workspace.
//!
//! The paper controls AR visualization quality through the *Octree depth* used
//! to voxelize each point-cloud frame (its Fig. 1). This crate provides the
//! octree the pipeline needs, replacing Open3D's octree functionality:
//!
//! - [`Octree`]: construction from a [`arvis_pointcloud::PointCloud`] over its
//!   bounding cube, up to a configurable maximum depth;
//! - [`lod`]: depth-limited level-of-detail extraction — the clouds a renderer
//!   would draw at each candidate depth `d ∈ R`, and the occupied-voxel counts
//!   `a(d)` that drive the scheduler's queue arrivals;
//! - [`occupancy`]: breadth-first occupancy-byte serialization (the octree
//!   byte-stream format used by point-cloud codecs such as MPEG G-PCC);
//! - [`traversal`]: breadth- and depth-first iterators;
//! - [`query`]: point location, box queries and nearest-voxel lookups;
//! - [`stats`]: per-level node counts and branching statistics.
//!
//! # Example
//!
//! ```
//! use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
//! use arvis_octree::{Octree, OctreeConfig};
//!
//! let cloud = SynthBodyConfig::new(SubjectProfile::Loot)
//!     .with_target_points(20_000)
//!     .generate();
//! let tree = Octree::build(&cloud, &OctreeConfig::with_max_depth(8)).unwrap();
//! // Occupancy grows with depth until it saturates at the point count.
//! assert!(tree.occupied_at_depth(4) < tree.occupied_at_depth(8));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The recurring `for o in 0..8 { ... child(o) / octants[o] }` walk needs
// the octant index for two parallel lookups; an iterator zip would
// obscure the child-numbering invariant shared with `Aabb::octants`.
#![allow(clippy::needless_range_loop)]

pub mod attr;
pub mod budget;
pub mod diff;
pub mod lod;
pub mod occupancy;
pub mod query;
#[cfg(test)]
mod reference;
pub mod stats;
pub mod traversal;
mod tree;

pub use lod::{LodCloud, LodMode};
pub use tree::{
    NodeId, NodeView, Octree, OctreeBuilder, OctreeConfig, OctreeError, MAX_SUPPORTED_DEPTH,
};
