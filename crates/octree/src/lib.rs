//! Octree substrate for the `arvis` workspace.
//!
//! The paper controls AR visualization quality through the *Octree depth* used
//! to voxelize each point-cloud frame (its Fig. 1). The scheduler needs one
//! thing from an octree: the occupied voxels at the depth it picks, with
//! their mean colours, as bytes for the queue and as a cloud to verify. This
//! crate provides that, replacing Open3D's octree functionality:
//!
//! - [`Octree`]: construction from a [`arvis_pointcloud::PointCloud`] over its
//!   bounding cube, up to a configurable maximum depth, kept as the columns
//!   the codec reads (one occupancy byte and one mean colour per node);
//! - [`lod`]: depth-limited level-of-detail extraction — the clouds a renderer
//!   would draw at each candidate depth `d ∈ R`, and the occupied-voxel counts
//!   `a(d)` that drive the scheduler's queue arrivals;
//! - [`occupancy`]: breadth-first occupancy-byte serialization (the octree
//!   byte-stream format used by point-cloud codecs such as MPEG G-PCC);
//! - [`attr`]: the matching colour stream, whole encoded frames, and the
//!   lossless check the pipeline runs on every decode.
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

pub mod attr;
pub mod lod;
pub mod occupancy;
#[cfg(test)]
mod reference;
mod tree;

pub use lod::{LodCloud, LodMode};
pub use tree::{Octree, OctreeBuilder, OctreeConfig, OctreeError, MAX_SUPPORTED_DEPTH};
