//! Point-cloud substrate for the `arvis` workspace.
//!
//! This crate replaces the subset of [Open3D](https://www.open3d.org/) that the
//! paper *Quality-Aware Real-Time Augmented Reality Visualization under Delay
//! Constraints* (ICDCS 2022) relies on: point-cloud containers, PLY reading and
//! writing, data-format conversion, and voxelization. It additionally provides
//! a synthetic generator for 8i-Voxelized-Full-Bodies-like human point clouds
//! (see [`synth`]) because the original dataset cannot be redistributed.
//!
//! # Quick example
//!
//! ```
//! use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
//!
//! let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
//!     .with_target_points(10_000)
//!     .with_seed(7)
//!     .generate();
//! assert!(cloud.len() > 5_000);
//! let aabb = cloud.aabb().unwrap();
//! assert!(aabb.max_extent() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aabb;
pub mod cloud;
pub mod color;
pub mod error;
pub mod kdtree;
pub mod math;
pub mod morton;
pub mod ply;
pub mod point;
pub mod sampling;
pub mod synth;
pub mod transform;
pub mod voxel;

pub use aabb::Aabb;
pub use cloud::PointCloud;
pub use color::Color;
pub use error::{Error, Result};
pub use math::Vec3;
pub use point::Point;
