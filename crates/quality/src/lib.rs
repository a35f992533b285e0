//! Quality measurement for the `arvis` workspace.
//!
//! The paper's objective is the time-average of a quality function
//! `p_a(d(τ))` over the chosen octree depths. This crate provides:
//!
//! - the objective geometry metric between a reference cloud and a
//!   degraded LoD cloud: point-to-point (D1) [`psnr`];
//! - [`profile::DepthProfile`]: the measured per-depth table (occupied
//!   voxels `a(d)`, PSNR, normalized quality `p_a(d)`, the scalar the
//!   scheduler maximizes) that connects a dataset to the scheduler;
//! - [`profile::log_quality`]: the default quality column, the normalized
//!   log of the arrivals, shared with the byte-unit profiles of
//!   `arvis_core::pipeline`.
//!
//! # Example
//!
//! ```
//! use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
//! use arvis_quality::profile::DepthProfile;
//!
//! let cloud = SynthBodyConfig::new(SubjectProfile::Loot)
//!     .with_target_points(10_000)
//!     .generate();
//! let profile = DepthProfile::measure(&cloud, 2..=6).unwrap();
//! assert!(profile.arrival(6) > profile.arrival(2));
//! assert!(profile.quality(6) > profile.quality(2));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
pub mod profile;
pub mod psnr;

pub use profile::DepthProfile;
