//! # arvis — Quality-Aware Real-Time AR Visualization under Delay Constraints
//!
//! Facade crate re-exporting the whole `arvis` workspace, a from-scratch Rust
//! reproduction of *"Quality-Aware Real-Time Augmented Reality Visualization
//! under Delay Constraints"* (Lee, Park, Jung, Kim — IEEE ICDCS 2022,
//! arXiv:2205.00407).
//!
//! The paper schedules the octree depth used to visualize streamed
//! point-cloud frames on an AR device, maximizing time-average visual quality
//! subject to queue (delay) stability via Lyapunov drift-plus-penalty
//! optimization.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |--------|---------------|----------|
//! | [`pointcloud`] | `arvis-pointcloud` | geometry, PLY I/O, voxelization, synthetic 8i-like bodies |
//! | [`octree`] | `arvis-octree` | octree build, LoD extraction, occupancy coding |
//! | [`quality`] | `arvis-quality` | PSNR metrics, measured depth profiles and their quality `p_a(d)` |
//! | [`sim`] | `arvis-sim` | slotted simulation, arrivals, queues, statistics |
//! | [`lyapunov`] | `arvis-lyapunov` | generic drift-plus-penalty framework and bounds |
//! | [`core`] | `arvis-core` | the paper's scheduler (Algorithm 1), baselines, the session runtime (`Scenario` → `SessionBatch` with pluggable telemetry sinks), and the shared-uplink contention plane (`core::uplink`) |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or run the paper's experiments:
//!
//! ```bash
//! cargo run -p arvis-bench --bin experiments --release -- all
//! ```

pub use arvis_core as core;
pub use arvis_lyapunov as lyapunov;
pub use arvis_octree as octree;
pub use arvis_pointcloud as pointcloud;
pub use arvis_quality as quality;
pub use arvis_sim as sim;
