//! Simulation substrate for the `arvis` workspace.
//!
//! The paper's evaluation is a slotted queueing simulation: each unit time τ
//! the controller picks an octree depth, the corresponding workload `a(d(τ))`
//! enters the visualization queue `Q(τ)`, and the device renders (serves) up
//! to its capacity. This crate provides the machinery:
//!
//! - [`arrivals`]: stochastic arrival processes (Poisson and
//!   Markov-modulated) for exogenous traffic;
//! - [`service`]: renderer service models (constant, jittered,
//!   duty-cycled);
//! - [`queue`]: the work queue with Lindley dynamics, optional finite
//!   capacity, and conservation accounting;
//! - [`stats`]: time-series recording, summary statistics, stability
//!   detection, and CSV file output;
//! - [`event`]: a small discrete-event engine for latency-accurate frame
//!   pipelines;
//! - [`rng`]: seeded RNG helpers so every experiment is reproducible.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrivals;
pub mod event;
pub mod latency;
pub mod queue;
pub mod rng;
pub mod service;
pub mod stats;

pub use arrivals::ArrivalProcess;
pub use queue::WorkQueue;
pub use service::ServiceProcess;
pub use stats::{SummaryStats, TimeSeries};
