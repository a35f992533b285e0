//! The benchmark's one wall clock.
//!
//! The workspace's determinism linter confines ambient time to bench and
//! profiling code. This module is the benchmark's single, pragma-scoped
//! entry point to it; everything else handles plain nanosecond counts.

use std::sync::OnceLock;
// arvis-lint: allow(no-ambient-time, "the benchmark's wall clock: timing the program from outside is this crate's job")
use std::time::Instant;

// arvis-lint: allow(no-ambient-time, "process-wide epoch of the benchmark's wall clock")
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
// arvis-lint: allow(no-ambient-time, "reads the benchmark's wall clock")
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds in a nanosecond count.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}
