//! Shared workload construction for the `arvis` figure-regeneration
//! binary and its tests.
//!
//! Every experiment in the paper runs on the same substrate: an
//! 8i-like full-body point cloud, octree-profiled over the candidate depth
//! set `R = {5, …, 10}` (Fig. 2(b)'s y-axis), visualized by a device whose
//! rendering rate sits strictly between the min-depth and max-depth
//! workloads. This crate centralizes that setup, with the E1–E8 scenario
//! presets ([`presets`]), so the `experiments` binary and the integration
//! tests all run the same system.
//!
//! Performance is measured by the repository benchmark, `perfbench/`
//! (declared in `BENCHMARK.json`), not here.

#![deny(missing_docs)]

pub mod presets;

use arvis_core::experiment::{v_for_knee, ExperimentConfig, ExperimentResult};
use arvis_core::scenario::Scenario;
use arvis_core::session::SessionBatch;
use arvis_pointcloud::synth::{SubjectProfile, SynthBodyConfig};
use arvis_quality::profile::{DepthProfile, ProfileError};

/// Candidate depth range used throughout the paper (Fig. 2(b)).
pub const PAPER_DEPTHS: std::ops::RangeInclusive<u8> = 5..=10;

/// Simulation horizon of the paper's Fig. 2.
pub const PAPER_SLOTS: u64 = 800;

/// The knee slot the paper reports ("recognizes 400 unit time as the
/// optimized point").
pub const PAPER_KNEE: f64 = 400.0;

/// Builds the paper workload: a `longdress`-profile synthetic body sampled
/// with `points` surface points, profiled over [`PAPER_DEPTHS`].
///
/// # Errors
///
/// Returns [`ProfileError::FlatArrivals`] when `points` is too small for
/// the voxel counts to grow across the candidate depths.
pub fn paper_profile(points: usize, seed: u64) -> Result<DepthProfile, ProfileError> {
    let cloud = SynthBodyConfig::new(SubjectProfile::Longdress)
        .with_target_points(points)
        .with_seed(seed)
        .generate();
    DepthProfile::measure(&cloud, PAPER_DEPTHS)
}

/// Picks the service rate for the Fig. 2 experiments: the geometric mean of
/// the two deepest arrivals `a(9)` and `a(10)`.
///
/// This is strictly above `a(5)` (min-depth drains to ≈ 0) and strictly
/// below `a(10)` (max-depth diverges), and it puts the device's sustainable
/// depth right between the two deepest candidates — so after the knee the
/// proposed scheduler time-shares depths 9 and 10 and the backlog plateaus
/// within the 800-slot horizon, the shape of the paper's Fig. 2(a).
pub fn fig2_service_rate(profile: &DepthProfile) -> f64 {
    let hi = profile.max_depth();
    (profile.arrival(hi - 1) * profile.arrival(hi)).sqrt()
}

/// Assembles the Fig. 2 experiment: the paper workload, its service rate,
/// [`PAPER_SLOTS`] slots, and `V` calibrated so the proposed scheduler's
/// knee lands at [`PAPER_KNEE`].
pub fn fig2_config(profile: DepthProfile) -> ExperimentConfig {
    let rate = fig2_service_rate(&profile);
    let v = v_for_knee(&profile, rate, PAPER_KNEE)
        .expect("fig2 service rate is below the max-depth arrival");
    ExperimentConfig::new(profile, rate, PAPER_SLOTS)
        .with_controller_v(v)
        .with_warmup(PAPER_SLOTS / 2)
}

/// A logarithmic grid of `n` values from `lo` to `hi` (inclusive).
///
/// # Panics
///
/// Panics when `lo <= 0`, `hi < lo`, or `n < 2`.
pub fn log_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi >= lo, "need 0 < lo <= hi");
    assert!(n >= 2, "need at least two grid points");
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Runs every session of `scenario` to its horizon under a full trace and
/// finalizes each into its [`ExperimentResult`] (scenario order). The
/// fan-out unit is one session: a fleet or a sweep is a few sessions with
/// long runs.
pub fn run_full_traces(scenario: &Scenario) -> Vec<ExperimentResult> {
    let mut batch = SessionBatch::full_trace(scenario).with_chunk_size(1);
    batch.run();
    batch.into_results()
}

/// Resolves the repository `results/` directory (created if missing):
/// `$ARVIS_RESULTS_DIR` when set, else `./results` under the current
/// working directory.
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::env::var_os("ARVIS_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_has_expected_shape() {
        let p = paper_profile(30_000, 1).unwrap();
        assert_eq!(p.depths(), PAPER_DEPTHS);
        assert!(p.arrival(10) > p.arrival(5));
        assert_eq!(p.quality(5), 0.0);
        assert_eq!(p.quality(10), 1.0);
    }

    #[test]
    fn fig2_rate_sits_between_extremes() {
        let p = paper_profile(30_000, 1).unwrap();
        let rate = fig2_service_rate(&p);
        assert!(rate > p.arrival(5), "min depth must be sustainable");
        assert!(rate < p.arrival(10), "max depth must be unsustainable");
    }

    #[test]
    fn log_grid_endpoints_and_monotonicity() {
        let g = log_grid(10.0, 1000.0, 5);
        assert_eq!(g.len(), 5);
        assert!((g[0] - 10.0).abs() < 1e-9);
        assert!((g[4] - 1000.0).abs() < 1e-6);
        for w in g.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!((g[2] - 100.0).abs() < 1e-6, "log-midpoint");
    }

    #[test]
    #[should_panic(expected = "0 < lo")]
    fn log_grid_rejects_nonpositive() {
        let _ = log_grid(0.0, 1.0, 3);
    }

    #[test]
    fn fig2_config_is_calibrated() {
        let p = paper_profile(30_000, 1).unwrap();
        let cfg = fig2_config(p);
        assert_eq!(cfg.slots, PAPER_SLOTS);
        assert!(cfg.controller_v > 0.0);
    }
}
