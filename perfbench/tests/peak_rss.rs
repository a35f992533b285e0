//! A workload run reports its own peak RSS, not the peak of whatever ran
//! earlier in the same process (as `--workload all` runs them one after
//! another). Alone in its own test binary, so no other test's memory
//! moves the process-wide peak while it runs.

use perfbench::{run, sys, Size, Workload};

/// More than any smoke-size workload holds at its peak.
const BALLAST_MB: usize = 160;

#[test]
fn a_run_after_a_larger_one_reports_its_own_peak_rss() {
    let fleet = run(Workload::UncoupledFleet, 3, 0.0, false, Size::Smoke, None);
    assert_eq!(fleet.failed, 0, "{:?}", fleet.failures);
    // Stand-in for a larger earlier workload: touch every page, then free.
    let ballast = vec![1u8; BALLAST_MB << 20];
    assert_eq!(std::hint::black_box(&ballast)[BALLAST_MB << 19], 1);
    drop(ballast);
    assert!(
        sys::peak_rss_mb() >= BALLAST_MB as f64,
        "the ballast raised the peak"
    );

    let cell = run(Workload::TenantCell, 3, 0.0, false, Size::Smoke, None);
    assert_eq!(cell.failed, 0, "{:?}", cell.failures);
    let peak = cell.metrics["peak_rss_mb"];
    assert!(
        peak > 0.0 && peak < BALLAST_MB as f64 / 2.0,
        "the cell reports {peak} MiB, the earlier peak rather than its own"
    );
}
