//! The "fully distributed" claim at batch scale: a heterogeneous fleet of
//! AR devices described declaratively as a [`Scenario`], stepped through a
//! struct-of-arrays [`SessionBatch`] with zero shared scheduler state, and
//! summarized with O(1)-per-session streaming telemetry (means plus
//! p95/p99 backlog and delay tails).
//!
//! ```bash
//! cargo run --release --example multi_device
//! ```

use arvis::core::experiment::{v_for_knee, ExperimentConfig, ServiceSpec};
use arvis::core::scenario::{ControllerSpec, FleetSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::core::telemetry::{CsvRow, SessionSummary};
use arvis::pointcloud::synth::{SubjectProfile, SynthBodyConfig};
use arvis::quality::DepthProfile;
use arvis::sim::rng::child_seed;

fn main() {
    // One measured frame profile shared by the whole fleet.
    let cloud = SynthBodyConfig::new(SubjectProfile::RedAndBlack)
        .with_target_points(80_000)
        .with_seed(3)
        .generate();
    let profile = DepthProfile::measure(&cloud, 5..=9).expect("profile");
    let rate = (profile.arrival(8) * profile.arrival(9)).sqrt();
    let v = v_for_knee(&profile, rate, 300.0).expect("unsustainable max depth");
    let base = ExperimentConfig::new(profile, rate, 4_000).with_controller_v(v);

    // A 64-device fleet: service rates spread ±40% around the nominal
    // operating point, per-device decorrelated seeds, one declarative value.
    let devices = 64;
    let mut scenario = Scenario::new(base.slots);
    for i in 0..devices {
        let frac = i as f64 / (devices - 1) as f64;
        let mut spec = SessionSpec::from_config(&base, ControllerSpec::Proposed { v });
        spec.service = ServiceSpec::Constant(rate * (0.6 + 0.8 * frac));
        spec.seed = child_seed(0xF1EE7, i as u64);
        scenario = scenario.with_session(spec);
    }

    // Step all devices to the horizon. Summary-only sinks keep memory at
    // O(devices) — the same batch handles millions of sessions.
    let mut batch = SessionBatch::summary_only(&scenario);
    batch.run();
    let summaries = batch.into_summaries();

    println!("== heterogeneous fleet: {devices} devices, ±40% rate spread ==");
    println!("{}", SessionSummary::csv_header());
    for (i, s) in summaries.iter().enumerate().step_by(8) {
        println!("{}", s.csv_row(i));
    }
    let stable = summaries.iter().filter(|s| s.stable).count();
    println!("\nstable devices: {stable}/{devices}");
    let worst_p99 = summaries
        .iter()
        .filter(|s| s.stable)
        .map(|s| s.backlog_p99)
        .fold(0.0f64, f64::max);
    println!("worst stable-device p99 backlog: {worst_p99:.0} points");

    // The same fleet shape from the scenario builder, with full per-slot
    // traces: one session per fan-out unit, since a few long runs
    // parallelize best one by one.
    let fleet = Scenario::fleet(&base, FleetSpec::heterogeneous(8, 0.8));
    let mut batch = SessionBatch::full_trace(&fleet).with_chunk_size(1);
    batch.run();
    let results = batch.into_results();
    println!("\n== Scenario::fleet with full traces (8 devices) ==");
    println!("device,service_rate,mean_quality,mean_backlog,stable");
    for (device, (spec, r)) in fleet.sessions.iter().zip(&results).enumerate() {
        let row = CsvRow::new()
            .field(device)
            .fixed(spec.service.mean_rate(), 1)
            .fixed(r.mean_quality, 6)
            .fixed(r.mean_backlog, 3)
            .field(r.stable);
        println!("{}", row.finish());
    }
    let all_stable = results.iter().all(|r| r.stable);
    println!("all devices stable: {all_stable}");
}
