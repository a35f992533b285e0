//! Property tests of the session-runtime redesign's equivalence contract:
//!
//! 1. a [`SessionBatch`] with N = 1 is **bit-identical** to the legacy
//!    `Experiment::run` across every controller kind, service model, seed
//!    and queue bound;
//! 2. batch results are invariant to session order;
//! 3. batch results are invariant to the fan-out chunk size.
//!
//! Together these enforce the redesign's acceptance criterion: the
//! single-run API (`Experiment::run`) and the fleet and sweep scenarios
//! cannot drift from the batch runtime, because both are the same kernel.

use proptest::prelude::*;

use arvis::core::experiment::{Experiment, ExperimentConfig, ExperimentResult, ServiceSpec};
use arvis::core::scenario::{ControllerSpec, FleetSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::quality::DepthProfile;
use arvis_bench::run_full_traces;

fn profile() -> DepthProfile {
    DepthProfile::from_parts(
        5,
        vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    )
}

fn arb_controller() -> impl Strategy<Value = ControllerSpec> {
    (0u8..7, 0u64..1_000, 1.0f64..1e8).prop_map(|(kind, seed, v)| match kind {
        0 => ControllerSpec::Proposed { v },
        1 => ControllerSpec::OnlyMax,
        2 => ControllerSpec::OnlyMin,
        3 => ControllerSpec::Fixed {
            depth: 5 + (seed % 6) as u8,
        },
        4 => ControllerSpec::Random { seed },
        5 => ControllerSpec::Threshold {
            thresholds: vec![1_000.0, 5_000.0, 20_000.0, 80_000.0],
        },
        _ => ControllerSpec::AdaptiveV {
            initial_v: v,
            target_backlog: 10_000.0,
        },
    })
}

fn arb_service() -> impl Strategy<Value = ServiceSpec> {
    (0u8..3, 500.0f64..30_000.0, 0.0f64..0.4).prop_map(|(kind, rate, sigma)| match kind {
        0 => ServiceSpec::Constant(rate),
        1 => ServiceSpec::Jittered { rate, sigma },
        _ => ServiceSpec::DutyCycled {
            high: rate,
            low: rate * 0.25,
            high_slots: 30,
            low_slots: 10,
        },
    })
}

/// Bitwise equality of two results: every series value and every derived
/// metric (floats compared through `to_bits`, so `-0.0 != 0.0` and NaNs
/// must match payload-for-payload where produced deterministically).
fn assert_bit_identical(a: &ExperimentResult, b: &ExperimentResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.controller, &b.controller);
    for (sa, sb) in [
        (&a.backlog, &b.backlog),
        (&a.depth, &b.depth),
        (&a.quality, &b.quality),
        (&a.arrivals, &b.arrivals),
        (&a.service, &b.service),
    ] {
        prop_assert_eq!(sa.len(), sb.len());
        for (va, vb) in sa.values().iter().zip(sb.values()) {
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
    }
    let bits = |x: f64| x.to_bits();
    prop_assert_eq!(bits(a.mean_quality), bits(b.mean_quality));
    prop_assert_eq!(bits(a.mean_backlog), bits(b.mean_backlog));
    prop_assert_eq!(bits(a.dropped_total), bits(b.dropped_total));
    prop_assert_eq!(a.littles_delay.map(bits), b.littles_delay.map(bits));
    prop_assert_eq!(bits(a.frame_latency.mean), bits(b.frame_latency.mean));
    prop_assert_eq!(bits(a.frame_latency.p95), bits(b.frame_latency.p95));
    prop_assert_eq!(bits(a.frame_latency.p99), bits(b.frame_latency.p99));
    prop_assert_eq!(bits(a.backlog_tail.p95), bits(b.backlog_tail.p95));
    prop_assert_eq!(bits(a.backlog_tail.p99), bits(b.backlog_tail.p99));
    prop_assert_eq!(bits(a.depth_switch_rate), bits(b.depth_switch_rate));
    prop_assert_eq!(a.stable, b.stable);
    prop_assert_eq!(a.frame_latency.count, b.frame_latency.count);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_of_one_is_bit_identical_to_legacy_run(
        controller in arb_controller(),
        service in arb_service(),
        seed in 0u64..10_000,
        slots in 20u64..200,
        capacity in (0u8..2, 10_000.0f64..500_000.0),
    ) {
        let capacity = (capacity.0 == 1).then_some(capacity.1);
        let mut cfg = ExperimentConfig::new(profile(), 2_000.0, slots)
            .with_service(service)
            .with_seed(seed);
        cfg.queue_capacity = capacity;

        // Legacy path: the run-to-completion closed loop with an
        // externally owned controller behind the open trait.
        let mut legacy_controller = controller.build();
        let legacy = Experiment::new(cfg.clone()).run(&mut legacy_controller);

        // New path: a one-session batch with a full-trace sink.
        let mut batch = SessionBatch::full_trace(&Scenario::single(&cfg, controller));
        batch.run();
        let mut results = batch.into_results();
        prop_assert_eq!(results.len(), 1);
        assert_bit_identical(&legacy, &results.remove(0))?;
    }

    #[test]
    fn batch_results_are_invariant_to_session_order(
        seeds in prop::collection::vec(0u64..1_000, 2..6),
        slots in 20u64..120,
    ) {
        let base = ExperimentConfig::new(profile(), 2_000.0, slots).with_controller_v(1e7);
        // Heterogeneous sessions: rate and seed differ per session.
        let specs: Vec<SessionSpec> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let mut spec = SessionSpec::from_config(
                    &base,
                    ControllerSpec::Proposed { v: 1e6 * (i + 1) as f64 },
                );
                spec.seed = seed;
                spec.service = ServiceSpec::Jittered {
                    rate: 1_500.0 + 700.0 * i as f64,
                    sigma: 0.2,
                };
                spec
            })
            .collect();

        let mut forward = Scenario::new(slots);
        forward.sessions = specs.clone();
        let mut reversed = Scenario::new(slots);
        reversed.sessions = specs.into_iter().rev().collect();

        let mut fwd = SessionBatch::full_trace(&forward);
        let mut rev = SessionBatch::full_trace(&reversed);
        fwd.run();
        rev.run();
        let fwd_results = fwd.into_results();
        let mut rev_results = rev.into_results();
        rev_results.reverse();
        prop_assert_eq!(fwd_results.len(), rev_results.len());
        for (a, b) in fwd_results.iter().zip(&rev_results) {
            assert_bit_identical(a, b)?;
        }
    }

    #[test]
    fn batch_results_are_invariant_to_chunk_size(
        n in 1usize..9,
        chunk_a in 1usize..4,
        slots in 20u64..100,
    ) {
        let base = ExperimentConfig::new(profile(), 2_000.0, slots)
            .with_controller_v(1e7)
            .with_service(ServiceSpec::Jittered { rate: 2_000.0, sigma: 0.15 });
        let scenario = Scenario::replicated(
            &base,
            ControllerSpec::Proposed { v: 1e7 },
            n,
        );
        let mut small = SessionBatch::full_trace(&scenario).with_chunk_size(chunk_a);
        let mut large = SessionBatch::full_trace(&scenario).with_chunk_size(1_024);
        small.run();
        large.run();
        let small_results = small.into_results();
        let large_results = large.into_results();
        for (a, b) in small_results.iter().zip(&large_results) {
            assert_bit_identical(a, b)?;
        }
    }
}

#[test]
fn run_fleet_and_sweeps_match_sequential_experiments() {
    // The fleet and sweep scenarios, run as full-trace batches, must agree
    // with running each device or grid point through `Experiment::run` by
    // hand.
    let base = ExperimentConfig::new(profile(), 2_000.0, 400).with_controller_v(1e7);

    // Fleet.
    let fleet = Scenario::fleet(&base, FleetSpec::heterogeneous(4, 0.8));
    let results = run_full_traces(&fleet);
    for (device, (spec, result)) in fleet.sessions.iter().zip(&results).enumerate() {
        let ServiceSpec::Constant(service_rate) = spec.service else {
            panic!("fleet devices serve at constant rates");
        };
        let cfg = base
            .clone()
            .with_service(ServiceSpec::Constant(service_rate))
            .with_seed(arvis::sim::rng::child_seed(0xF1EE7, device as u64));
        let solo = Experiment::new(cfg).run(&mut arvis::core::controller::ProposedDpp::new(1e7));
        assert_eq!(result.backlog, solo.backlog, "device {device}");
        assert_eq!(
            result.mean_quality.to_bits(),
            solo.mean_quality.to_bits(),
            "device {device}"
        );
    }

    // V-sweep.
    let vs = [1e5, 1e6, 1e7];
    let points = run_full_traces(&Scenario::v_sweep(&base, &vs));
    for (p, &v) in points.iter().zip(&vs) {
        let solo = Experiment::new(base.clone().with_controller_v(v))
            .run(&mut arvis::core::controller::ProposedDpp::new(v));
        assert_eq!(p.mean_quality.to_bits(), solo.mean_quality.to_bits());
        assert_eq!(p.mean_backlog.to_bits(), solo.mean_backlog.to_bits());
        assert_eq!(p.stable, solo.stable);
    }

    // Rate sweep.
    let rates = [800.0, 3_200.0];
    let points = run_full_traces(&Scenario::rate_sweep(&base, &rates));
    for (p, &rate) in points.iter().zip(&rates) {
        let solo = Experiment::new(base.clone().with_service(ServiceSpec::Constant(rate))).run(
            &mut arvis::core::controller::ProposedDpp::new(base.controller_v),
        );
        assert_eq!(p.mean_quality.to_bits(), solo.mean_quality.to_bits());
        assert_eq!(p.mean_backlog.to_bits(), solo.mean_backlog.to_bits());
    }
}

#[test]
fn summary_sink_percentiles_track_full_trace_tails() {
    // The streaming p95/p99 estimates must land close to the exact
    // nearest-rank percentiles of the retained trace.
    let base = ExperimentConfig::new(profile(), 2_000.0, 2_000)
        .with_controller_v(1e7)
        .with_service(ServiceSpec::Jittered {
            rate: 2_000.0,
            sigma: 0.25,
        })
        .with_seed(7);
    let spec = ControllerSpec::Proposed { v: 1e7 };

    let mut full = SessionBatch::full_trace(&Scenario::single(&base, spec.clone()));
    full.run();
    let exact = full.into_results().remove(0);

    let mut streaming = SessionBatch::summary_only(&Scenario::single(&base, spec));
    streaming.run();
    let summary = streaming.into_summaries().remove(0);

    assert_eq!(summary.slots, 2_000);
    assert!((summary.mean_backlog - exact.mean_backlog).abs() < 1e-9);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
    assert!(
        rel(summary.backlog_p95, exact.backlog_tail.p95) < 0.05,
        "streaming p95 {} vs exact {}",
        summary.backlog_p95,
        exact.backlog_tail.p95
    );
    assert!(
        rel(summary.backlog_p99, exact.backlog_tail.p99) < 0.05,
        "streaming p99 {} vs exact {}",
        summary.backlog_p99,
        exact.backlog_tail.p99
    );
    assert!(
        rel(summary.frame_latency_p95, exact.frame_latency.p95) < 0.15,
        "streaming latency p95 {} vs exact {}",
        summary.frame_latency_p95,
        exact.frame_latency.p95
    );
    assert_eq!(summary.stable, exact.stable);
}
