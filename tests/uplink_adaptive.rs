//! End-to-end tests of uplink-aware `V` adaptation
//! (`SessionSpec::uplink_v_adapt` → `arvis_lyapunov::adaptive::GrantRatioV`)
//! on the diurnal-backhaul scenario family:
//!
//! 1. **Acceptance criterion**: on the fixed-rate 8-tenant fleet under a
//!    `Diurnal` budget averaging 60% of aggregate demand, adaptation keeps
//!    every tenant's post-warmup p99 backlog bounded (no divergence) under
//!    both `WeightedMaxWeight` and `AlphaFair`, and cuts the worst p99
//!    well below the fixed-`V` plateau (headline numbers in ROADMAP).
//! 2. **Determinism**: the adaptation is per-session state driven by
//!    per-session signals, so contended runs with adapters stay
//!    bit-identical under session reversal, chunk-size changes and forced
//!    serial execution (CI's one-worker pass re-runs this file under
//!    `taskset -c 0`, where no fan-out spawns a thread).
//! 3. **Scoping**: adaptation never engages outside the contention plane —
//!    an uncoupled `SessionBatch::run` with the knob set matches one
//!    without it bit-for-bit.

use arvis::core::experiment::{ExperimentConfig, ExperimentResult};
use arvis::core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::core::uplink::{
    run_contended, BudgetProfile, SharedUplink, UplinkPolicy, UplinkSpec, UplinkVAdaptSpec,
};
use arvis::quality::DepthProfile;

fn profile() -> DepthProfile {
    DepthProfile::from_parts(
        5,
        vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    )
}

/// The fixed-rate 8-tenant fleet of the acceptance criterion: constant
/// 2000 points/slot devices running the proposed scheduler at `V = 1e7`,
/// optionally with uplink-aware `V` adaptation.
fn proposed_fleet(slots: u64, adapt: Option<UplinkVAdaptSpec>) -> Scenario {
    let mut cfg = ExperimentConfig::new(profile(), 2_000.0, slots).with_controller_v(1e7);
    cfg.warmup = slots / 4;
    let mut scenario = Scenario::new(slots);
    for i in 0..8usize {
        let mut spec = SessionSpec::from_config(
            &cfg,
            ControllerSpec::Proposed {
                v: cfg.controller_v,
            },
        );
        spec.seed = 1_000 + i as u64;
        spec.uplink_v_adapt = adapt;
        scenario.sessions.push(spec);
    }
    scenario
}

/// The acceptance scenario's budget: a diurnal backhaul averaging 60% of
/// the fleet's 8 × 2000 aggregate demand, peaking just above it (so `V`
/// can recover) and dipping to 15% in the trough.
fn diurnal_budget() -> BudgetProfile {
    BudgetProfile::Diurnal {
        mean: 9_600.0,
        amplitude: 7_200.0,
        period: 200,
        phase: 0.0,
    }
}

fn acceptance_policies() -> Vec<UplinkPolicy> {
    vec![
        UplinkPolicy::WeightedMaxWeight {
            weights: (0..8).map(|i| 1.0 + (i % 4) as f64).collect(),
        },
        UplinkPolicy::AlphaFair { alpha: 2.0 },
    ]
}

fn worst_p99(scenario: &Scenario, spec: UplinkSpec) -> (f64, usize) {
    let run = run_contended(&scenario.clone().with_uplink(spec));
    let worst = run
        .summaries
        .iter()
        .map(|s| s.backlog_p99)
        .fold(0.0f64, f64::max);
    let stable = run.summaries.iter().filter(|s| s.stable).count();
    (worst, stable)
}

/// Acceptance criterion: under the 60%-mean diurnal budget, uplink-aware
/// `V` adaptation keeps all 8 tenants bounded under both new policies and
/// cuts the worst post-warmup p99 backlog versus the fixed-`V` fleet.
#[test]
fn adaptive_v_bounds_the_fleet_under_diurnal_scarcity() {
    let slots = 1_600;
    let fixed = proposed_fleet(slots, None);
    let adaptive = proposed_fleet(slots, Some(UplinkVAdaptSpec::default()));

    for policy in acceptance_policies() {
        let spec = UplinkSpec::with_profile(diurnal_budget(), policy.clone());
        let (fixed_p99, fixed_stable) = worst_p99(&fixed, spec.clone());
        let (adapt_p99, adapt_stable) = worst_p99(&adaptive, spec);

        assert_eq!(
            adapt_stable,
            8,
            "{}: every adaptive tenant must be stable",
            policy.name()
        );
        assert!(
            adapt_p99.is_finite() && adapt_p99 < 60_000.0,
            "{}: adaptive worst p99 {adapt_p99} must stay bounded",
            policy.name()
        );
        assert!(
            adapt_p99 < 0.5 * fixed_p99,
            "{}: adaptation must cut the fixed-V plateau: {adapt_p99} vs {fixed_p99}",
            policy.name()
        );
        println!(
            "{}: worst p99 backlog fixed-V {fixed_p99:.0} ({fixed_stable}/8 stable) \
             -> adaptive {adapt_p99:.0} ({adapt_stable}/8 stable), {:.1}x lower",
            policy.name(),
            fixed_p99 / adapt_p99
        );
    }
}

/// Bitwise equality of two full-trace results.
fn assert_bits(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(a.controller, b.controller, "{what}");
    for (sa, sb) in [
        (&a.backlog, &b.backlog),
        (&a.depth, &b.depth),
        (&a.quality, &b.quality),
        (&a.arrivals, &b.arrivals),
        (&a.service, &b.service),
    ] {
        assert_eq!(sa.len(), sb.len(), "{what}");
        for (va, vb) in sa.values().iter().zip(sb.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{what}");
        }
    }
    assert_eq!(a.mean_quality.to_bits(), b.mean_quality.to_bits(), "{what}");
    assert_eq!(
        a.dropped_total.to_bits(),
        b.dropped_total.to_bits(),
        "{what}"
    );
}

fn run_traces(scenario: &Scenario, spec: UplinkSpec, chunk: usize) -> Vec<ExperimentResult> {
    let mut batch = SessionBatch::full_trace(scenario).with_chunk_size(chunk);
    let mut uplink = SharedUplink::new(spec);
    uplink.run(&mut batch);
    batch.into_results()
}

/// Determinism: adaptation state is per-session, so the adaptive contended
/// run is bit-identical under session reversal (weights reversed in step),
/// chunk-size changes, and forced-serial execution.
#[test]
fn adaptive_runs_are_order_chunk_and_serial_invariant() {
    let slots = 300;
    let forward = proposed_fleet(slots, Some(UplinkVAdaptSpec::default()));
    let mut reversed = forward.clone();
    reversed.sessions.reverse();

    for policy in acceptance_policies() {
        let rev_policy = match &policy {
            UplinkPolicy::WeightedMaxWeight { weights } => UplinkPolicy::WeightedMaxWeight {
                weights: weights.iter().rev().copied().collect(),
            },
            other => other.clone(),
        };
        let fwd_spec = UplinkSpec::with_profile(diurnal_budget(), policy.clone());
        let rev_spec = UplinkSpec::with_profile(diurnal_budget(), rev_policy);

        let fwd = run_traces(&forward, fwd_spec.clone(), 3);
        let mut rev = run_traces(&reversed, rev_spec, 64);
        rev.reverse();
        assert_eq!(fwd.len(), rev.len());
        for (a, b) in fwd.iter().zip(&rev) {
            assert_bits(a, b, policy.name());
        }

        let ser = arvis_par::serial_scope(|| run_traces(&forward, fwd_spec, 3));
        for (a, b) in fwd.iter().zip(&ser) {
            assert_bits(a, b, policy.name());
        }
    }
}

/// Scoping: the knob is inert outside the contention plane — an uncoupled
/// batch run with adapters configured matches one without, bit-for-bit
/// (`SessionBatch::run` never observes grant ratios).
#[test]
fn adaptation_is_inert_without_contention() {
    let slots = 400;
    let plain = proposed_fleet(slots, None);
    let with_knob = proposed_fleet(slots, Some(UplinkVAdaptSpec::default()));

    let mut a = SessionBatch::full_trace(&plain);
    a.run();
    let a = a.into_results();
    let mut b = SessionBatch::full_trace(&with_knob);
    b.run();
    let b = b.into_results();
    for (x, y) in a.iter().zip(&b) {
        assert_bits(x, y, "uncoupled run");
    }
}

/// The batch rejects the knob on controllers it cannot act on.
#[test]
#[should_panic(expected = "uplink_v_adapt requires a Proposed controller")]
fn adaptation_requires_a_proposed_controller() {
    let cfg = ExperimentConfig::new(profile(), 2_000.0, 10);
    let spec = SessionSpec::from_config(&cfg, ControllerSpec::OnlyMax)
        .with_uplink_v_adapt(UplinkVAdaptSpec::default());
    let scenario = Scenario::new(10).with_session(spec);
    let _ = SessionBatch::summary_only(&scenario);
}
