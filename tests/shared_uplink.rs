//! Property tests of the shared-uplink contention plane
//! (`arvis_core::uplink`): the invariants that make coupling M sessions
//! through one backhaul safe for the batch runtime's determinism contract.
//!
//! 1. **Conservation**: each slot, the granted aggregate never exceeds the
//!    slot's budget, and *equals* it (to f64 rounding) whenever aggregate
//!    demand exceeds it; per-session grants stay within `[0, demand]`.
//! 2. **Order invariance**: permuting the scenario's sessions (together
//!    with any per-session policy weights) permutes results bit-for-bit,
//!    for every policy — including the max-weight family, whose
//!    equal-priority tie groups share pro rata precisely so that no
//!    tie-break depends on session order, and `AlphaFair`, whose water
//!    level comes from permutation-invariant sums.
//! 3. **Chunk-size and serial/parallel invariance**: the fan-out
//!    decomposition never changes results (the same contract
//!    `tests/session_batch.rs` pins for the uncoupled batch).
//! 4. **Unconstrained ≡ uncoupled**: driving a batch through the
//!    contention plane with `UplinkPolicy::Unconstrained` reproduces
//!    `SessionBatch::run` bit-for-bit.
//! 5. **Policy quality**: on a heterogeneous contended fleet the
//!    Lyapunov-natural `MaxWeightBacklog` keeps every tenant stable where
//!    backlog-blind `ProportionalShare` diverges, with an order-of-
//!    magnitude margin in p99 backlog.
//! 6. **Policy equivalences**: `WeightedMaxWeight` with uniform weights ≡
//!    `MaxWeightBacklog` bit-for-bit end to end, and `AlphaFair(α=1)`
//!    matches `ProportionalShare` behaviorally on the fixed-rate
//!    8-tenant fleet.
//! 7. **Edge cases**: zero-budget slots grant exactly `+0.0` everywhere,
//!    keep conservation/contention accounting honest, and leave the
//!    latency tracker consistent.

use proptest::prelude::*;

use arvis::core::experiment::{ExperimentConfig, ExperimentResult, ServiceSpec};
use arvis::core::scenario::{ControllerSpec, Scenario, SessionSpec};
use arvis::core::session::SessionBatch;
use arvis::core::uplink::{BudgetProfile, SharedUplink, UplinkPolicy, UplinkSpec};
use arvis::quality::DepthProfile;
use arvis::sim::rng::seeded;
use rand::Rng as _;

/// Every policy, parameterized for an `n`-session scenario (the weighted
/// policy needs one weight per session; weights deliberately include
/// duplicates so tie groups mix weight classes).
fn policies(n: usize) -> Vec<UplinkPolicy> {
    vec![
        UplinkPolicy::Unconstrained,
        UplinkPolicy::ProportionalShare,
        UplinkPolicy::MaxWeightBacklog,
        UplinkPolicy::WeightedMaxWeight {
            weights: (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
        },
        UplinkPolicy::AlphaFair { alpha: 1.0 },
        UplinkPolicy::AlphaFair { alpha: 2.0 },
        UplinkPolicy::AlphaFair {
            alpha: f64::INFINITY,
        },
    ]
}

/// The constrained subset of [`policies`] (everything that can actually
/// bind a budget).
fn constrained_policies(n: usize) -> Vec<UplinkPolicy> {
    policies(n)
        .into_iter()
        .filter(|p| !matches!(p, UplinkPolicy::Unconstrained))
        .collect()
}

/// A policy whose per-session parameters follow a session permutation:
/// `perm[k]` is the original index of the session now at position `k`.
fn permuted_policy(policy: &UplinkPolicy, perm: &[usize]) -> UplinkPolicy {
    match policy {
        UplinkPolicy::WeightedMaxWeight { weights } => UplinkPolicy::WeightedMaxWeight {
            weights: perm.iter().map(|&i| weights[i]).collect(),
        },
        other => other.clone(),
    }
}

fn profile() -> DepthProfile {
    DepthProfile::from_parts(
        5,
        vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    )
}

/// A heterogeneous scenario: per-session controller kind, service model
/// and seed all vary with the session index and the drawn seeds.
fn heterogeneous_scenario(seeds: &[u64], slots: u64) -> Scenario {
    let base = ExperimentConfig::new(profile(), 2_000.0, slots).with_controller_v(1e7);
    let mut scenario = Scenario::new(slots);
    for (i, &seed) in seeds.iter().enumerate() {
        let controller = match i % 4 {
            0 => ControllerSpec::Proposed {
                v: 1e6 * (i + 1) as f64,
            },
            1 => ControllerSpec::OnlyMax,
            2 => ControllerSpec::Random { seed },
            _ => ControllerSpec::AdaptiveV {
                initial_v: 1e6,
                target_backlog: 20_000.0,
            },
        };
        let mut spec = SessionSpec::from_config(&base, controller);
        spec.seed = seed;
        spec.service = match i % 3 {
            0 => ServiceSpec::Constant(1_200.0 + 600.0 * i as f64),
            1 => ServiceSpec::Jittered {
                rate: 1_800.0 + 300.0 * i as f64,
                sigma: 0.2,
            },
            _ => ServiceSpec::DutyCycled {
                high: 3_500.0,
                low: 600.0,
                high_slots: 12,
                low_slots: 6,
            },
        };
        scenario.sessions.push(spec);
    }
    scenario
}

/// The PR-3 fixed-rate 8-tenant fleet: 4 heavy tenants (2500 points/slot)
/// and 4 light (400), each device able to serve 3000/slot on its own —
/// the fleet whose tail the admission policy alone decides.
fn fixed_rate_fleet(slots: u64) -> Scenario {
    let profile = DepthProfile::from_parts(5, vec![400.0, 2_500.0], vec![0.4, 1.0]);
    let base = ExperimentConfig::new(profile, 3_000.0, slots);
    let mut scenario = Scenario::new(slots);
    for i in 0..8usize {
        let depth = if i < 4 { 6 } else { 5 };
        let mut spec = SessionSpec::from_config(&base, ControllerSpec::Fixed { depth });
        spec.seed = 77 + i as u64;
        scenario.sessions.push(spec);
    }
    scenario
}

/// Bitwise equality of the per-slot series and headline metrics of two
/// full-trace results.
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
    prop_assert_eq!(a.mean_quality.to_bits(), b.mean_quality.to_bits());
    prop_assert_eq!(a.mean_backlog.to_bits(), b.mean_backlog.to_bits());
    prop_assert_eq!(
        a.frame_latency.mean.to_bits(),
        b.frame_latency.mean.to_bits()
    );
    prop_assert_eq!(a.frame_latency.count, b.frame_latency.count);
    prop_assert_eq!(a.dropped_total.to_bits(), b.dropped_total.to_bits());
    Ok(())
}

/// Runs a scenario through the contention plane with full traces.
fn run_contended_traces(
    scenario: &Scenario,
    spec: UplinkSpec,
    chunk: usize,
) -> Vec<ExperimentResult> {
    let mut batch = SessionBatch::full_trace(scenario).with_chunk_size(chunk);
    let mut uplink = SharedUplink::new(spec);
    uplink.run(&mut batch);
    batch.into_results()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 4: `Unconstrained` through the contention plane ≡ the
    /// plain uncoupled batch, bit for bit.
    #[test]
    fn unconstrained_uplink_equals_uncoupled_batch(
        seeds in prop::collection::vec(0u64..10_000, 1..7),
        slots in 20u64..120,
    ) {
        let scenario = heterogeneous_scenario(&seeds, slots);

        let mut plain = SessionBatch::full_trace(&scenario);
        plain.run();
        let plain = plain.into_results();

        let coupled = run_contended_traces(&scenario, UplinkSpec::unconstrained(), 64);

        prop_assert_eq!(plain.len(), coupled.len());
        for (a, b) in plain.iter().zip(&coupled) {
            assert_bit_identical(a, b)?;
        }
    }

    /// Invariant 1: per-slot conservation under a binding budget, for
    /// every constrained policy, checked at every slot of a run.
    #[test]
    fn granted_service_conserves_the_budget(
        seeds in prop::collection::vec(0u64..10_000, 2..8),
        slots in 20u64..80,
        budget_frac in 0.1f64..0.9,
    ) {
        let scenario = heterogeneous_scenario(&seeds, slots);
        // Budget strictly below the mean aggregate demand, so some slot
        // of every run must contend (constant-rate sessions contend every
        // slot; stochastic ones whenever they swing above the mean).
        let mean_demand: f64 = scenario.sessions.iter().map(|s| s.service.mean_rate()).sum();
        let budget = budget_frac * mean_demand;

        for policy in constrained_policies(seeds.len()) {
            let mut batch = SessionBatch::summary_only(&scenario);
            let mut uplink = SharedUplink::new(UplinkSpec::new(budget, policy.clone()));
            let mut contended_slots = 0u64;
            while !batch.is_done() {
                let stats = uplink.step_slot(&mut batch);
                prop_assert!(
                    stats.granted <= budget * (1.0 + 1e-9),
                    "{}: slot {} granted {} > budget {}",
                    policy.name(), stats.slot, stats.granted, budget
                );
                prop_assert!(stats.granted <= stats.demand * (1.0 + 1e-9));
                if stats.contended {
                    contended_slots += 1;
                    prop_assert!(
                        (stats.granted - budget).abs() <= budget.abs().max(1.0) * 1e-9,
                        "{}: contended slot {} must exhaust the budget: granted {} vs {}",
                        policy.name(), stats.slot, stats.granted, budget
                    );
                }
                for &g in uplink.last_grants() {
                    prop_assert!(g >= 0.0);
                }
            }
            prop_assert!(contended_slots > 0, "budget never bound — scenario too weak");
        }
    }

    /// Invariant 1 under a *time-varying* budget: the per-slot budget the
    /// driver reports tracks the profile, conservation holds against that
    /// slot's budget, and contended slots exhaust it — for every
    /// constrained policy.
    #[test]
    fn diurnal_budget_conserves_per_slot(
        seeds in prop::collection::vec(0u64..10_000, 2..6),
        slots in 40u64..100,
    ) {
        let scenario = heterogeneous_scenario(&seeds, slots);
        let mean_demand: f64 = scenario.sessions.iter().map(|s| s.service.mean_rate()).sum();
        let budget = BudgetProfile::Diurnal {
            mean: 0.6 * mean_demand,
            amplitude: 0.4 * mean_demand,
            period: 25,
            phase: 0.0,
        };

        for policy in constrained_policies(seeds.len()) {
            let mut batch = SessionBatch::summary_only(&scenario);
            let mut uplink =
                SharedUplink::new(UplinkSpec::with_profile(budget.clone(), policy.clone()));
            let mut budgets_seen: Vec<f64> = Vec::new();
            while !batch.is_done() {
                let stats = uplink.step_slot(&mut batch);
                prop_assert_eq!(
                    stats.budget.to_bits(),
                    budget.budget_at(stats.slot).to_bits(),
                    "driver must evaluate the profile at the stepped slot"
                );
                prop_assert!(stats.granted <= stats.budget * (1.0 + 1e-9));
                if stats.contended {
                    prop_assert!(
                        (stats.granted - stats.budget).abs()
                            <= stats.budget.abs().max(1.0) * 1e-9,
                        "{}: contended slot {} must exhaust its budget",
                        policy.name(), stats.slot
                    );
                }
                budgets_seen.push(stats.budget);
            }
            budgets_seen.dedup();
            prop_assert!(budgets_seen.len() > 2, "budget never varied");
            let summary = uplink.summary();
            prop_assert!(summary.mean_budget.is_finite());
            prop_assert!(summary.utilization() <= 1.0 + 1e-9);
        }
    }

    /// Invariant 1 at the allocator level: grants bounded by demands, and
    /// permutation of the sessions (and weights) permutes the grants
    /// bit-for-bit (including duplicate backlogs/demands, the tie-group
    /// case).
    #[test]
    fn allocate_is_order_invariant_bitwise(
        seed in 0u64..100_000,
        n in 1usize..24,
        budget in 0.0f64..20_000.0,
    ) {
        let mut rng = seeded(seed);
        // Draw from a coarse grid so duplicate backlogs and demands (tie
        // groups) occur often.
        let backlogs: Vec<f64> = (0..n).map(|_| 500.0 * f64::from(rng.gen_range(0u32..8))).collect();
        let demands: Vec<f64> = (0..n).map(|_| 250.0 * f64::from(rng.gen_range(0u32..9))).collect();
        // A deterministic permutation.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0usize..i + 1);
            perm.swap(i, j);
        }
        let p_backlogs: Vec<f64> = perm.iter().map(|&i| backlogs[i]).collect();
        let p_demands: Vec<f64> = perm.iter().map(|&i| demands[i]).collect();

        for policy in policies(n) {
            let p_policy = permuted_policy(&policy, &perm);
            let mut grants = Vec::new();
            let mut p_grants = Vec::new();
            policy.allocate(budget, &backlogs, &demands, &mut grants);
            p_policy.allocate(budget, &p_backlogs, &p_demands, &mut p_grants);
            for (k, &i) in perm.iter().enumerate() {
                prop_assert_eq!(
                    grants[i].to_bits(),
                    p_grants[k].to_bits(),
                    "{} not order-invariant at session {}", policy.name(), i
                );
            }
            for (g, d) in grants.iter().zip(&demands) {
                prop_assert!(*g >= 0.0 && *g <= d * (1.0 + 1e-12));
            }
        }
    }

    /// Invariants 2 + 3: contended end-to-end results are bit-identical
    /// under session reversal (weights reversed in step) and chunk-size
    /// changes, for every policy.
    #[test]
    fn contended_runs_are_order_and_chunk_invariant(
        seeds in prop::collection::vec(0u64..10_000, 2..6),
        slots in 20u64..70,
    ) {
        let forward = heterogeneous_scenario(&seeds, slots);
        let mut reversed = forward.clone();
        reversed.sessions.reverse();
        let reversal: Vec<usize> = (0..seeds.len()).rev().collect();
        // A budget around half the constant-rate sum: binding on many slots.
        let budget: f64 = 0.5
            * forward
                .sessions
                .iter()
                .map(|s| match s.service {
                    ServiceSpec::Constant(r) => r,
                    ServiceSpec::Jittered { rate, .. } => rate,
                    ServiceSpec::DutyCycled { high, low, .. } => 0.5 * (high + low),
                })
                .sum::<f64>();

        for policy in policies(seeds.len()) {
            let fwd_spec = UplinkSpec::new(budget, policy.clone());
            let rev_spec = UplinkSpec::new(budget, permuted_policy(&policy, &reversal));
            let fwd = run_contended_traces(&forward, fwd_spec, 3);
            let mut rev = run_contended_traces(&reversed, rev_spec, 64);
            rev.reverse();
            prop_assert_eq!(fwd.len(), rev.len());
            for (a, b) in fwd.iter().zip(&rev) {
                assert_bit_identical(a, b)?;
            }
        }
    }

    /// Invariant 3: forced-serial execution matches the parallel fan-out
    /// bit for bit (CI's one-worker pass re-runs this whole file under
    /// `taskset -c 0`).
    #[test]
    fn contended_runs_match_under_forced_serial(
        seeds in prop::collection::vec(0u64..10_000, 2..5),
        slots in 20u64..50,
    ) {
        let scenario = heterogeneous_scenario(&seeds, slots);
        let budget = 4_000.0;
        for policy in policies(seeds.len()) {
            let spec = UplinkSpec::new(budget, policy);
            let par = run_contended_traces(&scenario, spec.clone(), 2);
            let ser = arvis_par::serial_scope(|| run_contended_traces(&scenario, spec, 2));
            for (a, b) in par.iter().zip(&ser) {
                assert_bit_identical(a, b)?;
            }
        }
    }

    /// Invariant 6: uniform weights make `WeightedMaxWeight` reproduce
    /// `MaxWeightBacklog` bit-for-bit, end to end, on contended
    /// heterogeneous fleets.
    #[test]
    fn uniform_weighted_max_weight_equals_unweighted_end_to_end(
        seeds in prop::collection::vec(0u64..10_000, 2..6),
        slots in 20u64..60,
    ) {
        let scenario = heterogeneous_scenario(&seeds, slots);
        let budget = 0.4
            * scenario.sessions.iter().map(|s| s.service.mean_rate()).sum::<f64>();
        let plain = run_contended_traces(
            &scenario,
            UplinkSpec::new(budget, UplinkPolicy::MaxWeightBacklog),
            64,
        );
        let weighted = run_contended_traces(
            &scenario,
            UplinkSpec::new(
                budget,
                UplinkPolicy::WeightedMaxWeight {
                    weights: vec![1.0; seeds.len()],
                },
            ),
            64,
        );
        for (a, b) in plain.iter().zip(&weighted) {
            assert_bit_identical(a, b)?;
        }
    }
}

/// Invariant 5 (acceptance criterion): on a heterogeneous contended fleet,
/// `MaxWeightBacklog` keeps every tenant stable while `ProportionalShare`
/// — which reserves bandwidth for idle tenants pro rata to demand — lets
/// the loaded tenants diverge. Asserted with an order-of-magnitude margin
/// on the worst per-session p99 backlog (exact, from full traces).
#[test]
fn max_weight_cuts_p99_backlog_versus_proportional_share() {
    // The paper's 800-slot horizon: long enough for a ~550k-point backlog
    // ramp under proportional share, short enough that the normalized
    // tail-slope stability detector (slope/mean ≈ 1/t for linear growth)
    // stays clearly above its 1e-3 threshold.
    let scenario = fixed_rate_fleet(800);
    // Aggregate demand 8 × 3000 = 24000; aggregate *load* only 11600, so a
    // budget of 14400 (60 %) is ample — if, and only if, it goes where the
    // queues are. Proportional share grants every tenant 1800/slot
    // regardless of need: the heavy tenants (2500/slot) diverge.
    let budget = 14_400.0;

    let p99_worst = |policy: UplinkPolicy| -> (f64, usize) {
        let results = run_contended_traces_plain(&scenario, UplinkSpec::new(budget, policy));
        let worst = results
            .iter()
            .map(|r| r.backlog_tail.p99)
            .fold(0.0f64, f64::max);
        let stable = results.iter().filter(|r| r.stable).count();
        (worst, stable)
    };

    let (mw_p99, mw_stable) = p99_worst(UplinkPolicy::MaxWeightBacklog);
    let (ps_p99, ps_stable) = p99_worst(UplinkPolicy::ProportionalShare);

    assert_eq!(mw_stable, 8, "max-weight keeps every tenant stable");
    assert!(
        ps_stable < 8,
        "proportional share must lose tenants on this load"
    );
    // Margin: an order of magnitude, with ~20x headroom — under
    // proportional share the heavy tenants grow ≈ 700 points/slot over
    // the 800-slot horizon (measured worst p99 ≈ 557,600) while
    // max-weight holds the worst p99 at one slot's arrival burst (2,500).
    assert!(
        ps_p99 > 10.0 * mw_p99,
        "expected ≥10x margin: proportional p99 {ps_p99} vs max-weight p99 {mw_p99}"
    );
    println!(
        "worst per-session p99 backlog: proportional_share {ps_p99:.0}, \
         max_weight_backlog {mw_p99:.0} ({:.1}x), stable {ps_stable}/8 vs {mw_stable}/8",
        ps_p99 / mw_p99
    );
}

/// Invariant 6: on the fixed-rate 8-tenant fleet, `AlphaFair(α=1)` is
/// proportional fairness — behaviorally the same backlog-blind pro-rata
/// split as `ProportionalShare` (same stability verdicts, same tails to
/// rounding), while `α = ∞` (max-min) serves the light tenants' small
/// demands in full and leaves strictly more budget to the heavy ones.
#[test]
fn alpha_fair_family_brackets_proportional_share_on_the_fleet() {
    let scenario = fixed_rate_fleet(800);
    let budget = 14_400.0;

    let run = |policy: UplinkPolicy| -> Vec<ExperimentResult> {
        run_contended_traces_plain(&scenario, UplinkSpec::new(budget, policy))
    };
    let ps = run(UplinkPolicy::ProportionalShare);
    let af1 = run(UplinkPolicy::AlphaFair { alpha: 1.0 });
    let mm = run(UplinkPolicy::AlphaFair {
        alpha: f64::INFINITY,
    });

    for (a, b) in ps.iter().zip(&af1) {
        assert_eq!(a.stable, b.stable, "α=1 must match PS stability verdicts");
        let rel =
            (a.backlog_tail.p99 - b.backlog_tail.p99).abs() / a.backlog_tail.p99.abs().max(1.0);
        assert!(
            rel < 1e-9,
            "α=1 p99 {} vs PS p99 {}",
            b.backlog_tail.p99,
            a.backlog_tail.p99
        );
    }

    // Max-min: every tenant's demand is 3000 (the device rate), so equal
    // levels give 14400/8 = 1800 each — on *this* fleet the water level
    // never caps, and max-min degenerates to the same 1800/tenant split.
    // The heavy tenants (load 2500) still diverge: α-fairness of any
    // order is backlog-blind.
    let mm_stable = mm.iter().filter(|r| r.stable).count();
    assert_eq!(
        mm_stable,
        ps.iter().filter(|r| r.stable).count(),
        "backlog-blind fairness cannot rescue the heavy tenants"
    );
}

/// Invariant 7: a zero-budget slot (total outage) grants exactly zero,
/// counts as contended, conserves work, and the latency trackers pick
/// back up when the budget returns.
#[test]
fn zero_budget_slots_are_exact_and_recoverable() {
    let scenario = fixed_rate_fleet(60);
    // 20-slot outage in the middle of the run.
    let budget = BudgetProfile::PiecewiseSteps(vec![
        arvis::core::uplink::BudgetStep {
            start: 0,
            budget: 14_400.0,
        },
        arvis::core::uplink::BudgetStep {
            start: 20,
            budget: 0.0,
        },
        arvis::core::uplink::BudgetStep {
            start: 40,
            budget: 14_400.0,
        },
    ]);
    for policy in constrained_policies(8) {
        let mut batch = SessionBatch::full_trace(&scenario);
        let mut uplink =
            SharedUplink::new(UplinkSpec::with_profile(budget.clone(), policy.clone()));
        while !batch.is_done() {
            let stats = uplink.step_slot(&mut batch);
            if (20..40).contains(&stats.slot) {
                assert_eq!(stats.budget, 0.0);
                assert!(stats.contended, "positive demand vs zero budget");
                assert_eq!(
                    stats.granted.to_bits(),
                    0.0f64.to_bits(),
                    "{}: outage slot {} granted {}",
                    policy.name(),
                    stats.slot,
                    stats.granted
                );
                for &g in uplink.last_grants() {
                    assert_eq!(g.to_bits(), 0.0f64.to_bits(), "{}", policy.name());
                }
            }
        }
        let summary = uplink.summary();
        assert_eq!(summary.slots, 60);
        assert!(summary.contended_slots >= 20, "{}", policy.name());
        let results = batch.into_results();
        for r in &results {
            // Work conservation across the outage: arrivals either
            // served, dropped, or still queued; latency accounting sane.
            assert!(r.frame_latency.count > 0, "{}", policy.name());
            assert!(r.frame_latency.mean.is_finite());
            assert!(r
                .backlog
                .values()
                .iter()
                .all(|q| q.is_finite() && *q >= 0.0));
            let served: f64 = r.service.values().iter().sum::<f64>();
            assert!(served.is_finite() && served >= 0.0);
        }
    }
}

/// Non-proptest variant of the trace runner (outside the macro).
fn run_contended_traces_plain(scenario: &Scenario, spec: UplinkSpec) -> Vec<ExperimentResult> {
    let mut batch = SessionBatch::full_trace(scenario);
    let mut uplink = SharedUplink::new(spec);
    uplink.run(&mut batch);
    batch.into_results()
}

/// The batch refuses to mix phase-one polling with an uncoupled run —
/// the guard that keeps the two-phase protocol honest.
#[test]
#[should_panic(expected = "complete it with step_slot_granted")]
fn polled_slot_cannot_be_stepped_unscaled() {
    let base = ExperimentConfig::new(profile(), 2_000.0, 10);
    let scenario = Scenario::replicated(&base, ControllerSpec::OnlyMin, 2);
    let mut batch = SessionBatch::summary_only(&scenario);
    let mut demands = Vec::new();
    batch.fill_demands(&mut demands);
    batch.run(); // must panic: the slot's demands are already drawn
}
