//! Test oracles for the contended slot, and the differential tests that pin
//! the sums, the max-weight grants and the degradation guard to them.
//!
//! Each oracle takes every operand: the sum sorts all of its values, the
//! max-weight fill orders every session, and the guard sorts every weight,
//! dedups the levels and rescans the sessions once per level. The fast
//! paths skip what cannot change their result: zero operands, sessions
//! with a `+0.0` demand, and the sort behind the guard's threshold. The
//! oracles share the fast paths' two zero rules — sums fold from `+0.0`,
//! and a zero budget allocates as `+0.0` — so a difference here can only
//! come from what the fast paths skip.
//!
//! The last test steps whole churned cells two ways: through
//! `SharedUplink::step_slot`, which walks the batch's physical rows, and
//! through the id-indexed public calls, whose vectors hold every id ever
//! issued. Both must give the same bits.

use arvis_quality::DepthProfile;
use arvis_sim::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;

use crate::churn::{ChurnArrivalSpec, ChurnPlane, ChurnSpec, LifetimeSpec};
use crate::experiment::{ExperimentConfig, ServiceSpec};
use crate::fault::{DegradationGuardSpec, FaultEvent, FaultPlan, FaultPlane, ShedMode};
use crate::scenario::{ControllerSpec, Scenario, SessionSpec};
use crate::session::SessionBatch;
use crate::uplink::{SharedUplink, UplinkPolicy, UplinkSpec};

/// Every operand, sorted by `total_cmp`, folded from `+0.0`.
fn invariant_sum(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.total_cmp(b));
    sorted.iter().fold(0.0, |sum, &v| sum + v)
}

/// The grants of a max-weight policy whose session priorities are
/// `priorities`: every demand when the total fits the budget; otherwise
/// every session ordered by descending priority, equal-priority groups
/// served whole while the budget lasts, the group where it runs dry scaled
/// pro rata and every lower group zeroed.
fn max_weight_grants(priorities: &[f64], demands: &[f64], budget: f64) -> Vec<f64> {
    let budget = budget + 0.0;
    let mut grants = demands.to_vec();
    if invariant_sum(demands) <= budget {
        return grants;
    }
    let mut order: Vec<usize> = (0..priorities.len()).collect();
    order.sort_unstable_by(|&i, &j| priorities[j].total_cmp(&priorities[i]));
    let mut remaining = budget;
    let mut at = 0;
    while at < order.len() {
        let group_priority = priorities[order[at]];
        let mut end = at;
        while end < order.len() && priorities[order[end]].total_cmp(&group_priority).is_eq() {
            end += 1;
        }
        let group = &order[at..end];
        let group_demands: Vec<f64> = group.iter().map(|&i| demands[i]).collect();
        let group_total = invariant_sum(&group_demands);
        if group_total <= remaining {
            remaining -= group_total;
        } else {
            let scale = remaining / group_total;
            for &i in group {
                grants[i] *= scale;
            }
            for &i in &order[end..] {
                grants[i] = 0.0;
            }
            break;
        }
        at = end;
    }
    grants
}

/// The engaged guard's selection: the distinct weights ascending, each
/// level's sessions marked by a rescan of every session until
/// `⌈shed_fraction · n⌉` are covered, then every marked demand deferred or
/// clamped. Returns the number of sessions shed.
fn shed(spec: &DegradationGuardSpec, demands: &mut [f64], weights: Option<&[f64]>) -> u64 {
    let n = demands.len();
    if n == 0 {
        return 0;
    }
    let target = ((spec.shed_fraction * n as f64).ceil() as usize).clamp(1, n);
    let weight = |i: usize| weights.map_or(1.0, |w| w[i]);
    let mut levels: Vec<f64> = (0..n).map(weight).collect();
    levels.sort_unstable_by(|a, b| a.total_cmp(b));
    levels.dedup_by(|a, b| a.total_cmp(b).is_eq());
    let mut marked = vec![false; n];
    let mut covered = 0usize;
    for level in &levels {
        for (i, mark) in marked.iter_mut().enumerate() {
            if weight(i).total_cmp(level).is_eq() {
                *mark = true;
                covered += 1;
            }
        }
        if covered >= target {
            break;
        }
    }
    let mut count = 0u64;
    for (demand, &mark) in demands.iter_mut().zip(&marked) {
        if mark {
            match spec.mode {
                ShedMode::Defer => *demand = 0.0,
                ShedMode::Clamp { factor } => *demand *= factor,
            }
            count += 1;
        }
    }
    count
}

/// Values drawn from this pool tie with each other.
const TIES: [f64; 5] = [0.5, 1.0, 3.25, 70.0, 1e9];

/// A width in `0..=1024`, the edges drawn more often than a uniform draw
/// would.
fn width(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..=3usize),
        1 => 1024,
        _ => rng.gen_range(0..=1024usize),
    }
}

/// The share of exact `+0.0` operands, in `[0, 0.99]`.
fn zero_share(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => 0.5,
        2 => 0.94,
        3 => 0.99,
        _ => rng.gen_range(0.0..0.99),
    }
}

/// A finite operand ≥ 0: `+0.0` with probability `zeros`, otherwise `−0.0`,
/// a subnormal, a tied value or a magnitude from 1e-300 to 1e300.
fn operand(rng: &mut StdRng, zeros: f64) -> f64 {
    if rng.gen::<f64>() < zeros {
        return 0.0;
    }
    match rng.gen_range(0..8u32) {
        0 => -0.0,
        1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        2 | 3 => TIES[rng.gen_range(0..TIES.len())],
        _ => rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(-300..300)),
    }
}

/// `n` operands sharing one draw of the `+0.0` share.
fn operands(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let zeros = zero_share(rng);
    (0..n).map(|_| operand(rng, zeros)).collect()
}

/// A finite positive weight: tied, subnormal, or from 1e-300 to 1e300.
fn weight(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 | 1 => TIES[rng.gen_range(0..TIES.len())],
        2 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
        _ => rng.gen_range(1.0..10.0) * 10f64.powi(rng.gen_range(-300..300)),
    }
}

/// Budgets for one max-weight slot: `+0.0`, `−0.0`, `∞`, a share of the
/// total demand, and for a random priority group, the largest tie group
/// and the `+0.0` group (when there is one) the budget that reaches it
/// exactly and one that runs dry inside it.
fn budgets(rng: &mut StdRng, priorities: &[f64], demands: &[f64]) -> Vec<f64> {
    let mut out = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        rng.gen::<f64>() * invariant_sum(demands),
    ];
    let mut order: Vec<usize> = (0..priorities.len()).collect();
    order.sort_unstable_by(|&i, &j| priorities[j].total_cmp(&priorities[i]));
    // (priority, members, budget spent before the group, group total)
    let mut groups = Vec::new();
    let (mut at, mut before) = (0, 0.0);
    while at < order.len() {
        let p = priorities[order[at]];
        let len = order[at..]
            .iter()
            .take_while(|&&i| priorities[i].total_cmp(&p).is_eq())
            .count();
        let group: Vec<f64> = order[at..at + len].iter().map(|&i| demands[i]).collect();
        let total = invariant_sum(&group);
        groups.push((p, len, before, total));
        before += total;
        at += len;
    }
    if groups.is_empty() {
        return out;
    }
    let random = rng.gen_range(0..groups.len());
    let largest = (0..groups.len()).max_by_key(|&k| groups[k].1);
    let zero = groups.iter().position(|g| g.0.to_bits() == 0);
    for k in std::iter::once(random).chain(largest).chain(zero) {
        let (_, _, before, total) = groups[k];
        out.push(before);
        out.push(before + rng.gen::<f64>() * total);
    }
    out
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn sums_match_the_full_sort_bitwise() {
    let mut rng = seeded(0x5eed_0001);
    let mut scratch = Vec::new();
    for case in 0..400 {
        let n = width(&mut rng);
        let values = operands(&mut rng, n);
        let fast = crate::uplink::invariant_sum(values.iter().copied(), &mut scratch);
        let want = invariant_sum(&values);
        assert_eq!(
            fast.to_bits(),
            want.to_bits(),
            "case {case}: width {n}, got {fast:e}, want {want:e}"
        );
    }
}

#[test]
fn max_weight_grants_match_the_full_order_bitwise() {
    let mut rng = seeded(0x5eed_0002);
    let mut grants = Vec::new();
    for case in 0..150 {
        let n = width(&mut rng);
        let backlogs = operands(&mut rng, n);
        let demands = operands(&mut rng, n);
        let weights: Vec<f64> = (0..n).map(|_| weight(&mut rng)).collect();
        let keys: Vec<f64> = backlogs
            .iter()
            .zip(&weights)
            .map(|(&q, &w)| w * q)
            .collect();
        let mut policies = vec![(UplinkPolicy::MaxWeightBacklog, backlogs.clone())];
        if n > 0 {
            policies.push((UplinkPolicy::WeightedMaxWeight { weights }, keys));
        }
        for (policy, priorities) in policies {
            for budget in budgets(&mut rng, &priorities, &demands) {
                policy.allocate(budget, &backlogs, &demands, &mut grants);
                let want = max_weight_grants(&priorities, &demands, budget);
                assert!(
                    same_bits(&grants, &want),
                    "case {case}: {} width {n} budget {budget:e}",
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn guard_selection_matches_the_level_rescan_bitwise() {
    let mut rng = seeded(0x5eed_0003);
    for case in 0..300 {
        let n = width(&mut rng);
        let demands = operands(&mut rng, n);
        let weights: Vec<f64> = (0..n).map(|_| weight(&mut rng)).collect();
        let spec = DegradationGuardSpec {
            ema_alpha: 0.1,
            engage_above: 0.8,
            release_below: 0.4,
            // Any positive backlog engages the guard at once.
            backlog_limit: f64::MIN_POSITIVE,
            shed_fraction: match rng.gen_range(0..3u32) {
                0 => 1.0,
                1 => f64::MIN_POSITIVE,
                _ => 1.0 - rng.gen::<f64>(),
            },
            mode: match rng.gen_range(0..3u32) {
                0 => ShedMode::Defer,
                1 => ShedMode::Clamp { factor: 0.0 },
                _ => ShedMode::Clamp {
                    factor: rng.gen::<f64>(),
                },
            },
        };
        let plan = FaultPlan::new().with_guard(spec);
        for weights in [None, Some(weights.as_slice())] {
            let mut fast = demands.clone();
            let mut plane = FaultPlane::new(&plan, n);
            let count = plane.shed(1.0, &mut fast, weights);
            let mut want = demands.clone();
            let want_count = shed(&spec, &mut want, weights);
            let what = format!("case {case}: width {n}, weighted {}", weights.is_some());
            assert_eq!(count, want_count, "{what}");
            assert!(same_bits(&fast, &want), "{what}");
        }
    }
}

/// A small churned cell for case `case`: jittered tenants behind one
/// uplink that binds, Poisson joins and geometric lifetimes short enough
/// that most ids depart, an outage, a grant loss on every initial tenant
/// and a guard that engages. The case picks the policy (`case % 5`), the
/// guard's mode (`case % 2`) and compaction (`case / 10 % 2`), so every
/// policy meets both modes with compaction on and off.
fn churned_cell(rng: &mut StdRng, case: usize) -> Scenario {
    let profile = DepthProfile::from_parts(
        5,
        vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
        vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
    );
    let slots = rng.gen_range(120..240);
    let cfg = ExperimentConfig::new(profile, 2_000.0, slots).with_controller_v(1e7);
    let session = |rng: &mut StdRng| {
        let mut spec = SessionSpec::from_config(&cfg, ControllerSpec::Proposed { v: 1e7 });
        spec.service = ServiceSpec::Jittered {
            rate: rng.gen_range(1_000.0..3_000.0),
            sigma: 0.15,
        };
        spec.seed = rng.gen();
        spec
    };
    let tenants = rng.gen_range(3..9);
    let mut scenario = Scenario::new(slots);
    for _ in 0..tenants {
        scenario.sessions.push(session(rng));
    }
    let mut weight = || [1.0, 2.0, 3.0, 4.0][rng.gen_range(0..4usize)];
    let policy = match case % 5 {
        0 => UplinkPolicy::MaxWeightBacklog,
        1 => UplinkPolicy::WeightedMaxWeight {
            weights: (0..tenants).map(|_| weight()).collect(),
        },
        2 => UplinkPolicy::ProportionalShare,
        3 => UplinkPolicy::AlphaFair { alpha: 2.0 },
        _ => UplinkPolicy::AlphaFair {
            alpha: f64::INFINITY,
        },
    };
    let joiner_weight = matches!(policy, UplinkPolicy::WeightedMaxWeight { .. }).then(weight);
    let budget = rng.gen_range(0.3..0.9) * 2_000.0 * tenants as f64;
    let mode = match case % 2 {
        0 => ShedMode::Defer,
        _ => ShedMode::Clamp {
            factor: rng.gen_range(0.0..0.9),
        },
    };
    let mut plan = FaultPlan::new()
        .with_event(FaultEvent::Outage {
            start: slots / 3,
            slots: 4,
        })
        .with_guard(DegradationGuardSpec {
            ema_alpha: 0.2,
            engage_above: 0.6,
            release_below: 0.3,
            backlog_limit: f64::INFINITY,
            shed_fraction: rng.gen_range(0.1..0.6),
            mode,
        });
    for tenant in 0..tenants {
        plan = plan.with_event(FaultEvent::GrantLoss {
            session: tenant,
            p: rng.gen_range(0.05..0.5),
            seed: rng.gen(),
        });
    }
    let arrivals = ChurnArrivalSpec::Poisson {
        lambda: rng.gen_range(0.1..0.4),
        seed: rng.gen(),
    };
    let mut churn = ChurnSpec::new()
        .with_arrivals(arrivals, session(rng), 200)
        .with_lifetime(LifetimeSpec::Geometric {
            mean: rng.gen_range(5.0..40.0),
            seed: rng.gen(),
        })
        .with_compaction((case / 10).is_multiple_of(2));
    if let Some(w) = joiner_weight {
        churn = churn.with_weight(w);
    }
    scenario
        .with_uplink(UplinkSpec::new(budget, policy))
        .with_fault(plan)
        .with_churn(churn)
}

#[test]
fn row_walk_matches_the_id_indexed_calls_bitwise() {
    let mut rng = seeded(0x5eed_0004);
    // Slots on which the cells reach what only the id-indexed outputs
    // tell apart from a walk that forgets departed ids.
    let (mut same_step, mut loss_rowless, mut shed_rowless) = (0, 0, 0);
    for case in 0..50 {
        let scenario = churned_cell(&mut rng, case);
        let spec = scenario.uplink.clone().unwrap();
        let plan = scenario.fault.clone().unwrap();
        let churn = scenario.churn.clone().unwrap();
        let tenants = scenario.sessions.len();

        // Rows: the path `run_contended` takes.
        let mut batch = SessionBatch::summary_only(&scenario);
        let mut uplink = SharedUplink::with_fault(spec.clone(), &plan, tenants);
        let mut plane = ChurnPlane::new(&churn, &scenario);

        // Ids: the churn plane grows `joined`'s weights; it never steps.
        let mut id_batch = SessionBatch::summary_only(&scenario);
        let mut joined = SharedUplink::new(spec.clone());
        let mut id_plane = ChurnPlane::new(&churn, &scenario);
        let mut fault = FaultPlane::new(&plan, tenants);
        let (mut backlogs, mut demands, mut grants, mut sums) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());

        while !batch.is_done() {
            let slot = batch.slot();
            let compacted = plane.compacted_rows();
            plane.step_summary(&mut batch, &mut uplink);
            let departed_now = plane
                .departure_schedule()
                .iter()
                .any(|&(at, id)| at == slot && uplink.last_grants().get(id as usize) > Some(&0.0));
            if departed_now && plane.compacted_rows() > compacted {
                same_step += 1;
            }
            let stats = uplink.step_slot(&mut batch);
            let rows = batch.row_ids();
            loss_rowless += (0..tenants).filter(|&t| rows.row(t).is_none()).count();
            shed_rowless += usize::from(stats.shed_sessions > batch.len() as u64);

            id_plane.step_summary(&mut id_batch, &mut joined);
            let budget = fault.effective_budget(slot, spec.budget.budget_at(slot));
            fault.apply_crashes(slot, &mut id_batch);
            id_batch.fill_backlogs(&mut backlogs);
            id_batch.fill_demands(&mut demands);
            let backlog = crate::uplink::invariant_sum(backlogs.iter().copied(), &mut sums);
            let offered = crate::uplink::invariant_sum(demands.iter().copied(), &mut sums);
            let policy = &joined.spec().policy;
            let weights = match policy {
                UplinkPolicy::WeightedMaxWeight { weights } => Some(weights.as_slice()),
                _ => None,
            };
            let shed = fault.shed(backlog, &mut demands, weights);
            policy.allocate(budget, &backlogs, &demands, &mut grants);
            let lost = fault.apply_loss(&mut grants);
            id_batch.step_slot_granted(&grants);
            let granted = crate::uplink::invariant_sum(grants.iter().copied(), &mut sums);
            let contended = offered > budget;
            fault.observe_contention(contended);

            let what = format!("case {case} slot {slot}");
            let bits = |x: f64| x.to_bits();
            assert_eq!(stats.slot, slot, "{what}");
            assert_eq!(bits(stats.budget), bits(budget), "{what}: budget");
            assert_eq!(bits(stats.demand), bits(offered), "{what}: demand");
            assert_eq!(bits(stats.granted), bits(granted), "{what}: granted");
            assert_eq!(bits(stats.backlog), bits(backlog), "{what}: backlog");
            assert_eq!(stats.contended, contended, "{what}: contended");
            assert_eq!(stats.shed_sessions, shed, "{what}: shed_sessions");
            assert_eq!(bits(stats.lost), bits(lost), "{what}: lost");
            assert_eq!(
                stats.down_sessions,
                id_batch.down_sessions(),
                "{what}: down"
            );
            assert!(
                same_bits(uplink.last_grants(), &grants),
                "{what}: last_grants"
            );
        }
        let summary = uplink.summary();
        assert_eq!(summary.shed_slots, fault.shed_slots(), "case {case}");
        assert_eq!(
            summary.deferred_session_slots,
            fault.deferred_session_slots(),
            "case {case}"
        );
        assert_eq!(summary.lost_total.to_bits(), fault.lost_total().to_bits());
        assert_eq!(
            batch.downtime(),
            id_batch.downtime(),
            "case {case}: downtime"
        );
        assert_eq!(
            format!("{:?}", batch.into_summaries()),
            format!("{:?}", id_batch.into_summaries()),
            "case {case}: summaries"
        );
    }
    assert!(
        same_step > 0 && loss_rowless > 0 && shed_rowless > 0,
        "coverage: {same_step} granted departures compacted in their churn step, \
         {loss_rowless} loss draws without a row, {shed_rowless} sheds counting rowless ids"
    );
}
