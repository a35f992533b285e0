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

use arvis_sim::rng::seeded;
use rand::rngs::StdRng;
use rand::Rng;

use crate::fault::{DegradationGuardSpec, FaultPlan, FaultPlane, ShedMode};
use crate::uplink::UplinkPolicy;

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
