//! Depth controllers: the proposed scheduler (Algorithm 1) and baselines.
//!
//! The [`DepthController`] trait is the *open* extension point: anything
//! that maps `(slot, backlog, profile) → depth` plugs into
//! [`crate::experiment::Experiment::run`]. Batched scenarios dispatch the
//! controllers in this module through the closed enum
//! [`crate::scenario::BuiltController`], avoiding a per-slot virtual call.

use arvis_lyapunov::adaptive::AdaptiveV;
use arvis_lyapunov::dpp::{Candidate, DppController, Objective};
use arvis_quality::DepthProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-slot octree-depth selection policy.
///
/// Implementations receive the observed backlog `Q(t)` and the current
/// frame's [`DepthProfile`] (the table `d → (a(d), p_a(d))`), exactly the
/// information Algorithm 1 consumes — no arrival statistics, no global
/// state, which is what makes every policy here "fully distributed".
pub trait DepthController {
    /// Selects the depth for slot `slot` given backlog `backlog`.
    fn select_depth(&mut self, slot: u64, backlog: f64, profile: &DepthProfile) -> u8;

    /// Short machine-readable name for reports and CSV columns.
    fn name(&self) -> &'static str;
}

/// **The proposed scheduler** (paper Algorithm 1, "Stabilized AR
/// Visualization"): per slot, evaluate
/// `I(d) = V · p_a(d) − Q(t) · a(d)` for every candidate depth and pick the
/// maximizer.
///
/// Note the paper's pseudo-code literally *minimizes* `I` (`I ≤ I*` with
/// `I* ← ∞`), contradicting its own Eq. (3); see
/// [`Objective::PaperLiteralMinimize`] for the literal variant and the test
/// `paper_literal_rule_is_worse` demonstrating the consequence.
#[derive(Debug, Clone)]
pub struct ProposedDpp {
    inner: DppController,
}

impl ProposedDpp {
    /// Creates the scheduler with trade-off coefficient `V`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is negative or non-finite.
    pub fn new(v: f64) -> Self {
        ProposedDpp {
            inner: DppController::new(v),
        }
    }

    /// Creates the scheduler with an explicit objective (for demonstrating
    /// the Algorithm-1 typo only; use [`ProposedDpp::new`] otherwise).
    pub fn with_objective(v: f64, objective: Objective) -> Self {
        ProposedDpp {
            inner: DppController::with_objective(v, objective),
        }
    }

    /// The trade-off coefficient `V`.
    pub fn v(&self) -> f64 {
        self.inner.v()
    }

    /// Replaces `V`.
    pub fn set_v(&mut self, v: f64) {
        self.inner.set_v(v);
    }
}

impl Default for ProposedDpp {
    /// A scheduler with `V = 1e6`, a reasonable default for point-unit
    /// workloads in the 10⁴–10⁵ arrivals range.
    fn default() -> Self {
        ProposedDpp::new(1e6)
    }
}

impl DepthController for ProposedDpp {
    fn select_depth(&mut self, _slot: u64, backlog: f64, profile: &DepthProfile) -> u8 {
        let candidates = profile.depths().map(|d| Candidate {
            action: d,
            utility: profile.quality(d),
            arrival: profile.arrival(d),
        });
        self.inner
            .decide(backlog, candidates)
            .expect("profile has at least two depths")
            .action
    }

    fn name(&self) -> &'static str {
        "proposed"
    }
}

/// Baseline: always render at the maximum candidate depth
/// ("only max-Depth" in the paper's Fig. 2 — maximal quality, diverging
/// queue when the device cannot keep up).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxDepth;

impl DepthController for MaxDepth {
    fn select_depth(&mut self, _slot: u64, _backlog: f64, profile: &DepthProfile) -> u8 {
        profile.max_depth()
    }

    fn name(&self) -> &'static str {
        "only_max_depth"
    }
}

/// Baseline: always render at the minimum candidate depth
/// ("only min-Depth" — queue drains to zero, quality pinned at the floor).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinDepth;

impl DepthController for MinDepth {
    fn select_depth(&mut self, _slot: u64, _backlog: f64, profile: &DepthProfile) -> u8 {
        profile.min_depth()
    }

    fn name(&self) -> &'static str {
        "only_min_depth"
    }
}

/// Baseline: a fixed depth, clamped into the candidate range.
#[derive(Debug, Clone, Copy)]
pub struct FixedDepth {
    /// The depth to hold.
    pub depth: u8,
}

impl FixedDepth {
    /// Creates a fixed-depth policy.
    pub fn new(depth: u8) -> Self {
        FixedDepth { depth }
    }
}

impl DepthController for FixedDepth {
    fn select_depth(&mut self, _slot: u64, _backlog: f64, profile: &DepthProfile) -> u8 {
        self.depth.clamp(profile.min_depth(), profile.max_depth())
    }

    fn name(&self) -> &'static str {
        "fixed_depth"
    }
}

/// Baseline: uniformly random depth each slot (seeded).
#[derive(Debug, Clone)]
pub struct RandomDepth {
    rng: StdRng,
}

impl RandomDepth {
    /// Creates a seeded random policy.
    pub fn new(seed: u64) -> Self {
        RandomDepth {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DepthController for RandomDepth {
    fn select_depth(&mut self, _slot: u64, _backlog: f64, profile: &DepthProfile) -> u8 {
        self.rng
            .gen_range(profile.min_depth()..=profile.max_depth())
    }

    fn name(&self) -> &'static str {
        "random_depth"
    }
}

/// Baseline: hand-tuned backlog thresholds — drop one depth level per
/// threshold crossed. The natural heuristic an engineer would write without
/// the Lyapunov framework; the comparison quantifies what the closed form
/// buys.
#[derive(Debug, Clone)]
pub struct QueueThreshold {
    /// Ascending backlog thresholds; crossing the `k`-th drops the depth by
    /// `k + 1` levels below the maximum.
    thresholds: Vec<f64>,
}

impl QueueThreshold {
    /// Creates a threshold policy.
    ///
    /// # Panics
    ///
    /// Panics when `thresholds` is empty or not strictly ascending.
    pub fn new(thresholds: Vec<f64>) -> Self {
        assert!(!thresholds.is_empty(), "need at least one threshold");
        assert!(
            thresholds.windows(2).all(|w| w[0] < w[1]),
            "thresholds must be strictly ascending"
        );
        QueueThreshold { thresholds }
    }

    /// Evenly spaced thresholds between 0 and `max_backlog` covering the
    /// whole depth range of `profile`.
    pub fn evenly_spaced(profile: &DepthProfile, max_backlog: f64) -> Self {
        let levels = profile.len() - 1;
        let thresholds = (1..=levels)
            .map(|k| max_backlog * k as f64 / levels as f64)
            .collect();
        Self::new(thresholds)
    }
}

impl DepthController for QueueThreshold {
    fn select_depth(&mut self, _slot: u64, backlog: f64, profile: &DepthProfile) -> u8 {
        // Saturate: 256 or more crossed thresholds must not wrap to zero.
        let crossed = self.thresholds.iter().filter(|&&t| backlog >= t).count();
        let crossed = u8::try_from(crossed).unwrap_or(u8::MAX);
        profile
            .max_depth()
            .saturating_sub(crossed)
            .max(profile.min_depth())
    }

    fn name(&self) -> &'static str {
        "queue_threshold"
    }
}

/// Extension: the proposed scheduler with online-adapted `V` regulating the
/// backlog around a target (see [`arvis_lyapunov::adaptive`]).
#[derive(Debug, Clone)]
pub struct AdaptiveDpp {
    inner: DppController,
    adapter: AdaptiveV,
}

impl AdaptiveDpp {
    /// Creates an adaptive scheduler starting at `initial_v` and regulating
    /// the backlog around `target_backlog`.
    pub fn new(initial_v: f64, target_backlog: f64) -> Self {
        AdaptiveDpp {
            inner: DppController::new(initial_v),
            adapter: AdaptiveV::new(initial_v, target_backlog, 0.02),
        }
    }

    /// The current (adapted) `V`.
    pub fn v(&self) -> f64 {
        self.inner.v()
    }
}

impl DepthController for AdaptiveDpp {
    fn select_depth(&mut self, _slot: u64, backlog: f64, profile: &DepthProfile) -> u8 {
        let v = self.adapter.observe(backlog);
        self.inner.set_v(v);
        let candidates = profile.depths().map(|d| Candidate {
            action: d,
            utility: profile.quality(d),
            arrival: profile.arrival(d),
        });
        self.inner
            .decide(backlog, candidates)
            .expect("profile has at least two depths")
            .action
    }

    fn name(&self) -> &'static str {
        "adaptive_v"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DepthProfile {
        DepthProfile::from_parts(
            5,
            vec![100.0, 400.0, 1600.0, 6400.0, 25600.0, 102400.0],
            vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        )
    }

    #[test]
    fn proposed_interpolates_between_extremes() {
        let p = profile();
        let mut c = ProposedDpp::new(1e6);
        assert_eq!(c.select_depth(0, 0.0, &p), 10, "empty queue -> max depth");
        assert_eq!(c.select_depth(0, 1e9, &p), 5, "huge queue -> min depth");
        let mid = c.select_depth(0, 3_000.0, &p);
        assert!((5..=10).contains(&mid));
    }

    #[test]
    fn proposed_depth_monotone_in_backlog() {
        let p = profile();
        let mut c = ProposedDpp::new(1e6);
        let mut last = u8::MAX;
        for q in [0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7] {
            let d = c.select_depth(0, q, &p);
            assert!(d <= last, "depth must be non-increasing in backlog");
            last = d;
        }
    }

    #[test]
    fn max_min_fixed_policies() {
        let p = profile();
        assert_eq!(MaxDepth.select_depth(0, 1e9, &p), 10);
        assert_eq!(MinDepth.select_depth(0, 0.0, &p), 5);
        assert_eq!(FixedDepth::new(7).select_depth(0, 0.0, &p), 7);
        assert_eq!(FixedDepth::new(2).select_depth(0, 0.0, &p), 5, "clamped up");
        assert_eq!(
            FixedDepth::new(99).select_depth(0, 0.0, &p),
            10,
            "clamped down"
        );
    }

    #[test]
    fn random_depth_within_range_and_seeded() {
        let p = profile();
        let mut a = RandomDepth::new(7);
        let seq_a: Vec<u8> = (0..100).map(|s| a.select_depth(s, 0.0, &p)).collect();
        assert!(seq_a.iter().all(|d| (5..=10).contains(d)));
        let mut b = RandomDepth::new(7);
        let seq_b: Vec<u8> = (0..100).map(|s| b.select_depth(s, 0.0, &p)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same sequence");
        // All depths eventually visited.
        for d in 5..=10u8 {
            assert!(seq_a.contains(&d), "depth {d} never chosen in 100 draws");
        }
    }

    #[test]
    fn threshold_policy_steps_down() {
        let p = profile();
        let mut c = QueueThreshold::new(vec![100.0, 200.0, 300.0, 400.0, 500.0]);
        assert_eq!(c.select_depth(0, 0.0, &p), 10);
        assert_eq!(c.select_depth(0, 150.0, &p), 9);
        assert_eq!(c.select_depth(0, 450.0, &p), 6);
        assert_eq!(c.select_depth(0, 1e9, &p), 5);
    }

    #[test]
    fn threshold_evenly_spaced_covers_range() {
        let p = profile();
        let mut c = QueueThreshold::evenly_spaced(&p, 1_000.0);
        assert_eq!(c.select_depth(0, 0.0, &p), 10);
        assert_eq!(c.select_depth(0, 2_000.0, &p), 5);
    }

    #[test]
    fn threshold_count_saturates_past_255() {
        let p = DepthProfile::from_parts(5, vec![100.0, 400.0], vec![0.0, 1.0]);
        for n in [255u32, 256, 300] {
            let mut c = QueueThreshold::new((1..=n).map(f64::from).collect());
            assert_eq!(c.select_depth(0, 1e9, &p), 5, "{n} thresholds, all crossed");
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn threshold_rejects_unsorted() {
        let _ = QueueThreshold::new(vec![5.0, 3.0]);
    }

    #[test]
    fn adaptive_dpp_tracks_target() {
        let p = profile();
        let mut c = AdaptiveDpp::new(1e6, 1_000.0);
        let v0 = c.v();
        // Keep showing it an over-target backlog: V must fall.
        for s in 0..200 {
            let _ = c.select_depth(s, 50_000.0, &p);
        }
        assert!(c.v() < v0);
    }

    #[test]
    fn paper_literal_rule_is_worse() {
        // At an empty queue, the literal Algorithm-1 comparison (argmin)
        // picks the minimum quality — demonstrably not what Eq. (3) intends.
        let p = profile();
        let mut literal = ProposedDpp::with_objective(1e6, Objective::PaperLiteralMinimize);
        let mut correct = ProposedDpp::new(1e6);
        assert_eq!(correct.select_depth(0, 0.0, &p), 10);
        assert_eq!(literal.select_depth(0, 0.0, &p), 5);
    }

    #[test]
    fn names_are_distinct() {
        let p = profile();
        let mut controllers: Vec<Box<dyn DepthController>> = vec![
            Box::new(ProposedDpp::default()),
            Box::new(MaxDepth),
            Box::new(MinDepth),
            Box::new(FixedDepth::new(7)),
            Box::new(RandomDepth::new(0)),
            Box::new(QueueThreshold::evenly_spaced(&p, 100.0)),
            Box::new(AdaptiveDpp::new(1e6, 100.0)),
        ];
        let mut names: Vec<&str> = controllers.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
        // And they all produce valid depths through the trait object.
        for c in controllers.iter_mut() {
            let d = c.select_depth(0, 10.0, &p);
            assert!((5..=10).contains(&d));
        }
    }
}
